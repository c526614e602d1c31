// Line-rate packet anonymizer, modelled on the ONTAS-based P4 anonymizer
// of the paper's Figure 13 (P4Campus): mirrored campus traffic has its MAC
// and IPv4 addresses hashed in a PREFIX-PRESERVING manner with a salt
// before reaching the testbed, and payloads are discarded.
//
// Prefix preservation: two addresses sharing exactly k leading bits map to
// outputs sharing exactly k leading bits — so subnet structure (and thus
// routing behaviour) survives anonymization while identities do not.
#pragma once

#include <cstdint>
#include <memory>

#include "net/switch_node.hpp"

namespace hydra::fwd {

// Standalone anonymization functions (used by the program and tests).
std::uint32_t anonymize_ipv4(std::uint32_t addr, std::uint64_t salt);
std::uint64_t anonymize_mac(std::uint64_t mac, std::uint64_t salt);

// A forwarding wrapper that anonymizes every packet before handing it to
// the inner program — deploy at the mirror/broker switch.
class AnonymizerProgram : public net::ForwardingProgram {
 public:
  AnonymizerProgram(std::shared_ptr<net::ForwardingProgram> inner,
                    std::uint64_t salt)
      : inner_(std::move(inner)), salt_(salt) {}

  Decision process(p4rt::Packet& pkt, int in_port, int switch_id) override;
  std::string name() const override { return "anonymizer"; }

  std::uint64_t packets_anonymized() const { return count_; }

 private:
  std::shared_ptr<net::ForwardingProgram> inner_;
  std::uint64_t salt_;
  std::uint64_t count_ = 0;
};

}  // namespace hydra::fwd
