// Slice configuration model (§5.2): a slice connects an isolated group of
// mobile clients and carries a prioritized list of application filtering
// rules of the form
//     priority : ip-prefix : ip-proto : l4-port : action
// shared by every client of the slice.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace hydra::aether {

enum class FilterAction { kDeny = 1, kAllow = 2 };

struct FilteringRule {
  int priority = 0;
  std::uint32_t app_prefix = 0;
  int prefix_len = 0;  // 0 = any address; outside [0, 32] matching throws
  std::optional<std::uint8_t> proto;  // nullopt = any protocol
  std::uint16_t port_lo = 0;          // [0, 0xffff] = any port
  std::uint16_t port_hi = 0xffff;
  FilterAction action = FilterAction::kDeny;

  // The paper's textual form, e.g. "20:0.0.0.0/0:UDP:81:allow".
  std::string to_string() const;
  bool matches(std::uint32_t ip, std::uint8_t proto_v,
               std::uint16_t port) const;
  // Identity of the *match* (not the action/priority): used to decide
  // whether an Applications entry can be shared.
  bool same_match(const FilteringRule& other) const;
};

struct Client {
  std::uint64_t imsi = 0;
  std::uint32_t ue_ip = 0;
  std::uint32_t teid = 0;  // GTP tunnel id assigned at attach
};

struct Slice {
  std::uint32_t id = 0;
  std::string name;
  std::vector<FilteringRule> rules;

  // Policy ground truth: the action the *current* rules prescribe for a
  // given application flow (highest priority wins; default deny).
  FilterAction decide(std::uint32_t app_ip, std::uint8_t proto,
                      std::uint16_t port) const;
};

// The two-rule example from §5.2: deny all (prio 10), allow UDP 81 (prio 20).
Slice example_camera_slice(std::uint32_t id);

}  // namespace hydra::aether
