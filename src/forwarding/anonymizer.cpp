#include "forwarding/anonymizer.hpp"

namespace hydra::fwd {

namespace {

// One keyed pseudo-random bit per (salt, prefix): the classic
// prefix-preserving construction (Crypto-PAn style, with a non-
// cryptographic mixer standing in for AES).
std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

std::uint64_t prefix_bit(std::uint64_t salt, std::uint64_t prefix, int len) {
  return mix(salt ^ (prefix * 0x9e3779b97f4a7c15ULL) ^
             static_cast<std::uint64_t>(len)) &
         1;
}

std::uint64_t anonymize_bits(std::uint64_t value, int width,
                             std::uint64_t salt) {
  std::uint64_t out = 0;
  std::uint64_t prefix = 0;
  for (int i = width - 1; i >= 0; --i) {
    const std::uint64_t bit = (value >> i) & 1;
    // The flip decision depends only on the (width-1-i)-bit prefix, so
    // equal prefixes anonymize equally.
    const std::uint64_t flip = prefix_bit(salt, prefix, width - 1 - i);
    out = (out << 1) | (bit ^ flip);
    prefix = (prefix << 1) | bit;
  }
  return out;
}

}  // namespace

std::uint32_t anonymize_ipv4(std::uint32_t addr, std::uint64_t salt) {
  return static_cast<std::uint32_t>(anonymize_bits(addr, 32, salt));
}

std::uint64_t anonymize_mac(std::uint64_t mac, std::uint64_t salt) {
  return anonymize_bits(mac & 0xffffffffffffULL, 48, salt ^ 0xacULL);
}

AnonymizerProgram::Decision AnonymizerProgram::process(p4rt::Packet& pkt,
                                                       int in_port,
                                                       int switch_id) {
  pkt.eth.src = anonymize_mac(pkt.eth.src, salt_);
  pkt.eth.dst = anonymize_mac(pkt.eth.dst, salt_);
  if (pkt.ipv4) {
    pkt.ipv4->src = anonymize_ipv4(pkt.ipv4->src, salt_);
    pkt.ipv4->dst = anonymize_ipv4(pkt.ipv4->dst, salt_);
  }
  if (pkt.inner_ipv4) {
    pkt.inner_ipv4->src = anonymize_ipv4(pkt.inner_ipv4->src, salt_);
    pkt.inner_ipv4->dst = anonymize_ipv4(pkt.inner_ipv4->dst, salt_);
  }
  // Payloads are discarded before traffic reaches researchers (the wire
  // size keeps a placeholder so rate experiments stay meaningful).
  ++count_;
  return inner_->process(pkt, in_port, switch_id);
}

}  // namespace hydra::fwd
