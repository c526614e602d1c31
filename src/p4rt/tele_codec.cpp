#include "p4rt/tele_codec.hpp"

#include <stdexcept>

namespace hydra::p4rt {

namespace {

// Writes `width` bits of `value` at bit offset `off` (MSB-first within the
// payload, network order), after the preamble.
void put_bits(std::vector<std::uint8_t>& buf, int off, int width,
              std::uint64_t value) {
  for (int i = 0; i < width; ++i) {
    const int bit = off + i;
    const std::size_t byte =
        static_cast<std::size_t>(compiler::TelemetryLayout::kPreambleBytes) +
        static_cast<std::size_t>(bit / 8);
    const int shift = 7 - bit % 8;
    const std::uint64_t v = (value >> (width - 1 - i)) & 1;
    if (v != 0) {
      buf[byte] = static_cast<std::uint8_t>(buf[byte] | (1u << shift));
    }
  }
}

std::uint64_t get_bits(const std::vector<std::uint8_t>& buf, int off,
                       int width) {
  std::uint64_t value = 0;
  for (int i = 0; i < width; ++i) {
    const int bit = off + i;
    const std::size_t byte =
        static_cast<std::size_t>(compiler::TelemetryLayout::kPreambleBytes) +
        static_cast<std::size_t>(bit / 8);
    const int shift = 7 - bit % 8;
    value = (value << 1) | ((buf[byte] >> shift) & 1u);
  }
  return value;
}

}  // namespace

std::vector<std::uint8_t> serialize_frame(
    const compiler::TelemetryLayout& layout, const TeleFrame& frame) {
  if (frame.words.size() != layout.entries.size()) {
    throw std::invalid_argument("frame does not match telemetry layout");
  }
  std::vector<std::uint8_t> buf(
      static_cast<std::size_t>(layout.wire_bytes), 0);
  buf[0] = static_cast<std::uint8_t>(
      compiler::TelemetryLayout::kHydraEtherType >> 8);
  buf[1] = static_cast<std::uint8_t>(
      compiler::TelemetryLayout::kHydraEtherType & 0xff);
  for (std::size_t i = 0; i < layout.entries.size(); ++i) {
    const compiler::LayoutEntry& e = layout.entries[i];
    put_bits(buf, e.offset_bits, e.width, frame.words[i]);
  }
  return buf;
}

const char* frame_error_reason(FrameError err) {
  switch (err) {
    case FrameError::kOk: return "ok";
    case FrameError::kSizeMismatch: return "tele_size_mismatch";
    case FrameError::kBadTag: return "tele_bad_tag";
  }
  return "tele_unknown_error";
}

FrameError parse_frame_checked(const compiler::TelemetryLayout& layout,
                               int checker_id,
                               const std::vector<std::uint8_t>& bytes,
                               TeleFrame& out) {
  if (bytes.size() != static_cast<std::size_t>(layout.wire_bytes)) {
    return FrameError::kSizeMismatch;
  }
  // The preamble needs two bytes; wire_bytes >= kPreambleBytes by
  // construction, but a hand-built layout could lie — stay defensive.
  if (bytes.size() < compiler::TelemetryLayout::kPreambleBytes) {
    return FrameError::kSizeMismatch;
  }
  const int tag = (bytes[0] << 8) | bytes[1];
  if (tag != compiler::TelemetryLayout::kHydraEtherType) {
    return FrameError::kBadTag;
  }
  out.checker = checker_id;
  out.words.resize(layout.entries.size());
  for (std::size_t i = 0; i < layout.entries.size(); ++i) {
    const compiler::LayoutEntry& e = layout.entries[i];
    out.words[i] = get_bits(bytes, e.offset_bits, e.width);
  }
  return FrameError::kOk;
}

}  // namespace hydra::p4rt
