// Byte-exact telemetry serialization. The simulator normally carries a
// telemetry frame as one word per tele field; this codec implements the
// actual parser/deparser the compiler generates — packing every tele field
// at its layout offset into wire bytes (plus the 2-byte Hydra EtherType
// tag) and parsing it back. Used by the wire tests, which round-trip the
// frames real runs write to prove the layout is lossless, and by the
// fault-injection subsystem, which damages real wire bytes and re-parses
// them at the next hop.
//
// Malformed input is an expected runtime condition, not a programming
// error: a flaky link can truncate or corrupt any frame. The checked entry
// point (parse_frame_checked) therefore NEVER throws — it returns a
// FrameError that callers turn into a counted, fail-closed checker reject.
#pragma once

#include <cstdint>
#include <vector>

#include "compiler/layout.hpp"
#include "p4rt/packet.hpp"

namespace hydra::p4rt {

// Serializes the words of `frame` per `layout` (word i at entry i). The
// result's size is exactly layout.wire_bytes (preamble + padded payload).
// Throws std::invalid_argument when the word count is not the layout's.
std::vector<std::uint8_t> serialize_frame(const compiler::TelemetryLayout& layout,
                                          const TeleFrame& frame);

// Why a frame failed to parse. Kept coarse on purpose: the reasons become
// static forensics annotations, and a dataplane cannot distinguish "lost
// tail bytes" from "never had them".
enum class FrameError {
  kOk = 0,
  kSizeMismatch,  // truncated or padded frame (wrong byte count)
  kBadTag,        // Hydra EtherType preamble missing or clobbered
};

// Static string for forensics/metrics annotation ("tele_size_mismatch",
// "tele_bad_tag", "ok"). Never allocates; safe to store in HopRecords.
const char* frame_error_reason(FrameError err);

// Non-throwing parser: on kOk, `out` holds one word per layout entry and
// its checker is set to `checker_id`; on failure `out` is left untouched.
// Only those two members are written, so `bytes` may be `out.wire`. This
// is the fail-closed decode path the network uses for frames that crossed
// a faulty link.
FrameError parse_frame_checked(const compiler::TelemetryLayout& layout,
                               int checker_id,
                               const std::vector<std::uint8_t>& bytes,
                               TeleFrame& out);

}  // namespace hydra::p4rt
