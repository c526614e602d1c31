// Violation forensics flight recorder.
//
// The trace facility (obs/trace.hpp) answers "what happened to the packet I
// chose to watch"; this module answers the inverse question the paper's
// §5.2 diagnosis actually needs: "a checker just rejected or reported a
// packet nobody was watching — why?". It is split the same way production
// dataplane telemetry systems are:
//
//   * always-on CHEAP recording — a capacity-bounded, allocation-free
//     per-switch ring buffer of compact HopRecords. Every per-hop checker
//     execution writes one fixed-size record (flow identity, matched table
//     entry indices, register read/write deltas, decoded telemetry values
//     after the hop's blocks ran). Once the rings are built no recording
//     path allocates: records hold small inline arrays, and a full ring
//     overwrites its oldest slot.
//   * on-demand DEEP reconstruction — when a checker rejects or reports,
//     net::Network joins the rings on the packet id and assembles a
//     ViolationReport: the full path with per-hop telemetry evolution,
//     provenance, and the forwarding verdicts that produced the outcome.
//
// Like obs/trace.hpp this header is a pure data model: it knows nothing of
// packets, IR, or the simulator. Numeric ids (table/register/field indices)
// are resolved to names by the layer that owns the checker IR.
//
// A ring belongs to one switch and is written in event order, so its
// contents — and the reports assembled from it — are deterministic for a
// fixed seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace hydra::obs {

// One checker's execution at one hop, fixed-size so ring slots never
// allocate. Overflowing an inline array drops the extra items and sets the
// matching `truncated` bit — forensics degrades, it never costs the hot
// path an allocation.
struct HopRecord {
  static constexpr int kMaxTableHits = 8;
  static constexpr int kMaxRegTouches = 8;
  static constexpr int kMaxTele = 16;
  // `truncated` bits:
  static constexpr std::uint8_t kTruncTableHits = 1;
  static constexpr std::uint8_t kTruncRegTouches = 2;
  static constexpr std::uint8_t kTruncTele = 4;

  struct TableHit {
    std::int16_t table = -1;  // checker IR table index
    std::int32_t entry = -1;  // matched entry index, -1 = miss or default
    bool hit = false;
  };
  struct RegTouch {
    std::int16_t reg = -1;  // checker IR register index
    bool wrote = false;
    std::uint64_t before = 0;
    std::uint64_t after = 0;
  };
  struct TeleVal {
    std::int16_t field = -1;  // checker IR field id (kTele space)
    std::uint64_t value = 0;  // after the hop's blocks ran
  };

  std::uint64_t packet_id = 0;
  int hop = 0;  // 1-based position in the packet's journey
  int switch_id = -1;
  int deployment = -1;
  double time = 0.0;
  int in_port = -1;
  int eg_port = -1;
  bool first_hop = false;
  bool last_hop = false;
  bool fwd_drop = false;
  bool reject = false;
  bool ran_init = false;
  bool ran_tele = false;
  bool ran_check = false;
  std::uint8_t report_count = 0;  // reports raised by this checker this hop
  // Forwarding drop provenance: a static string literal supplied by the
  // forwarding program (net::ForwardingProgram::Decision::reason), or null.
  const char* fwd_reason = nullptr;
  // Fault-injection annotation: a static string literal naming why this
  // hop's checker execution was affected by an injected fault (e.g.
  // "tele_bad_tag" for a fail-closed decode reject, "cold_suppressed"
  // after a switch restart), or null when no fault touched this hop.
  const char* fault_note = nullptr;

  std::uint8_t truncated = 0;
  std::uint8_t n_table_hits = 0;
  std::uint8_t n_reg_touches = 0;
  std::uint8_t n_tele = 0;
  TableHit table_hits[kMaxTableHits];
  RegTouch reg_touches[kMaxRegTouches];
  TeleVal tele[kMaxTele];

  void reset();
  void add_table_hit(std::int16_t table, std::int32_t entry, bool hit);
  void add_reg_touch(std::int16_t reg, bool wrote, std::uint64_t before,
                     std::uint64_t after);
  void add_tele(std::int16_t field, std::uint64_t value);
  void add_reports(std::size_t n);  // saturates report_count at 255
};

// Counts the allocation charges the forensics subsystem performs (one per
// ring at recorder construction, one per assembled ViolationReport). The
// zero-overhead-when-disabled tests assert this stays flat across a run
// with forensics off.
std::uint64_t forensics_allocations();

namespace detail {
// Called by the assembly layer (net::Network) when it materializes a
// ViolationReport, so the allocation audit covers reconstruction too.
void note_forensics_allocation(std::uint64_t n = 1);
}  // namespace detail

class FlightRecorder {
 public:
  // One ring per switch id in [0, switches), each `capacity` slots,
  // fully allocated up front.
  FlightRecorder(int switches, std::size_t capacity);

  std::size_t capacity() const { return capacity_; }
  // Total records ever appended across all rings (sums per-ring totals).
  std::uint64_t recorded() const;

  // Stores `rec` in the next slot of switch `sw`'s ring (overwriting the
  // oldest when full) with one copy and returns the slot, for the caller's
  // per-hop fields. Never allocates.
  HopRecord& append(int sw, const HopRecord& rec);

  // Every retained record for `packet_id`, in unspecified ring order —
  // callers sort by (hop, deployment). Pointers are valid until the next
  // append to the owning ring.
  void collect(std::uint64_t packet_id,
               std::vector<const HopRecord*>& out) const;

  void clear();  // empties every ring, keeps the storage

 private:
  struct Ring {
    std::vector<HopRecord> slots;
    std::size_t next = 0;   // slot the next append overwrites
    std::size_t count = 0;  // valid slots, <= capacity
    std::uint64_t total = 0;
  };
  std::vector<Ring> rings_;
  std::size_t capacity_ = 0;
};

// ---- assembled forensics (string-resolved, built on demand) ---------------

struct ViolationHopChecker {
  std::string checker;
  bool ran_init = false;
  bool ran_tele = false;
  bool ran_check = false;
  bool reject = false;
  int report_count = 0;
  bool provenance_truncated = false;
  std::string fault_note;  // empty when no fault touched this hop
  struct TableHit {
    std::string table;
    std::int32_t entry = -1;
    bool hit = false;
  };
  struct RegTouch {
    std::string reg;
    bool wrote = false;
    std::uint64_t before = 0;
    std::uint64_t after = 0;
  };
  struct TeleVal {
    std::string name;
    std::uint64_t value = 0;
  };
  std::vector<TableHit> table_hits;
  std::vector<RegTouch> reg_touches;
  std::vector<TeleVal> tele;  // telemetry values leaving the hop
};

struct ViolationHop {
  int hop = 0;
  int switch_id = -1;
  std::string switch_name;
  double time = 0.0;
  int in_port = -1;
  int eg_port = -1;
  bool first_hop = false;
  bool last_hop = false;
  bool fwd_drop = false;
  std::string fwd_reason;  // empty when forwarding gave none
  std::vector<ViolationHopChecker> checkers;
};

struct ViolationReport {
  std::uint64_t packet_id = 0;
  std::string flow;
  std::string kind;  // "reject" or "report"
  // Why the verdict landed: "checker_reject" / "checker_report" for
  // genuine checker verdicts, or a fail-closed decode reason such as
  // "tele_bad_tag" / "tele_size_mismatch" when the telemetry frame was
  // damaged in flight and rejected without running the checker.
  std::string reason;
  std::vector<std::string> checkers;  // checkers that rejected/reported
  int switch_id = -1;                 // where the verdict landed
  std::string switch_name;
  double time = 0.0;
  int hop_count = 0;
  std::vector<std::vector<std::uint64_t>> report_payloads;
  // True when the rings had already evicted the packet's earliest hops;
  // `hops` then starts mid-journey.
  bool truncated = false;
  std::vector<ViolationHop> hops;
};

// Deterministic JSON: one object per report, stable key order, sim times
// only (no wall clock).
std::string violation_json(const ViolationReport& report);
std::string violations_json(const std::vector<ViolationReport>& reports);

// §5.2-style human-readable story of one violation.
std::string violation_narrative(const ViolationReport& report);

}  // namespace hydra::obs
