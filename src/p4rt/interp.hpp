// Checker VM — executes compiled checkers' blocks on a simulated switch.
// This plays the role of the Tofino pipeline running the generated P4: the
// same CheckerIR that the P4 emitter renders is executed here against
// per-switch table/register state.
//
// Lowering (the CheckerIR constructor) turns one checker's blocks, once,
// into a flat array of ops over a uint64_t slot file:
//   * the tele fields take the first slots, in FieldId order (a frame's
//     word order), then the other IR fields; after the fields come one slot
//     per expression temporary and one per distinct constant;
//   * every slot holds its value truncated to a width fixed at lowering
//     time, so an op carries only its result's width mask. Widths follow
//     BitVec's rules: arithmetic, bitwise ops and abs-diff take the wider
//     operand; shifts, `~` and unary `-` keep the left operand's width;
//     comparisons, `!`, `&&` and `||` give 1 bit;
//   * `if`, `&&` and `||` become forward jumps (the IR is loop-free), and
//     a branch on a comparison is one compare-and-jump op;
//   * a header field read is an op that asks a HeaderSource for the
//     field's header index; a field a block reads more than once is read
//     once, at the block's top (a hop's headers stay put while it runs);
//   * kInit first zeroes the tele list elements (a fresh frame), and
//     kTeleCheck is the tele block lowered once more with the check block
//     after it.
//
// Linking (the parts constructor) joins lowered checkers into one program
// over one slot file, as Hydra's compiler links every checker into the
// switch's one pipeline. Segment i is part i's ops, block by block, with
// its slot, table, push, report-argument and header indices moved past
// those of the parts before it; nothing is lowered again. A run executes
// one block of every segment in a mask, in segment order, each against the
// CheckerState bound to it and into its own outcome, metrics and
// provenance record. A lowered checker is the one-segment program.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "ir/ir.hpp"
#include "obs/forensics.hpp"
#include "p4rt/packet.hpp"
#include "p4rt/register.hpp"
#include "p4rt/table.hpp"

namespace hydra::p4rt {

// Per-switch, per-checker mutable state: one table per control variable
// (populated by the control plane) and one register per sensor.
struct CheckerState {
  std::vector<Table> tables;
  std::vector<RegisterArray> registers;
};

CheckerState make_checker_state(const ir::CheckerIR& ir);

// Supplies header-variable values to a running checker. Header index i is
// the i-th kHeader field of the checker's IR in FieldId order (see
// header_fields); the VM truncates the value to the field's width.
class HeaderSource {
 public:
  virtual std::uint64_t read(int header) const = 0;

 protected:
  ~HeaderSource() = default;
};

// The kHeader fields of `ir`, in header-index order.
std::vector<ir::FieldId> header_fields(const ir::CheckerIR& ir);

struct ExecOutcome {
  bool reject = false;
  std::vector<std::vector<BitVec>> reports;
};

// Hot-path execution counters. Detached (free) by default; one branch per
// event when detached, a direct pointer bump when attached.
struct InterpMetrics {
  obs::Counter instructions;   // IR instructions executed (incl. if-bodies)
  obs::Counter table_lookups;  // kTableLookup instructions
  obs::Counter reg_reads;
  obs::Counter reg_writes;
};

// kTeleCheck is the tele block followed by the check block, in one run.
enum class Block { kInit, kTele, kCheck, kTeleCheck };

class Interp {
 public:
  Interp() = default;  // the empty program: no segments
  explicit Interp(const ir::CheckerIR& ir);
  // Links `parts`, lowered checkers in segment order (null leaves its
  // segment empty), into one program; bit i of `every_hop` links part i's
  // kTeleCheck as its kTele, for a check placed at every hop. Each part's
  // metrics and provenance record come along; the parts may go afterwards.
  Interp(std::span<const Interp* const> parts, std::uint64_t every_hop);

  // Runs one block of a lowered checker on a frame's `words`, one per tele
  // field in FieldId order (the layout's entry order) within the field's
  // width. kInit sizes the words to this checker's tele fields and zeroes
  // them; any other block throws std::invalid_argument naming the checker
  // on another word count. Reject and reports accumulate into `out`; other
  // slots keep their values.
  void run(Block block, std::vector<std::uint64_t>& words,
           CheckerState& state, const HeaderSource& hdr, ExecOutcome& out);

  // Runs `block` of every segment whose bit is set in `mask`, in segment
  // order, against what is bound to it. Each one's outcome() starts empty,
  // its bound frame words are copied into its tele slots first (but for
  // kInit, which starts a frame) and back out at its end. `hdr` answers the
  // program's header indices: part i's come after those of the parts
  // before it.
  void run(Block block, std::uint64_t mask, const HeaderSource& hdr);

  // Binds segment `seg`'s next runs to the per-switch `state` and to a
  // frame's `words`. Sizes a `fresh` frame's words to the segment's tele
  // fields (zeroed, in a plain loop: a frame is a few words, too few for a
  // memset call); for any other frame, throws std::invalid_argument naming
  // the checker unless there is one word per tele field.
  void bind(std::size_t seg, CheckerState& state,
            std::vector<std::uint64_t>& words, bool fresh = false) {
    Segment& g = segments_[seg];
    if (words.size() != g.tele) {
      if (!fresh) size_mismatch(g);
      words.clear();
      for (std::uint32_t i = 0; i < g.tele; ++i) words.push_back(0);
    }
    g.state = &state;
    g.frame = words.data();
  }
  // The segments of the last run that rejected or reported.
  std::uint64_t flagged() const { return flagged_; }
  // Segment `seg`'s verdict and reports from its last run.
  ExecOutcome& outcome(std::size_t seg) { return segments_[seg].out; }

  // Current value of a lowered checker's field `f`, at the field's width.
  BitVec value(ir::FieldId f) const;

  // Segment `seg`'s metrics; a lowered checker's (segment 0) are carried
  // into its segment when it is linked.
  void attach_metrics(const InterpMetrics& metrics, std::size_t seg = 0) {
    segments_[seg].metrics = metrics;
  }

  // Arms (non-null) or disarms (null) segment `seg`'s provenance capture
  // for the forensics flight recorder, carried along like the metrics.
  // While armed, every table lookup and register access is added to `rec`
  // by IR index (matched entry, register before/after); the caller owns
  // the record and its reset. Disarmed cost: one branch per
  // lookup/register op.
  void set_provenance(obs::HopRecord* rec, std::size_t seg = 0) {
    segments_[seg].prov = rec;
  }

 private:
  class Lowerer;

  enum class Code : std::uint8_t {
    kMov,     // dst = a
    kHdr,     // dst = header a
    kAdd, kSub, kMul, kDiv, kMod,
    kBitAnd, kBitOr, kBitXor, kShl, kShr, kAbsDiff,
    kEq, kNe, kLt, kLe, kGt, kGe,
    kNot,     // dst = (a == 0)
    kBool,    // dst = (a != 0)
    kBitNot, kNeg,
    kJmp,     // goto dst
    kJz,      // if (a == 0) goto dst
    kJnz,     // if (a != 0) goto dst
    kJeq, kJne, kJlt, kJle, kJgt, kJge,  // if (a OP b) goto dst
    kTable,   // tables_[a]
    kRegRead,   // dst = registers[a]
    kRegWrite,  // registers[b] = a
    kPush,      // pushes_[b].push(a)
    kReject,
    kReport,  // report(report_args_[a .. a+b))
    kNop,
    kHalt,    // end of a segment's block
  };

  // Operands are slot indices; `mask` is the result's width mask.
  struct Op {
    std::uint64_t mask = 0;
    std::uint32_t dst = 0;
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    Code code = Code::kNop;
    // IR instructions that start at this op (0 or 1); summed per block
    // run into InterpMetrics::instructions.
    std::uint8_t instrs = 0;
  };

  struct TableOp {
    int table = -1;
    bool config = false;  // keyless: the default action supplies the data
    std::vector<std::uint32_t> keys;
    std::vector<std::uint64_t> key_masks;  // each key's table width mask
    std::vector<std::uint32_t> dsts;
    std::vector<std::uint64_t> dst_masks;
    std::int64_t hit = -1;  // slot of the hit flag, or -1
  };

  struct PushOp {
    std::uint32_t count = 0;  // fill-counter slot
    std::uint64_t count_mask = 0;
    std::uint64_t elem_mask = 0;
    std::vector<std::uint32_t> elems;  // element slots, capacity many
  };

  // A slot read out at `width` bits (report payloads).
  struct SlotRef {
    std::uint32_t slot = 0;
    int width = 1;
  };

  static constexpr std::size_t kBlocks = 4;  // Block values

  // One checker's place in the program and its current run.
  struct Segment {
    std::array<std::uint32_t, kBlocks> entry{};  // first op of each Block
    std::uint32_t tele_base = 0;  // its tele slots start here
    std::uint32_t tele = 0;       // its tele fields
    const ir::CheckerIR* ir = nullptr;
    CheckerState* state = nullptr;
    std::uint64_t* frame = nullptr;  // bound frame words
    ExecOutcome out;
    InterpMetrics metrics;  // detached unless observability is wired
    obs::HopRecord* prov = nullptr;  // armed only while forensics is on
  };

  void table_op(const TableOp& t, Segment& seg);
  void reg_write_op(const Op& op, Segment& seg);
  void report_op(const Op& op, ExecOutcome& out) const;
  [[noreturn]] static void size_mismatch(const Segment& seg);

  std::vector<Op> code_;
  std::vector<TableOp> tables_;
  std::vector<PushOp> pushes_;
  std::vector<SlotRef> report_args_;
  std::vector<Segment> segments_;
  std::vector<std::uint32_t> field_slot_;  // a lowered checker's, by FieldId
  std::uint32_t headers_ = 0;              // header indices in use
  std::uint64_t flagged_ = 0;              // see flagged()
  std::vector<std::uint64_t> slots_;
  // Key words of the current table lookup, reused across lookups so the
  // per-packet hot path does not allocate.
  std::vector<std::uint64_t> key_words_;
};

}  // namespace hydra::p4rt
