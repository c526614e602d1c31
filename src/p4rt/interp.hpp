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
// One run executes one block of several lowered checkers (parts), as
// Hydra's compiler links every checker into the switch's one pipeline: the
// parts in a mask run in order, and at each halt the loop enters the next
// part's own ops and slot file, against the CheckerState and frame bound to
// it and into its own outcome, metrics and provenance record. Nothing is
// copied or lowered again when the set of parts changes; a checker run
// alone is the one-part case.
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
  // Lowers `ir`'s blocks. With `every_hop`, for a check placed at every
  // hop, kTele runs the kTeleCheck block.
  explicit Interp(const ir::CheckerIR& ir, bool every_hop = false);

  // Runs one block of this checker on a frame's `words`, one per tele
  // field in FieldId order (the layout's entry order) within the field's
  // width. kInit sizes the words to this checker's tele fields and zeroes
  // them; any other block throws std::invalid_argument naming the checker
  // on another word count. Reject and reports accumulate into `out`; other
  // slots keep their values.
  void run(Block block, std::vector<std::uint64_t>& words,
           CheckerState& state, const HeaderSource& hdr, ExecOutcome& out);

  // Runs `block` of every part whose bit is set in `mask`, in bit order,
  // against what is bound to it. Each one's outcome() starts empty, its
  // bound frame words are copied into its tele slots first (but for
  // kInit, which starts a frame) and back out at its end. Returns the
  // parts that rejected or reported.
  static std::uint64_t run(Block block, std::span<Interp* const> parts,
                           std::uint64_t mask, const HeaderSource& hdr);

  // Binds the next runs to the per-switch `state` and to a frame's
  // `words`. Sizes a `fresh` frame's words to this checker's tele fields
  // (zeroed, in a plain loop: a frame is a few words, too few for a memset
  // call); for any other frame, throws std::invalid_argument naming the
  // checker unless there is one word per tele field.
  void bind(CheckerState& state, std::vector<std::uint64_t>& words,
            bool fresh = false) {
    if (words.size() != tele_) {
      if (!fresh) size_mismatch();
      words.clear();
      for (std::uint32_t i = 0; i < tele_; ++i) words.push_back(0);
    }
    state_ = &state;
    frame_ = words.data();
  }
  // The verdict and reports of the last run.
  ExecOutcome& outcome() { return out_; }
  // This checker's header index i reads the HeaderSource's base + i, for
  // a source shared with the parts before it (0 by default).
  void set_header_base(std::uint32_t base) { header_base_ = base; }

  // Current value of field `f`, at the field's width.
  BitVec value(ir::FieldId f) const;

  void attach_metrics(const InterpMetrics& metrics) { metrics_ = metrics; }

  // Arms (non-null) or disarms (null) provenance capture for the forensics
  // flight recorder. While armed, every table lookup and register access
  // is added to `rec` by IR index (matched entry, register before/after);
  // the caller owns the record and its reset. Disarmed cost: one branch
  // per lookup/register op.
  void set_provenance(obs::HopRecord* rec) { prov_ = rec; }

 private:
  class Lowerer;

  enum class Code : std::uint8_t {
    kMov,     // dst = a
    kHdr,     // dst = header (header_base_ + a)
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
    kHalt,    // end of a block
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

  void table_op(const TableOp& t);
  void reg_write_op(const Op& op);
  void report_op(const Op& op);
  [[noreturn]] void size_mismatch() const;

  const ir::CheckerIR* ir_;
  std::vector<Op> code_;
  std::vector<TableOp> tables_;
  std::vector<PushOp> pushes_;
  std::vector<SlotRef> report_args_;
  std::vector<std::uint32_t> field_slot_;  // by FieldId
  std::vector<std::uint64_t> slots_;
  std::array<std::uint32_t, kBlocks> entry_{};  // first op of each Block
  std::uint32_t tele_ = 0;  // tele fields, in slots 0 .. tele_ - 1
  std::uint32_t header_base_ = 0;
  CheckerState* state_ = nullptr;
  std::uint64_t* frame_ = nullptr;  // bound frame words
  ExecOutcome out_;
  InterpMetrics metrics_;  // detached unless observability is wired
  obs::HopRecord* prov_ = nullptr;  // armed only while forensics is on
  // Key words of the current table lookup, reused across lookups so the
  // per-packet hot path does not allocate.
  std::vector<std::uint64_t> key_words_;
};

}  // namespace hydra::p4rt
