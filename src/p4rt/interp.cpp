#include "p4rt/interp.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace hydra::p4rt {

using indus::BinOp;
using indus::UnOp;

CheckerState make_checker_state(const ir::CheckerIR& ir) {
  CheckerState state;
  for (const auto& t : ir.tables) {
    std::vector<MatchFieldSpec> spec;
    for (int w : t.key_widths) {
      // Generated dict/set tables use ternary keys so the control plane can
      // install exact or wildcarded entries with priorities.
      spec.push_back({MatchKind::kTernary, w});
    }
    Table table(t.name, std::move(spec));
    if (t.config_scalar) {
      std::vector<BitVec> zeros;
      for (int w : t.value_widths) zeros.emplace_back(w, 0);
      table.set_default(std::move(zeros));
    }
    state.tables.push_back(std::move(table));
  }
  for (const auto& r : ir.registers) {
    state.registers.emplace_back(r.name, r.width, 1, r.initial);
  }
  return state;
}

std::vector<ir::FieldId> header_fields(const ir::CheckerIR& ir) {
  std::vector<ir::FieldId> out;
  for (std::size_t i = 0; i < ir.fields.size(); ++i) {
    if (ir.fields[i].space == ir::Space::kHeader) {
      out.push_back(ir::FieldId{static_cast<int>(i)});
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Lowering: IR blocks -> ops
// ---------------------------------------------------------------------------

class Interp::Lowerer {
 public:
  explicit Lowerer(Interp& vm)
      : vm_(vm),
        ir_(vm.ir_),
        slots_(static_cast<std::uint32_t>(ir_.fields.size())) {
    int header = 0;
    for (const auto& f : ir_.fields) {
      header_index_.push_back(f.space == ir::Space::kHeader ? header++ : -1);
    }
  }

  // Lowers one block, terminated by kHalt; returns its first op.
  std::uint32_t block(const std::vector<ir::InstrPtr>& body) {
    const auto entry = static_cast<std::uint32_t>(vm_.code_.size());
    for (const auto& in : body) instr(*in);
    emit(Code::kHalt);
    return entry;
  }

  // Sizes the slot file and writes the constants into their slots.
  void finish() {
    vm_.slots_.assign(slots_, 0);
    for (const auto& [value, slot] : consts_) vm_.slots_[slot] = value;
  }

 private:
  struct Operand {
    std::uint32_t slot = 0;
    int width = 1;
  };
  // Forward jumps waiting for their target.
  struct Label {
    std::vector<std::size_t> jumps;
  };

  static std::uint64_t mask(int width) { return BitVec::mask(width); }

  std::size_t emit(Code code, std::uint32_t dst = 0, std::uint32_t a = 0,
                   std::uint32_t b = 0, std::uint64_t m = 0) {
    Op op;
    op.code = code;
    op.instrs = pending_;
    op.dst = dst;
    op.a = a;
    op.b = b;
    op.mask = m;
    pending_ = 0;
    vm_.code_.push_back(op);
    return vm_.code_.size() - 1;
  }

  void jump(Code code, std::uint32_t cond, Label& to) {
    to.jumps.push_back(emit(code, 0, cond));
  }

  void bind(Label& label) {
    // An instruction that emitted no op (an `if (true)` with an empty
    // body) must not hand its count to whatever follows the join point.
    if (pending_ != 0) emit(Code::kNop);
    const auto here = static_cast<std::uint32_t>(vm_.code_.size());
    for (std::size_t j : label.jumps) vm_.code_[j].dst = here;
  }

  // A fresh slot after the fields. Widths live in the ops' masks, not in
  // the slot file.
  std::uint32_t temp() { return slots_++; }

  std::uint32_t constant(std::uint64_t value) {
    const auto it = consts_.find(value);
    if (it != consts_.end()) return it->second;
    const std::uint32_t slot = temp();
    consts_.emplace(value, slot);
    return slot;
  }

  std::uint32_t slot(ir::FieldId f) const {
    return static_cast<std::uint32_t>(f.id);
  }
  int width(ir::FieldId f) const { return ir_.field(f).width; }

  static bool is_logic(const ir::RValue& rv) {
    return rv.kind == ir::RKind::kBinary &&
           (rv.binop == BinOp::kAnd || rv.binop == BinOp::kOr);
  }

  static Code binary_code(BinOp op) {
    switch (op) {
      case BinOp::kAdd: return Code::kAdd;
      case BinOp::kSub: return Code::kSub;
      case BinOp::kMul: return Code::kMul;
      case BinOp::kDiv: return Code::kDiv;
      case BinOp::kMod: return Code::kMod;
      case BinOp::kBitAnd: return Code::kBitAnd;
      case BinOp::kBitOr: return Code::kBitOr;
      case BinOp::kBitXor: return Code::kBitXor;
      case BinOp::kShl: return Code::kShl;
      case BinOp::kShr: return Code::kShr;
      case BinOp::kEq: return Code::kEq;
      case BinOp::kNe: return Code::kNe;
      case BinOp::kLt: return Code::kLt;
      case BinOp::kLe: return Code::kLe;
      case BinOp::kGt: return Code::kGt;
      case BinOp::kGe: return Code::kGe;
      case BinOp::kAnd:
      case BinOp::kOr:
        break;  // jumps, see logic()
    }
    throw std::logic_error("no op for a logical operator");
  }

  // BitVec's result-width rule for a binary operator.
  static int binary_width(BinOp op, int a, int b) {
    switch (op) {
      case BinOp::kShl:
      case BinOp::kShr:
        return a;
      case BinOp::kEq: case BinOp::kNe: case BinOp::kLt:
      case BinOp::kLe: case BinOp::kGt: case BinOp::kGe:
      case BinOp::kAnd: case BinOp::kOr:
        return 1;
      default:
        return std::max(a, b);
    }
  }

  // Writes `code`'s result of `width` bits into `dst` (a fresh temporary
  // when dst < 0), truncated to `dst_width`.
  Operand put(Code code, Operand a, Operand b, int width, std::int64_t dst,
              int dst_width) {
    if (dst < 0) {
      dst = temp();
      dst_width = width;
    }
    const int w = std::min(width, dst_width);
    emit(code, static_cast<std::uint32_t>(dst), a.slot, b.slot, mask(w));
    return {static_cast<std::uint32_t>(dst), w};
  }

  // Emits ops computing `rv`. With dst >= 0 the value lands in slot `dst`
  // truncated to `dst_width`; otherwise leaves read their own slot and
  // operators write a fresh temporary. Returns where the value is.
  Operand value(const ir::RValue& rv, std::int64_t dst = -1,
                int dst_width = 64) {
    switch (rv.kind) {
      case ir::RKind::kConst:
        return leaf({constant(rv.cval.value()), rv.cval.width()}, dst,
                    dst_width);
      case ir::RKind::kField: {
        const Operand f{slot(rv.field), width(rv.field)};
        const int h = header_index_[static_cast<std::size_t>(rv.field.id)];
        if (h < 0) return leaf(f, dst, dst_width);
        // A header read lands in the header field's own slot, or straight
        // in the destination.
        const Operand header{static_cast<std::uint32_t>(h), 0};
        return dst < 0 ? put(Code::kHdr, header, {}, f.width, f.slot, f.width)
                       : put(Code::kHdr, header, {}, f.width, dst, dst_width);
      }
      case ir::RKind::kUnary: {
        const Operand a = value(*rv.args[0]);
        switch (rv.unop) {
          case UnOp::kNot: return put(Code::kNot, a, a, 1, dst, dst_width);
          case UnOp::kBitNot:
            return put(Code::kBitNot, a, a, a.width, dst, dst_width);
          case UnOp::kNeg:
            return put(Code::kNeg, a, a, a.width, dst, dst_width);
        }
        break;
      }
      case ir::RKind::kBinary: {
        if (is_logic(rv)) return leaf(logic(rv), dst, dst_width);
        const Operand a = value(*rv.args[0]);
        const Operand b = value(*rv.args[1]);
        return put(binary_code(rv.binop), a, b,
                   binary_width(rv.binop, a.width, b.width), dst, dst_width);
      }
      case ir::RKind::kAbsDiff: {
        const Operand a = value(*rv.args[0]);
        const Operand b = value(*rv.args[1]);
        return put(Code::kAbsDiff, a, b, std::max(a.width, b.width), dst,
                   dst_width);
      }
    }
    throw std::logic_error("unreachable rvalue kind");
  }

  Operand leaf(Operand src, std::int64_t dst, int dst_width) {
    if (dst < 0) return src;
    emit(Code::kMov, static_cast<std::uint32_t>(dst), src.slot, 0,
         mask(dst_width));
    return {static_cast<std::uint32_t>(dst), dst_width};
  }

  // `a && b` / `a || b` as a 1-bit value: the right operand runs only
  // when the left one does not decide.
  Operand logic(const ir::RValue& rv) {
    const std::uint32_t t = temp();
    emit(Code::kBool, t, value(*rv.args[0]).slot);
    Label done;
    jump(rv.binop == BinOp::kAnd ? Code::kJz : Code::kJnz, t, done);
    emit(Code::kBool, t, value(*rv.args[1]).slot);
    bind(done);
    return {t, 1};
  }

  // Jumps to `to` when the truth of `rv` equals `when`; falls through
  // otherwise.
  void branch(const ir::RValue& rv, bool when, Label& to) {
    if (rv.kind == ir::RKind::kConst) {
      if (rv.cval.as_bool() == when) jump(Code::kJmp, 0, to);
      return;
    }
    if (rv.kind == ir::RKind::kUnary && rv.unop == UnOp::kNot) {
      branch(*rv.args[0], !when, to);
      return;
    }
    if (is_logic(rv)) {
      const bool conj = rv.binop == BinOp::kAnd;
      if (when != conj) {
        // `&&` jumping on false, `||` jumping on true: either side decides.
        branch(*rv.args[0], when, to);
        branch(*rv.args[1], when, to);
      } else {
        Label skip;
        branch(*rv.args[0], !when, skip);
        branch(*rv.args[1], when, to);
        bind(skip);
      }
      return;
    }
    jump(when ? Code::kJnz : Code::kJz, value(rv).slot, to);
  }

  void instr(const ir::Instr& in) {
    ++pending_;  // taken by the first op this instruction emits
    switch (in.kind) {
      case ir::InstrKind::kAssign:
        value(*in.value, slot(in.dst), width(in.dst));
        return;
      case ir::InstrKind::kTableLookup: {
        const ir::Table& spec =
            ir_.tables[static_cast<std::size_t>(in.table)];
        TableOp t;
        t.table = in.table;
        t.config = spec.config_scalar;
        if (!t.config) {
          for (std::size_t k = 0; k < in.keys.size(); ++k) {
            t.keys.push_back(value(*in.keys[k]).slot);
            t.key_masks.push_back(mask(spec.key_widths[k]));
          }
        }
        for (ir::FieldId d : in.dsts) {
          t.dsts.push_back(slot(d));
          t.dst_masks.push_back(mask(width(d)));
        }
        if (in.hit_dst.valid()) t.hit = slot(in.hit_dst);
        vm_.tables_.push_back(std::move(t));
        emit(Code::kTable, 0,
             static_cast<std::uint32_t>(vm_.tables_.size() - 1));
        return;
      }
      case ir::InstrKind::kRegRead:
        emit(Code::kRegRead, slot(in.dst), static_cast<std::uint32_t>(in.reg),
             0, mask(width(in.dst)));
        return;
      case ir::InstrKind::kRegWrite: {
        const Operand v = value(*in.value);
        emit(Code::kRegWrite, 0, v.slot, static_cast<std::uint32_t>(in.reg));
        return;
      }
      case ir::InstrKind::kPush: {
        const ir::TeleList& l = ir_.lists[static_cast<std::size_t>(in.list)];
        PushOp p;
        p.count = slot(l.count);
        p.count_mask = mask(width(l.count));
        p.elem_mask = mask(l.elem_width);
        for (ir::FieldId s : l.slots) p.elems.push_back(slot(s));
        // The value is pure, so evaluating it before the capacity check
        // (which may then drop it) is unobservable.
        const Operand v = value(*in.push_value);
        vm_.pushes_.push_back(std::move(p));
        emit(Code::kPush, 0, v.slot,
             static_cast<std::uint32_t>(vm_.pushes_.size() - 1));
        return;
      }
      case ir::InstrKind::kIf: {
        Label orelse;
        branch(*in.cond, false, orelse);
        for (const auto& c : in.then_body) instr(*c);
        if (in.else_body.empty()) {
          bind(orelse);
          return;
        }
        Label done;
        jump(Code::kJmp, 0, done);
        bind(orelse);
        for (const auto& c : in.else_body) instr(*c);
        bind(done);
        return;
      }
      case ir::InstrKind::kReject:
        emit(Code::kReject);
        return;
      case ir::InstrKind::kReport: {
        const auto first = static_cast<std::uint32_t>(vm_.report_args_.size());
        for (const auto& p : in.report_payload) {
          const Operand v = value(*p);
          vm_.report_args_.push_back({v.slot, v.width});
        }
        emit(Code::kReport, 0, first,
             static_cast<std::uint32_t>(in.report_payload.size()));
        return;
      }
    }
  }

  Interp& vm_;
  const ir::CheckerIR& ir_;
  std::uint32_t slots_;            // slot file size so far
  std::vector<int> header_index_;  // by field; -1 unless kHeader
  std::map<std::uint64_t, std::uint32_t> consts_;  // value -> slot
  std::uint8_t pending_ = 0;  // IR instructions awaiting their first op
};

Interp::Interp(const ir::CheckerIR& ir) : ir_(ir) {
  Lowerer lower(*this);
  entry_[static_cast<std::size_t>(Block::kInit)] = lower.block(ir.init_block);
  entry_[static_cast<std::size_t>(Block::kTele)] = lower.block(ir.tele_block);
  entry_[static_cast<std::size_t>(Block::kCheck)] =
      lower.block(ir.check_block);
  lower.finish();
  for (std::size_t i = 0; i < ir.fields.size(); ++i) {
    if (ir.fields[i].space == ir::Space::kTele) {
      tele_.push_back({static_cast<std::uint32_t>(i), ir.fields[i].width});
    }
  }
}

// ---------------------------------------------------------------------------
// Frames and field access
// ---------------------------------------------------------------------------

void Interp::load(const TeleFrame& frame) {
  if (frame.words.size() != tele_.size()) {
    throw std::invalid_argument("telemetry frame size mismatch for '" +
                                ir_.name + "'");
  }
  for (std::size_t i = 0; i < tele_.size(); ++i) {
    slots_[tele_[i].slot] = frame.words[i] & BitVec::mask(tele_[i].width);
  }
}

void Interp::store(TeleFrame& frame) const {
  frame.words.resize(tele_.size());
  for (std::size_t i = 0; i < tele_.size(); ++i) {
    frame.words[i] = slots_[tele_[i].slot];
  }
}

BitVec Interp::value(ir::FieldId f) const {
  return BitVec(ir_.field(f).width, slots_[static_cast<std::size_t>(f.id)]);
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

void Interp::table_op(const TableOp& t, CheckerState& state) {
  metrics_.table_lookups.inc();
  const Table& table = state.tables[static_cast<std::size_t>(t.table)];
  std::span<const std::uint64_t> data;
  bool hit = true;
  std::int32_t row = -1;  // config tables answer from their defaults
  if (t.config) {
    data = table.default_words();
  } else {
    key_words_.clear();
    for (std::size_t k = 0; k < t.keys.size(); ++k) {
      key_words_.push_back(slots_[t.keys[k]] & t.key_masks[k]);
    }
    row = table.lookup(std::span<const std::uint64_t>(key_words_));
    hit = row >= 0;
    if (hit) data = table.action_data(row);
  }
  if (prov_ != nullptr) {
    prov_->add_table_hit(static_cast<std::int16_t>(t.table), row, hit);
  }
  for (std::size_t d = 0; d < t.dsts.size(); ++d) {
    slots_[t.dsts[d]] = d < data.size() ? data[d] & t.dst_masks[d] : 0;
  }
  if (t.hit >= 0) slots_[static_cast<std::size_t>(t.hit)] = hit ? 1 : 0;
}

void Interp::reg_write_op(const Op& op, CheckerState& state) {
  metrics_.reg_writes.inc();
  RegisterArray& ra = state.registers[op.b];
  const std::uint64_t v = slots_[op.a];
  if (prov_ != nullptr) {
    prov_->add_reg_touch(static_cast<std::int16_t>(op.b), /*wrote=*/true,
                         ra.read(0).value(), v);
  }
  ra.write(0, BitVec(BitVec::kMaxWidth, v));
}

void Interp::report_op(const Op& op, ExecOutcome& out) const {
  std::vector<BitVec> payload;
  payload.reserve(op.b);
  for (std::uint32_t i = 0; i < op.b; ++i) {
    const SlotRef& arg = report_args_[op.a + i];
    payload.emplace_back(arg.width, slots_[arg.slot]);
  }
  out.reports.push_back(std::move(payload));
}

void Interp::run(Block block, CheckerState& state, const HeaderSource& hdr,
                 ExecOutcome& out) {
  std::uint64_t* s = slots_.data();
  if (block == Block::kInit) {
    for (const SlotRef& t : tele_) s[t.slot] = 0;
  }
  const Op* code = code_.data();
  std::uint64_t executed = 0;
  for (std::uint32_t pc = entry_[static_cast<std::size_t>(block)];;) {
    const Op& op = code[pc++];
    executed += op.instrs;
    switch (op.code) {
      case Code::kMov: s[op.dst] = s[op.a] & op.mask; break;
      case Code::kHdr:
        s[op.dst] = hdr.read(static_cast<int>(op.a)) & op.mask;
        break;
      case Code::kAdd: s[op.dst] = (s[op.a] + s[op.b]) & op.mask; break;
      case Code::kSub: s[op.dst] = (s[op.a] - s[op.b]) & op.mask; break;
      case Code::kMul: s[op.dst] = (s[op.a] * s[op.b]) & op.mask; break;
      // Division by zero yields all-ones, modulo zero yields zero (BitVec).
      case Code::kDiv:
        s[op.dst] = s[op.b] == 0 ? op.mask : (s[op.a] / s[op.b]) & op.mask;
        break;
      case Code::kMod:
        s[op.dst] = s[op.b] == 0 ? 0 : (s[op.a] % s[op.b]) & op.mask;
        break;
      case Code::kBitAnd: s[op.dst] = s[op.a] & s[op.b] & op.mask; break;
      case Code::kBitOr: s[op.dst] = (s[op.a] | s[op.b]) & op.mask; break;
      case Code::kBitXor: s[op.dst] = (s[op.a] ^ s[op.b]) & op.mask; break;
      case Code::kShl:
        s[op.dst] = s[op.b] >= 64 ? 0 : (s[op.a] << s[op.b]) & op.mask;
        break;
      case Code::kShr:
        s[op.dst] = s[op.b] >= 64 ? 0 : (s[op.a] >> s[op.b]) & op.mask;
        break;
      case Code::kAbsDiff: {
        const std::uint64_t a = s[op.a];
        const std::uint64_t b = s[op.b];
        s[op.dst] = (a >= b ? a - b : b - a) & op.mask;
        break;
      }
      case Code::kEq: s[op.dst] = s[op.a] == s[op.b] ? 1 : 0; break;
      case Code::kNe: s[op.dst] = s[op.a] != s[op.b] ? 1 : 0; break;
      case Code::kLt: s[op.dst] = s[op.a] < s[op.b] ? 1 : 0; break;
      case Code::kLe: s[op.dst] = s[op.a] <= s[op.b] ? 1 : 0; break;
      case Code::kGt: s[op.dst] = s[op.a] > s[op.b] ? 1 : 0; break;
      case Code::kGe: s[op.dst] = s[op.a] >= s[op.b] ? 1 : 0; break;
      case Code::kNot: s[op.dst] = s[op.a] == 0 ? 1 : 0; break;
      case Code::kBool: s[op.dst] = s[op.a] != 0 ? 1 : 0; break;
      case Code::kBitNot: s[op.dst] = ~s[op.a] & op.mask; break;
      case Code::kNeg: s[op.dst] = (0 - s[op.a]) & op.mask; break;
      case Code::kJmp: pc = op.dst; break;
      case Code::kJz: if (s[op.a] == 0) pc = op.dst; break;
      case Code::kJnz: if (s[op.a] != 0) pc = op.dst; break;
      case Code::kTable: table_op(tables_[op.a], state); break;
      case Code::kRegRead: {
        metrics_.reg_reads.inc();
        const std::uint64_t v = state.registers[op.a].read(0).value();
        if (prov_ != nullptr) {
          prov_->add_reg_touch(static_cast<std::int16_t>(op.a),
                               /*wrote=*/false, v, v);
        }
        s[op.dst] = v & op.mask;
        break;
      }
      case Code::kRegWrite: reg_write_op(op, state); break;
      case Code::kPush: {
        // Saturating push: a full stack drops further telemetry, matching
        // the generated P4's bounded header stack.
        const PushOp& p = pushes_[op.b];
        const std::uint64_t cnt = s[p.count];
        if (cnt < p.elems.size()) {
          s[p.elems[cnt]] = s[op.a] & p.elem_mask;
          s[p.count] = (cnt + 1) & p.count_mask;
        }
        break;
      }
      case Code::kReject: out.reject = true; break;
      case Code::kReport: report_op(op, out); break;
      case Code::kNop: break;
      case Code::kHalt:
        metrics_.instructions.inc(executed);
        return;
    }
  }
}

}  // namespace hydra::p4rt
