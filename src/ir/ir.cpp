#include "ir/ir.hpp"

#include <algorithm>

namespace hydra::ir {

RValuePtr RValue::clone() const {
  auto out = std::make_unique<RValue>();
  out->kind = kind;
  out->cval = cval;
  out->field = field;
  out->unop = unop;
  out->binop = binop;
  out->args.reserve(args.size());
  for (const auto& a : args) out->args.push_back(a->clone());
  return out;
}

int RValue::depth() const {
  int d = 0;
  for (const auto& a : args) d = std::max(d, a->depth());
  return (kind == RKind::kConst || kind == RKind::kField) ? d : d + 1;
}

void RValue::collect_fields(std::vector<FieldId>& out) const {
  if (kind == RKind::kField) out.push_back(field);
  for (const auto& a : args) a->collect_fields(out);
}

RValuePtr rv_const(hydra::BitVec v) {
  auto r = std::make_unique<RValue>();
  r->kind = RKind::kConst;
  r->cval = v;
  return r;
}

RValuePtr rv_bool(bool b) { return rv_const(hydra::BitVec::from_bool(b)); }

RValuePtr rv_field(FieldId f) {
  auto r = std::make_unique<RValue>();
  r->kind = RKind::kField;
  r->field = f;
  return r;
}

RValuePtr rv_unary(indus::UnOp op, RValuePtr a) {
  auto r = std::make_unique<RValue>();
  r->kind = RKind::kUnary;
  r->unop = op;
  r->args.push_back(std::move(a));
  return r;
}

RValuePtr rv_binary(indus::BinOp op, RValuePtr a, RValuePtr b) {
  auto r = std::make_unique<RValue>();
  r->kind = RKind::kBinary;
  r->binop = op;
  r->args.push_back(std::move(a));
  r->args.push_back(std::move(b));
  return r;
}

RValuePtr rv_absdiff(RValuePtr a, RValuePtr b) {
  auto r = std::make_unique<RValue>();
  r->kind = RKind::kAbsDiff;
  r->args.push_back(std::move(a));
  r->args.push_back(std::move(b));
  return r;
}

InstrPtr Instr::clone() const {
  auto out = std::make_unique<Instr>();
  out->kind = kind;
  out->dst = dst;
  if (value) out->value = value->clone();
  out->table = table;
  for (const auto& k : keys) out->keys.push_back(k->clone());
  out->dsts = dsts;
  out->hit_dst = hit_dst;
  out->reg = reg;
  out->list = list;
  if (push_value) out->push_value = push_value->clone();
  if (cond) out->cond = cond->clone();
  for (const auto& i : then_body) out->then_body.push_back(i->clone());
  for (const auto& i : else_body) out->else_body.push_back(i->clone());
  for (const auto& p : report_payload) out->report_payload.push_back(p->clone());
  return out;
}

namespace {
InstrPtr new_instr(InstrKind kind) {
  auto i = std::make_unique<Instr>();
  i->kind = kind;
  return i;
}
}  // namespace

InstrPtr in_assign(FieldId dst, RValuePtr value) {
  auto i = new_instr(InstrKind::kAssign);
  i->dst = dst;
  i->value = std::move(value);
  return i;
}

InstrPtr in_table(int table, std::vector<RValuePtr> keys,
                  std::vector<FieldId> dsts, FieldId hit_dst) {
  auto i = new_instr(InstrKind::kTableLookup);
  i->table = table;
  i->keys = std::move(keys);
  i->dsts = std::move(dsts);
  i->hit_dst = hit_dst;
  return i;
}

InstrPtr in_reg_read(int reg, FieldId dst) {
  auto i = new_instr(InstrKind::kRegRead);
  i->reg = reg;
  i->dst = dst;
  return i;
}

InstrPtr in_reg_write(int reg, RValuePtr value) {
  auto i = new_instr(InstrKind::kRegWrite);
  i->reg = reg;
  i->value = std::move(value);
  return i;
}

InstrPtr in_push(int list, RValuePtr value) {
  auto i = new_instr(InstrKind::kPush);
  i->list = list;
  i->push_value = std::move(value);
  return i;
}

InstrPtr in_if(RValuePtr cond, std::vector<InstrPtr> then_body,
               std::vector<InstrPtr> else_body) {
  auto i = new_instr(InstrKind::kIf);
  i->cond = std::move(cond);
  i->then_body = std::move(then_body);
  i->else_body = std::move(else_body);
  return i;
}

InstrPtr in_reject() { return new_instr(InstrKind::kReject); }

InstrPtr in_report(std::vector<RValuePtr> payload) {
  auto i = new_instr(InstrKind::kReport);
  i->report_payload = std::move(payload);
  return i;
}

int CheckerIR::telemetry_wire_bits() const {
  int bits = 0;
  for (const auto& f : fields) {
    if (f.space == Space::kTele) bits += f.width;
  }
  for (const auto& l : lists) {
    // Slots are kTele fields (already counted); count the fill counter only
    // if it is not itself a tele field.
    if (l.count.valid() && fields[l.count.id].space != Space::kTele) {
      bits += fields[l.count.id].width;
    }
  }
  return bits;
}

int CheckerIR::find_table(const std::string& name) const {
  for (std::size_t i = 0; i < tables.size(); ++i) {
    if (tables[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

int CheckerIR::find_register(const std::string& name) const {
  for (std::size_t i = 0; i < registers.size(); ++i) {
    if (registers[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

int CheckerIR::find_list(const std::string& name) const {
  for (std::size_t i = 0; i < lists.size(); ++i) {
    if (lists[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

FieldId CheckerIR::find_field(const std::string& name) const {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (fields[i].name == name) return FieldId{static_cast<int>(i)};
  }
  return FieldId{};
}

namespace {

std::string rv_str(const CheckerIR& ir, const RValue& r) {
  switch (r.kind) {
    case RKind::kConst:
      return r.cval.to_string();
    case RKind::kField:
      return ir.field(r.field).name;
    case RKind::kUnary:
      return std::string(indus::unop_name(r.unop)) + "(" +
             rv_str(ir, *r.args[0]) + ")";
    case RKind::kBinary:
      return std::string("(") + rv_str(ir, *r.args[0]) + " " +
             indus::binop_name(r.binop) + " " + rv_str(ir, *r.args[1]) + ")";
    case RKind::kAbsDiff:
      return "absdiff(" + rv_str(ir, *r.args[0]) + ", " +
             rv_str(ir, *r.args[1]) + ")";
  }
  return "?";
}

void dump_block(const CheckerIR& ir, const std::vector<InstrPtr>& body,
                int indent, std::string& out) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  for (const auto& i : body) {
    switch (i->kind) {
      case InstrKind::kAssign:
        out += pad + ir.field(i->dst).name + " := " + rv_str(ir, *i->value) +
               "\n";
        break;
      case InstrKind::kTableLookup: {
        out += pad;
        for (std::size_t d = 0; d < i->dsts.size(); ++d) {
          if (d) out += ", ";
          out += ir.field(i->dsts[d]).name;
        }
        if (i->hit_dst.valid()) {
          if (!i->dsts.empty()) out += ", ";
          out += ir.field(i->hit_dst).name + "(hit)";
        }
        out += " := " + ir.tables[static_cast<std::size_t>(i->table)].name +
               "[";
        for (std::size_t k = 0; k < i->keys.size(); ++k) {
          if (k) out += ", ";
          out += rv_str(ir, *i->keys[k]);
        }
        out += "]\n";
        break;
      }
      case InstrKind::kRegRead:
        out += pad + ir.field(i->dst).name + " := reg " +
               ir.registers[static_cast<std::size_t>(i->reg)].name + "\n";
        break;
      case InstrKind::kRegWrite:
        out += pad + "reg " +
               ir.registers[static_cast<std::size_t>(i->reg)].name + " := " +
               rv_str(ir, *i->value) + "\n";
        break;
      case InstrKind::kPush:
        out += pad + ir.lists[static_cast<std::size_t>(i->list)].name +
               ".push(" + rv_str(ir, *i->push_value) + ")\n";
        break;
      case InstrKind::kIf:
        out += pad + "if " + rv_str(ir, *i->cond) + " {\n";
        dump_block(ir, i->then_body, indent + 1, out);
        if (!i->else_body.empty()) {
          out += pad + "} else {\n";
          dump_block(ir, i->else_body, indent + 1, out);
        }
        out += pad + "}\n";
        break;
      case InstrKind::kReject:
        out += pad + "reject\n";
        break;
      case InstrKind::kReport: {
        out += pad + "report(";
        for (std::size_t p = 0; p < i->report_payload.size(); ++p) {
          if (p) out += ", ";
          out += rv_str(ir, *i->report_payload[p]);
        }
        out += ")\n";
        break;
      }
    }
  }
}

}  // namespace

std::string CheckerIR::dump() const {
  std::string out = "checker " + name + "\n";
  for (const auto& f : fields) {
    out += "  field " + f.name + " : " + std::to_string(f.width) + "b\n";
  }
  for (const auto& t : tables) {
    out += "  table " + t.name + "\n";
  }
  for (const auto& r : registers) {
    out += "  register " + r.name + " : " + std::to_string(r.width) + "b\n";
  }
  out += "init:\n";
  dump_block(*this, init_block, 1, out);
  out += "telemetry:\n";
  dump_block(*this, tele_block, 1, out);
  out += "check:\n";
  dump_block(*this, check_block, 1, out);
  return out;
}

}  // namespace hydra::ir
