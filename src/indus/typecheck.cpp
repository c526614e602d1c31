#include "indus/typecheck.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "indus/parser.hpp"

namespace hydra::indus {

bool SymbolTable::declare(const std::string& name, VarInfo info) {
  return vars_.emplace(name, std::move(info)).second;
}

const VarInfo* SymbolTable::lookup(const std::string& name) const {
  const auto it = vars_.find(name);
  return it == vars_.end() ? nullptr : &it->second;
}

namespace {

// bit widths convert implicitly; everything else must match structurally.
bool compatible(const TypePtr& a, const TypePtr& b) {
  if (!a || !b) return false;
  if (a->is_bits() && b->is_bits()) return true;
  if (a->is_bool() && b->is_bool()) return true;
  if (a->is_tuple() && b->is_tuple()) {
    if (a->members().size() != b->members().size()) return false;
    for (std::size_t i = 0; i < a->members().size(); ++i) {
      if (!compatible(a->members()[i], b->members()[i])) return false;
    }
    return true;
  }
  return a->equals(*b);
}

class Checker {
 public:
  Checker(Program& program, Diagnostics& diags)
      : program_(program), diags_(diags) {}

  SymbolTable run() {
    declare_builtins();
    for (auto& d : program_.decls) check_decl(d);
    check_block_ptr(program_.init_block, BlockRole::kInit);
    check_block_ptr(program_.tele_block, BlockRole::kTelemetry);
    check_block_ptr(program_.check_block, BlockRole::kChecker);
    return std::move(symtab_);
  }

 private:
  void declare_builtins() {
    VarInfo last_hop{VarKind::kHeader, Type::boolean(), "std.last_hop", true,
                     nullptr};
    VarInfo first_hop{VarKind::kHeader, Type::boolean(), "std.first_hop",
                      true, nullptr};
    VarInfo pkt_len{VarKind::kHeader, Type::bits(32), "std.packet_length",
                    true, nullptr};
    symtab_.declare("last_hop", std::move(last_hop));
    symtab_.declare("first_hop", std::move(first_hop));
    symtab_.declare("packet_length", std::move(pkt_len));
  }

  void check_decl(Decl& d) {
    if (symtab_.lookup(d.name) != nullptr) {
      diags_.error(d.loc, "duplicate declaration of '" + d.name + "'");
      return;
    }
    if (d.init) {
      if (d.kind == VarKind::kHeader || d.kind == VarKind::kControl) {
        diags_.error(d.loc, var_kind_name(d.kind) +
                                std::string(" variable '") + d.name +
                                "' is read-only and cannot be initialized "
                                "in the program");
      } else {
        const TypePtr t = check_expr(*d.init, BlockRole::kInit);
        if (t && !compatible(d.type, t)) {
          diags_.error(d.init->loc,
                       "initializer type " + t->to_string() +
                           " does not match declared type " +
                           d.type->to_string());
        }
        if (!is_constant(*d.init)) {
          diags_.error(d.init->loc,
                       "declaration initializers must be constant; compute "
                       "dynamic values in the init block instead");
        }
      }
    }
    if (d.kind == VarKind::kSensor && !d.type->is_scalar()) {
      diags_.error(d.loc, "sensor variables must be scalar (registers): '" +
                              d.name + "' has type " + d.type->to_string());
    }
    if (d.kind == VarKind::kHeader && !d.type->is_scalar()) {
      diags_.error(d.loc, "header variables must be scalar: '" + d.name +
                              "' has type " + d.type->to_string());
    }
    if (d.kind == VarKind::kTele && (d.type->is_dict() || d.type->is_set())) {
      diags_.error(d.loc,
                   "tele variables travel on the packet and cannot be "
                   "dicts or sets: '" +
                       d.name + "'");
    }
    VarInfo info{d.kind, d.type, d.annotation, false, d.init.get()};
    symtab_.declare(d.name, std::move(info));
  }

  bool is_constant(const Expr& e) const {
    switch (e.kind) {
      case ExprKind::kNumber:
      case ExprKind::kBoolLit:
        return true;
      case ExprKind::kUnary:
        return is_constant(*e.args[0]);
      case ExprKind::kBinary:
        return is_constant(*e.args[0]) && is_constant(*e.args[1]);
      case ExprKind::kTuple: {
        for (const auto& a : e.args) {
          if (!is_constant(*a)) return false;
        }
        return true;
      }
      default:
        return false;
    }
  }

  void check_block_ptr(StmtPtr& block, BlockRole role) {
    if (!block) {
      diags_.error({}, "missing program block");
      return;
    }
    check_stmt(*block, role);
  }

  void check_stmt(Stmt& s, BlockRole role) {
    switch (s.kind) {
      case StmtKind::kPass:
        return;
      case StmtKind::kBlock:
        for (auto& child : s.body) check_stmt(*child, role);
        return;
      case StmtKind::kAssign:
        check_assign(s, role);
        return;
      case StmtKind::kIf: {
        for (auto& arm : s.arms) {
          const TypePtr t = check_expr(*arm.cond, role);
          if (t && !t->is_bool()) {
            diags_.error(arm.cond->loc, "if condition must be bool, got " +
                                            t->to_string());
          }
          check_stmt(*arm.body, role);
        }
        if (s.else_body) check_stmt(*s.else_body, role);
        return;
      }
      case StmtKind::kFor:
        check_for(s, role);
        return;
      case StmtKind::kPush:
        check_push(s, role);
        return;
      case StmtKind::kReport:
        for (auto& a : s.report_args) check_expr(*a, role);
        return;
      case StmtKind::kReject:
        if (role != BlockRole::kChecker) {
          diags_.error(s.loc,
                       "'reject' is only allowed in the checker block; use a "
                       "tele flag and reject at the last hop");
        }
        return;
    }
  }

  // Returns the variable at the root of an lvalue path, or nullptr.
  const Expr* lvalue_root(const Expr& e) const {
    if (e.kind == ExprKind::kVar) return &e;
    if (e.kind == ExprKind::kIndex) return lvalue_root(*e.args[0]);
    return nullptr;
  }

  void check_assign(Stmt& s, BlockRole role) {
    const Expr* root = lvalue_root(*s.target);
    if (root == nullptr) {
      diags_.error(s.target->loc, "assignment target must be a variable or "
                                  "array element");
      check_expr(*s.value, role);
      return;
    }
    if (loop_vars_.count(root->name) != 0U) {
      diags_.error(s.target->loc,
                   "loop variable '" + root->name + "' is read-only");
    }
    const VarInfo* info = symtab_.lookup(root->name);
    if (info != nullptr && (info->kind == VarKind::kHeader ||
                            info->kind == VarKind::kControl)) {
      diags_.error(s.target->loc,
                   std::string(var_kind_name(info->kind)) + " variable '" +
                       root->name +
                       "' is read-only; Indus checkers must not interfere "
                       "with forwarding state");
    }
    const TypePtr target_t = check_expr(*s.target, role);
    const TypePtr value_t = check_expr(*s.value, role);
    if (target_t && value_t && !compatible(target_t, value_t)) {
      diags_.error(s.loc, "cannot assign " + value_t->to_string() + " to " +
                              target_t->to_string());
    }
    if (s.assign_op != AssignOp::kSet && target_t && !target_t->is_bits()) {
      diags_.error(s.loc, "compound assignment requires a bit<n> target");
    }
  }

  void check_for(Stmt& s, BlockRole role) {
    if (s.loop_vars.size() != s.iterables.size()) return;  // parser reported
    std::vector<std::pair<std::string, TypePtr>> bindings;
    int common_size = -1;
    for (std::size_t i = 0; i < s.iterables.size(); ++i) {
      const TypePtr t = check_expr(*s.iterables[i], role);
      if (!t) continue;
      if (!t->is_array()) {
        diags_.error(s.iterables[i]->loc,
                     "for loops iterate over fixed-size arrays, got " +
                         t->to_string());
        continue;
      }
      if (common_size == -1) {
        common_size = t->array_size();
      } else if (common_size != t->array_size()) {
        diags_.error(s.iterables[i]->loc,
                     "parallel iteration requires equal array sizes (" +
                         std::to_string(common_size) + " vs " +
                         std::to_string(t->array_size()) + ")");
      }
      bindings.emplace_back(s.loop_vars[i], t->element());
    }
    std::vector<std::pair<std::string, TypePtr>> saved;
    for (const auto& [name, type] : bindings) {
      // Shadowing an existing variable is allowed — the paper's Figure 2
      // iterates `for (left_load, right_load in ...)` over arrays while
      // sensors of the same names exist. The loop variable wins inside
      // the body.
      const auto prev = loop_vars_.find(name);
      if (prev != loop_vars_.end()) saved.emplace_back(name, prev->second);
      if (symtab_.lookup(name) != nullptr) {
        diags_.warning(s.loc, "loop variable '" + name +
                                  "' shadows an existing variable");
      }
      loop_vars_[name] = type;
    }
    // The reference evaluator fixes the iteration count at loop entry;
    // compiled code re-reads the fill counter at every unrolled iteration.
    // Pushing to an iterated array would make the two disagree.
    std::vector<std::string> iterated;
    for (const auto& it : s.iterables) {
      if (it->kind == ExprKind::kVar) iterated.push_back(it->name);
    }
    iterated_.insert(iterated_.end(), iterated.begin(), iterated.end());
    check_stmt(*s.body[0], role);
    iterated_.resize(iterated_.size() - iterated.size());
    for (const auto& [name, type] : bindings) loop_vars_.erase(name);
    for (auto& [name, type] : saved) loop_vars_[name] = type;
  }

  void check_push(Stmt& s, BlockRole role) {
    const TypePtr list_t = check_expr(*s.push_list, role);
    const TypePtr value_t = check_expr(*s.push_value, role);
    const Expr* root = lvalue_root(*s.push_list);
    if (root != nullptr) {
      const VarInfo* info = symtab_.lookup(root->name);
      if (info != nullptr && info->kind != VarKind::kTele) {
        diags_.error(s.loc, "push is only supported on tele arrays; '" +
                                root->name + "' is " +
                                var_kind_name(info->kind));
      }
    }
    if (root != nullptr &&
        std::find(iterated_.begin(), iterated_.end(), root->name) !=
            iterated_.end()) {
      diags_.error(s.loc, "cannot push to '" + root->name +
                              "' inside a for loop over it");
    }
    if (list_t && !list_t->is_array()) {
      diags_.error(s.push_list->loc,
                   "push target must be an array, got " + list_t->to_string());
      return;
    }
    if (list_t && value_t && !compatible(list_t->element(), value_t)) {
      diags_.error(s.push_value->loc,
                   "cannot push " + value_t->to_string() + " onto " +
                       list_t->to_string());
    }
  }

  TypePtr check_expr(Expr& e, BlockRole role) {
    const TypePtr t = infer_expr(e, role);
    e.type = t;
    return t;
  }

  TypePtr infer_expr(Expr& e, BlockRole role) {
    switch (e.kind) {
      case ExprKind::kNumber:
        // Literals are width-polymorphic; the backend narrows as needed.
        return Type::bits(64);
      case ExprKind::kBoolLit:
        return Type::boolean();
      case ExprKind::kVar: {
        const auto loop_it = loop_vars_.find(e.name);
        if (loop_it != loop_vars_.end()) return loop_it->second;
        const VarInfo* info = symtab_.lookup(e.name);
        if (info == nullptr) {
          diags_.error(e.loc, "use of undeclared variable '" + e.name + "'");
          return nullptr;
        }
        return info->type;
      }
      case ExprKind::kUnary: {
        const TypePtr t = check_expr(*e.args[0], role);
        if (!t) return nullptr;
        switch (e.unop) {
          case UnOp::kNot:
            if (!t->is_bool()) {
              diags_.error(e.loc, "'!' requires bool, got " + t->to_string());
              return Type::boolean();
            }
            return Type::boolean();
          case UnOp::kBitNot:
          case UnOp::kNeg:
            if (!t->is_bits()) {
              diags_.error(e.loc, std::string("'") + unop_name(e.unop) +
                                      "' requires bit<n>, got " +
                                      t->to_string());
            }
            return t;
        }
        return t;
      }
      case ExprKind::kBinary:
        return infer_binary(e, role);
      case ExprKind::kIndex:
        return infer_index(e, role);
      case ExprKind::kTuple: {
        std::vector<TypePtr> members;
        bool ok = true;
        for (auto& a : e.args) {
          const TypePtr t = check_expr(*a, role);
          if (!t) ok = false;
          members.push_back(t ? t : Type::bits(32));
        }
        return ok ? Type::tuple(std::move(members)) : nullptr;
      }
      case ExprKind::kCall:
        return infer_call(e, role);
      case ExprKind::kIn: {
        const TypePtr needle = check_expr(*e.args[0], role);
        const TypePtr hay = check_expr(*e.args[1], role);
        if (hay && !hay->is_array() && !hay->is_set()) {
          diags_.error(e.loc, "'in' requires an array or set on the right, "
                              "got " + hay->to_string());
          return Type::boolean();
        }
        if (hay && needle && !compatible(hay->element(), needle)) {
          diags_.error(e.loc, "'in' element type mismatch: " +
                                  needle->to_string() + " vs " +
                                  hay->element()->to_string());
        }
        return Type::boolean();
      }
    }
    return nullptr;
  }

  TypePtr infer_binary(Expr& e, BlockRole role) {
    const TypePtr lhs = check_expr(*e.args[0], role);
    const TypePtr rhs = check_expr(*e.args[1], role);
    if (!lhs || !rhs) return result_of(e.binop, lhs, rhs);
    switch (e.binop) {
      case BinOp::kAdd: case BinOp::kSub: case BinOp::kMul:
      case BinOp::kDiv: case BinOp::kMod: case BinOp::kBitAnd:
      case BinOp::kBitOr: case BinOp::kBitXor: case BinOp::kShl:
      case BinOp::kShr:
        if (!lhs->is_bits() || !rhs->is_bits()) {
          diags_.error(e.loc, std::string("'") + binop_name(e.binop) +
                                  "' requires bit<n> operands, got " +
                                  lhs->to_string() + " and " +
                                  rhs->to_string());
        }
        break;
      case BinOp::kLt: case BinOp::kLe: case BinOp::kGt: case BinOp::kGe:
        if (!lhs->is_bits() || !rhs->is_bits()) {
          diags_.error(e.loc, std::string("'") + binop_name(e.binop) +
                                  "' requires bit<n> operands, got " +
                                  lhs->to_string() + " and " +
                                  rhs->to_string());
        }
        break;
      case BinOp::kEq: case BinOp::kNe:
        if (!compatible(lhs, rhs)) {
          diags_.error(e.loc, "cannot compare " + lhs->to_string() + " with " +
                                  rhs->to_string());
        }
        break;
      case BinOp::kAnd: case BinOp::kOr:
        if (!lhs->is_bool() || !rhs->is_bool()) {
          diags_.error(e.loc, std::string("'") + binop_name(e.binop) +
                                  "' requires bool operands, got " +
                                  lhs->to_string() + " and " +
                                  rhs->to_string());
        }
        break;
    }
    return result_of(e.binop, lhs, rhs);
  }

  static TypePtr result_of(BinOp op, const TypePtr& lhs, const TypePtr& rhs) {
    switch (op) {
      case BinOp::kEq: case BinOp::kNe: case BinOp::kLt: case BinOp::kLe:
      case BinOp::kGt: case BinOp::kGe: case BinOp::kAnd: case BinOp::kOr:
        return Type::boolean();
      default: {
        const int lw = lhs && lhs->is_bits() ? lhs->bit_width() : 32;
        const int rw = rhs && rhs->is_bits() ? rhs->bit_width() : 32;
        return Type::bits(std::max(lw, rw));
      }
    }
  }

  TypePtr infer_index(Expr& e, BlockRole role) {
    const TypePtr base = check_expr(*e.args[0], role);
    const TypePtr index = check_expr(*e.args[1], role);
    if (!base) return nullptr;
    if (base->is_array()) {
      if (index && !index->is_bits()) {
        diags_.error(e.args[1]->loc,
                     "array index must be bit<n>, got " + index->to_string());
      }
      return base->element();
    }
    if (base->is_dict()) {
      if (index && !compatible(base->key(), index)) {
        diags_.error(e.args[1]->loc, "dict key type mismatch: expected " +
                                         base->key()->to_string() + ", got " +
                                         index->to_string());
      }
      return base->value();
    }
    diags_.error(e.loc,
                 "only arrays and dicts can be indexed, got " +
                     base->to_string());
    return nullptr;
  }

  TypePtr infer_call(Expr& e, BlockRole role) {
    if (e.name == "abs") {
      if (e.args.size() != 1) {
        diags_.error(e.loc, "abs() takes exactly one argument");
        return Type::bits(32);
      }
      const TypePtr t = check_expr(*e.args[0], role);
      if (t && !t->is_bits()) {
        diags_.error(e.loc, "abs() requires bit<n>, got " + t->to_string());
      }
      return t ? t : Type::bits(32);
    }
    if (e.name == "length") {
      if (e.args.size() != 1) {
        diags_.error(e.loc, "length() takes exactly one argument");
        return Type::bits(32);
      }
      const TypePtr t = check_expr(*e.args[0], role);
      if (t && !t->is_array()) {
        diags_.error(e.loc,
                     "length() requires an array, got " + t->to_string());
      }
      return Type::bits(32);
    }
    diags_.error(e.loc, "unknown function '" + e.name + "'");
    for (auto& a : e.args) check_expr(*a, role);
    return nullptr;
  }

  Program& program_;
  Diagnostics& diags_;
  SymbolTable symtab_;
  std::map<std::string, TypePtr> loop_vars_;
  std::vector<std::string> iterated_;  // arrays of the enclosing for loops
};

}  // namespace

SymbolTable typecheck(Program& program, Diagnostics& diags) {
  Checker checker(program, diags);
  return checker.run();
}

Program parse_and_check(const std::string& source) {
  Diagnostics diags;
  Program p = parse_indus(source, diags);
  diags.throw_if_errors("parse");
  typecheck(p, diags);
  diags.throw_if_errors("typecheck");
  return p;
}

}  // namespace hydra::indus
