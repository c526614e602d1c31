#include "indus/pretty.hpp"

namespace hydra::indus {

namespace {

int binop_prec(BinOp op) {
  switch (op) {
    case BinOp::kOr: return 1;
    case BinOp::kAnd: return 2;
    case BinOp::kEq: case BinOp::kNe: return 3;
    case BinOp::kLt: case BinOp::kLe: case BinOp::kGt: case BinOp::kGe:
      return 4;
    case BinOp::kBitOr: return 5;
    case BinOp::kBitXor: return 6;
    case BinOp::kBitAnd: return 7;
    case BinOp::kShl: case BinOp::kShr: return 8;
    case BinOp::kAdd: case BinOp::kSub: return 9;
    case BinOp::kMul: case BinOp::kDiv: case BinOp::kMod: return 10;
  }
  return 0;
}

std::string expr_src(const Expr& e, int parent_prec);

std::string args_src(const std::vector<ExprPtr>& args) {
  std::string out;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i) out += ", ";
    out += expr_src(*args[i], 0);
  }
  return out;
}

std::string expr_src(const Expr& e, int parent_prec) {
  switch (e.kind) {
    case ExprKind::kVar:
      return e.name;
    case ExprKind::kNumber:
      return std::to_string(e.number);
    case ExprKind::kBoolLit:
      return e.bool_value ? "true" : "false";
    case ExprKind::kUnary:
      return std::string(unop_name(e.unop)) + expr_src(*e.args[0], 100);
    case ExprKind::kBinary: {
      const int prec = binop_prec(e.binop);
      std::string out = expr_src(*e.args[0], prec) + " " +
                        binop_name(e.binop) + " " +
                        expr_src(*e.args[1], prec + 1);
      if (prec < parent_prec) return "(" + out + ")";
      return out;
    }
    case ExprKind::kIndex:
      return expr_src(*e.args[0], 100) + "[" + expr_src(*e.args[1], 0) + "]";
    case ExprKind::kTuple:
      return std::string("(") + args_src(e.args) + ")";
    case ExprKind::kCall:
      return e.name + "(" + args_src(e.args) + ")";
    case ExprKind::kIn: {
      std::string out =
          expr_src(*e.args[0], 5) + " in " + expr_src(*e.args[1], 5);
      if (parent_prec > 4) return "(" + out + ")";
      return out;
    }
  }
  return "?";
}

std::string pad(int indent) {
  return std::string(static_cast<std::size_t>(indent) * 2, ' ');
}

void stmt_src(const Stmt& s, int indent, std::string& out) {
  const std::string p = pad(indent);
  switch (s.kind) {
    case StmtKind::kPass:
      out += p + "pass;\n";
      return;
    case StmtKind::kBlock:
      out += p + "{\n";
      for (const auto& child : s.body) stmt_src(*child, indent + 1, out);
      out += p + "}\n";
      return;
    case StmtKind::kAssign: {
      const char* op = s.assign_op == AssignOp::kSet   ? " = "
                       : s.assign_op == AssignOp::kAdd ? " += "
                                                       : " -= ";
      out += p + expr_src(*s.target, 0) + op + expr_src(*s.value, 0) + ";\n";
      return;
    }
    case StmtKind::kIf: {
      for (std::size_t i = 0; i < s.arms.size(); ++i) {
        out += p + (i == 0 ? "if (" : "elsif (") +
               expr_src(*s.arms[i].cond, 0) + ") ";
        // Arm bodies are blocks; print inline from the brace.
        std::string body;
        stmt_src(*s.arms[i].body, indent, body);
        // Drop leading indent so the brace follows the condition.
        out += body.substr(p.size());
        if (i + 1 < s.arms.size() || s.else_body) {
          out.pop_back();  // replace trailing newline with a space
          out += "\n";
        }
      }
      if (s.else_body) {
        out += p + "else ";
        std::string body;
        stmt_src(*s.else_body, indent, body);
        out += body.substr(p.size());
      }
      return;
    }
    case StmtKind::kFor: {
      out += p + "for (";
      for (std::size_t i = 0; i < s.loop_vars.size(); ++i) {
        if (i) out += ", ";
        out += s.loop_vars[i];
      }
      out += " in ";
      for (std::size_t i = 0; i < s.iterables.size(); ++i) {
        if (i) out += ", ";
        out += expr_src(*s.iterables[i], 0);
      }
      out += ") ";
      std::string body;
      stmt_src(*s.body[0], indent, body);
      out += body.substr(p.size());
      return;
    }
    case StmtKind::kPush:
      out += p + expr_src(*s.push_list, 100) + ".push(" +
             expr_src(*s.push_value, 0) + ");\n";
      return;
    case StmtKind::kReport:
      if (s.report_args.empty()) {
        out += p + "report;\n";
      } else {
        out += p + "report((" + args_src(s.report_args) + "));\n";
      }
      return;
    case StmtKind::kReject:
      out += p + "reject;\n";
      return;
  }
}

}  // namespace

std::string to_source(const Expr& expr) { return expr_src(expr, 0); }

std::string to_source(const Stmt& stmt, int indent) {
  std::string out;
  stmt_src(stmt, indent, out);
  return out;
}

std::string to_source(const Decl& decl) {
  std::string out = var_kind_name(decl.kind);
  out += " ";
  out += decl.type->to_string();
  out += " " + decl.name;
  if (!decl.annotation.empty()) out += " @\"" + decl.annotation + "\"";
  if (decl.init) out += " = " + to_source(*decl.init);
  out += ";";
  return out;
}

std::string to_source(const Program& program) {
  std::string out;
  for (const auto& d : program.decls) {
    out += to_source(d);
    out += '\n';
  }
  if (!program.decls.empty()) out += '\n';
  if (program.init_block) out += to_source(*program.init_block);
  if (program.tele_block) out += to_source(*program.tele_block);
  if (program.check_block) out += to_source(*program.check_block);
  return out;
}

}  // namespace hydra::indus
