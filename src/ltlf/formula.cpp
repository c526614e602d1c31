#include "ltlf/formula.hpp"

#include <algorithm>

namespace hydra::ltlf {

namespace {
FormulaPtr node(Op op, std::vector<FormulaPtr> kids, int atom = 0) {
  auto f = std::make_shared<Formula>();
  f->op = op;
  f->atom = atom;
  f->kids = std::move(kids);
  return f;
}
}  // namespace

FormulaPtr Formula::make_atom(int index) { return node(Op::kAtom, {}, index); }
FormulaPtr Formula::make_not(FormulaPtr a) {
  return node(Op::kNot, {std::move(a)});
}
FormulaPtr Formula::make_and(FormulaPtr a, FormulaPtr b) {
  return node(Op::kAnd, {std::move(a), std::move(b)});
}
FormulaPtr Formula::make_or(FormulaPtr a, FormulaPtr b) {
  return node(Op::kOr, {std::move(a), std::move(b)});
}
FormulaPtr Formula::make_next(FormulaPtr a) {
  return node(Op::kNext, {std::move(a)});
}
FormulaPtr Formula::make_until(FormulaPtr a, FormulaPtr b) {
  return node(Op::kUntil, {std::move(a), std::move(b)});
}
FormulaPtr Formula::make_eventually(FormulaPtr a) {
  return node(Op::kEventually, {std::move(a)});
}
FormulaPtr Formula::make_globally(FormulaPtr a) {
  return node(Op::kGlobally, {std::move(a)});
}

int Formula::max_atom() const {
  int mx = op == Op::kAtom ? atom : -1;
  for (const auto& k : kids) mx = std::max(mx, k->max_atom());
  return mx;
}

int Formula::depth() const {
  int d = 0;
  for (const auto& k : kids) d = std::max(d, k->depth());
  return d + 1;
}

std::string Formula::to_string() const {
  switch (op) {
    case Op::kAtom:
      return std::string("a") + std::to_string(atom);
    case Op::kNot:
      return std::string("!") + kids[0]->to_string();
    case Op::kAnd:
      return std::string("(") + kids[0]->to_string() + " & " +
             kids[1]->to_string() + ")";
    case Op::kOr:
      return std::string("(") + kids[0]->to_string() + " | " +
             kids[1]->to_string() + ")";
    case Op::kNext:
      return std::string("X") + kids[0]->to_string();
    case Op::kUntil:
      return std::string("(") + kids[0]->to_string() + " U " +
             kids[1]->to_string() + ")";
    case Op::kEventually:
      return std::string("F") + kids[0]->to_string();
    case Op::kGlobally:
      return std::string("G") + kids[0]->to_string();
  }
  return "?";
}

}  // namespace hydra::ltlf
