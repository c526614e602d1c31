#include "ltlf/to_indus.hpp"

#include <stdexcept>

#include "p4rt/interp.hpp"

namespace hydra::ltlf {

namespace {

// Generates checker-block statements evaluating subformulas at symbolic
// positions. Each subformula instance gets a fresh tele bool temporary.
class Generator {
 public:
  explicit Generator(int capacity) : capacity_(capacity) {}

  // Returns the name of the bool variable holding [[f]] at position `x`.
  std::string emit(const Formula& f, const std::string& x, std::string& out,
                   int indent) {
    const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
    switch (f.op) {
      case Op::kAtom: {
        const std::string r = fresh_bool();
        out += pad + r + " = A" + std::to_string(f.atom) + "[" + x + "];\n";
        return r;
      }
      case Op::kNot: {
        const std::string c = emit(*f.kids[0], x, out, indent);
        const std::string r = fresh_bool();
        out += pad + r + " = !" + c + ";\n";
        return r;
      }
      case Op::kAnd:
      case Op::kOr: {
        const std::string a = emit(*f.kids[0], x, out, indent);
        const std::string b = emit(*f.kids[1], x, out, indent);
        const std::string r = fresh_bool();
        out += pad + r + " = " + a + (f.op == Op::kAnd ? " && " : " || ") +
               b + ";\n";
        return r;
      }
      case Op::kNext: {
        const std::string r = fresh_bool();
        out += pad + r + " = false;\n";
        out += pad + "if (" + x + " + 1 < idx) {\n";
        const std::string c = emit(*f.kids[0], x + " + 1", out, indent + 1);
        out += pad + "  " + r + " = " + c + ";\n";
        out += pad + "}\n";
        return r;
      }
      case Op::kUntil: {
        // Exists j >= x: psi(j) and forall k in [x, j): phi(k). A linear
        // scan with a running "phi held so far" flag.
        const std::string r = fresh_bool();
        const std::string p = fresh_bool();
        const std::string j = fresh_loop();
        out += pad + r + " = false;\n";
        out += pad + p + " = true;\n";
        out += pad + "for (" + j + " in T) {\n";
        out += pad + "  if (" + j + " >= " + x + ") {\n";
        const std::string psi = emit(*f.kids[1], j, out, indent + 2);
        out += pad + "    if (" + p + " && " + psi + ") { " + r +
               " = true; }\n";
        const std::string phi = emit(*f.kids[0], j, out, indent + 2);
        out += pad + "    if (!" + phi + ") { " + p + " = false; }\n";
        out += pad + "  }\n";
        out += pad + "}\n";
        return r;
      }
      case Op::kEventually: {
        const std::string r = fresh_bool();
        const std::string j = fresh_loop();
        out += pad + r + " = false;\n";
        out += pad + "for (" + j + " in T) {\n";
        out += pad + "  if (" + j + " >= " + x + ") {\n";
        const std::string c = emit(*f.kids[0], j, out, indent + 2);
        out += pad + "    if (" + c + ") { " + r + " = true; }\n";
        out += pad + "  }\n";
        out += pad + "}\n";
        return r;
      }
      case Op::kGlobally: {
        const std::string r = fresh_bool();
        const std::string j = fresh_loop();
        out += pad + r + " = true;\n";
        out += pad + "for (" + j + " in T) {\n";
        out += pad + "  if (" + j + " >= " + x + ") {\n";
        const std::string c = emit(*f.kids[0], j, out, indent + 2);
        out += pad + "    if (!" + c + ") { " + r + " = false; }\n";
        out += pad + "  }\n";
        out += pad + "}\n";
        return r;
      }
    }
    throw std::logic_error("unreachable formula op");
  }

  const std::vector<std::string>& temps() const { return temps_; }

 private:
  std::string fresh_bool() {
    temps_.push_back(std::string("r").append(std::to_string(next_temp_++)));
    return temps_.back();
  }
  std::string fresh_loop() {
    return std::string("j").append(std::to_string(next_loop_++));
  }

  int capacity_;
  int next_temp_ = 0;
  int next_loop_ = 0;
  std::vector<std::string> temps_;
};

}  // namespace

Translation to_indus(const Formula& f, int max_trace_len) {
  if (max_trace_len < 1 || max_trace_len > 64) {
    throw std::invalid_argument("max_trace_len out of range");
  }
  Translation t;
  t.num_atoms = f.max_atom() + 1;
  t.capacity = max_trace_len;
  const std::string cap = std::to_string(max_trace_len);

  Generator gen(max_trace_len);
  std::string check_body;
  const std::string result = gen.emit(f, "0", check_body, 1);

  std::string src;
  for (int i = 0; i < t.num_atoms; ++i) {
    src += "header bool atom" + std::to_string(i) + ";\n";
  }
  src += "tele bit<8>[" + cap + "] T;\n";
  for (int i = 0; i < t.num_atoms; ++i) {
    src += "tele bool[" + cap + "] A" + std::to_string(i) + ";\n";
  }
  src += "tele bit<8> idx = 0;\n";
  for (const auto& temp : gen.temps()) {
    src += "tele bool " + temp + " = false;\n";
  }
  src += "\n{ }\n{\n  T.push(idx);\n";
  for (int i = 0; i < t.num_atoms; ++i) {
    const std::string n = std::to_string(i);
    src += "  A" + n + ".push(atom" + n + ");\n";
  }
  src += "  idx += 1;\n}\n{\n";
  src += check_body;
  src += "  if (!" + result + ") { reject; }\n}\n";
  t.indus_source = std::move(src);
  return t;
}

bool run_translation(const compiler::CompiledChecker& compiled,
                     const Trace& trace) {
  if (trace.empty()) {
    throw std::invalid_argument("run_translation requires a non-empty trace");
  }
  p4rt::Interp interp(compiled.ir);
  p4rt::CheckerState state = p4rt::make_checker_state(compiled.ir);
  p4rt::ExecOutcome out;

  // Header `atom<i>` reads proposition i of the current event; any other
  // header (the unused std.* intrinsics) throws if a block ever reads it.
  struct Atoms final : p4rt::HeaderSource {
    std::vector<std::string> annotations;
    std::vector<int> atom;  // by header index; -1 = not an atom
    const std::vector<bool>* event = nullptr;

    std::uint64_t read(int header) const override {
      const int i = atom[static_cast<std::size_t>(header)];
      if (i < 0) {
        throw std::invalid_argument(
            "unexpected annotation: " +
            annotations[static_cast<std::size_t>(header)]);
      }
      const auto u = static_cast<std::size_t>(i);
      return event != nullptr && u < event->size() && (*event)[u] ? 1 : 0;
    }
  } atoms;
  for (ir::FieldId f : p4rt::header_fields(compiled.ir)) {
    const std::string& ann = compiled.ir.field(f).annotation;
    atoms.annotations.push_back(ann);
    atoms.atom.push_back(ann.rfind("atom", 0) == 0 ? std::stoi(ann.substr(4))
                                                   : -1);
  }

  std::vector<std::uint64_t> words;  // the trace's telemetry frame
  interp.run(p4rt::Block::kInit, words, state, atoms, out);
  for (const auto& e : trace) {
    atoms.event = &e;
    interp.run(p4rt::Block::kTele, words, state, atoms, out);
  }
  atoms.event = &trace.back();
  interp.run(p4rt::Block::kCheck, words, state, atoms, out);
  return !out.reject;
}

bool check_trace(const Formula& f, const Trace& trace, int max_trace_len) {
  const Translation t = to_indus(f, max_trace_len);
  const auto compiled = compiler::compile_checker(
      t.indus_source, "ltlf:" + f.to_string());
  return run_translation(compiled, trace);
}

}  // namespace hydra::ltlf
