// Differential testing of the compiler: for randomly generated well-typed
// Indus programs, random control-plane contents, and random header traces,
// the REFERENCE AST interpreter (src/indus/eval_ref) and the COMPILED
// pipeline (lowering -> IR -> checker VM) must agree on
//   * the reject verdict,
//   * every report payload (order and values),
//   * the final telemetry state (scalars, array slots, fill counts).
// Every trace runs twice on the compiled side: with tele and check as
// separate runs at the last hop, and fused into one kTeleCheck run, as the
// network runs them. A second suite runs several generated checkers in one
// run, as the network does, and checks every part against its own
// checker's runs. Any divergence is a compiler bug.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "compiler/compile.hpp"
#include "indus/eval_ref.hpp"
#include "indus/parser.hpp"
#include "indus/pretty.hpp"
#include "indus_gen.hpp"
#include "obs/metrics.hpp"
#include "p4rt/interp.hpp"
#include "util/rng.hpp"

namespace hydra {
namespace {

using indus::RefEvaluator;
using indus::RefOutcome;
using indus::RefState;

struct HopHeaders {
  std::map<std::string, BitVec> values;

  BitVec get(const std::string& ann, int width) const {
    const auto it = values.find(ann);
    if (it == values.end()) return BitVec(width, 0);
    return it->second.resize(width);
  }
};

// The compiled side's view of the current hop: header index ->
// annotation, bound once per program.
struct HopSource final : p4rt::HeaderSource {
  std::vector<std::string> annotations;
  const HopHeaders* hop = nullptr;

  explicit HopSource(const ir::CheckerIR& ir) {
    for (ir::FieldId f : p4rt::header_fields(ir)) {
      annotations.push_back(ir.field(f).annotation);
    }
  }
  std::uint64_t read(int header) const override {
    return hop->get(annotations[static_cast<std::size_t>(header)],
                    BitVec::kMaxWidth)
        .value();
  }
};

// Random control-plane contents, installed identically on both sides.
struct ControlPlane {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> dict1;  // k -> v
  std::vector<std::pair<std::pair<std::uint64_t, std::uint64_t>, bool>>
      dict2;
  std::vector<std::uint64_t> set1;
  std::uint64_t cfg = 0;
  std::uint64_t carr[3] = {0, 0, 0};

  // Dict keys are distinct: a table keeps the first entry for a key while
  // the reference map would keep the last.
  static ControlPlane random(Rng& rng) {
    ControlPlane cp;
    for (int i = 0; i < 5; ++i) {
      const std::uint64_t k1 = rng.below(256);
      const std::uint64_t v1 = rng.below(1 << 16);
      if (std::none_of(cp.dict1.begin(), cp.dict1.end(),
                       [&](const auto& e) { return e.first == k1; })) {
        cp.dict1.emplace_back(k1, v1);
      }
      const std::pair<std::uint64_t, std::uint64_t> k2{rng.below(256),
                                                       rng.below(256)};
      const bool v2 = rng.chance(0.5);
      if (std::none_of(cp.dict2.begin(), cp.dict2.end(),
                       [&](const auto& e) { return e.first == k2; })) {
        cp.dict2.push_back({k2, v2});
      }
      cp.set1.push_back(rng.below(256));
    }
    cp.cfg = rng.below(1000);
    for (auto& c : cp.carr) c = rng.below(256);
    return cp;
  }
};

struct Differential {
  compiler::CompiledChecker compiled;
  indus::Program program;
  indus::SymbolTable symbols;

  explicit Differential(const std::string& src)
      : compiled(compiler::compile_checker(src, "diff")) {
    indus::Diagnostics diags;
    program = indus::parse_indus(src, diags);
    symbols = indus::typecheck(program, diags);
    EXPECT_FALSE(diags.has_errors()) << diags.to_string();
  }

  void install(const ControlPlane& cp, p4rt::CheckerState& istate,
               RefState& rstate) const {
    auto table = [&](const std::string& name) -> p4rt::Table& {
      const int t = compiled.ir.find_table(name);
      EXPECT_GE(t, 0) << name;
      return istate.tables[static_cast<std::size_t>(t)];
    };
    const auto& d1w = compiled.ir.tables[static_cast<std::size_t>(
                          compiled.ir.find_table("dict1"))].value_widths;
    for (const auto& [k, v] : cp.dict1) {
      table("dict1").insert_exact({BitVec(8, k)}, {BitVec(d1w[0], v)});
      rstate.dicts["dict1"][{k}] = {BitVec(d1w[0], v)};
    }
    for (const auto& [kk, v] : cp.dict2) {
      table("dict2").insert_exact({BitVec(8, kk.first), BitVec(8, kk.second)},
                                  {BitVec::from_bool(v)});
      rstate.dicts["dict2"][{kk.first, kk.second}] = {BitVec::from_bool(v)};
    }
    for (const auto k : cp.set1) {
      table("set1").insert_exact({BitVec(8, k)}, {});
      rstate.sets["set1"].insert({k});
    }
    table("cfg").set_default({BitVec(32, cp.cfg)});
    rstate.configs["cfg"] = {BitVec(32, cp.cfg)};
    std::vector<BitVec> carr_vals;
    for (const auto c : cp.carr) carr_vals.emplace_back(8, c);
    table("carr").set_default(carr_vals);
    rstate.configs["carr"] = carr_vals;
  }

  // Runs both interpreters over `hops` and compares everything; `fused`
  // runs the last hop's tele and check blocks as one VM run.
  void check(const ControlPlane& cp, const std::vector<HopHeaders>& hops,
             bool fused) {
    // --- compiled side ---
    p4rt::Interp interp(compiled.ir);
    p4rt::CheckerState istate = p4rt::make_checker_state(compiled.ir);
    // --- reference side ---
    RefEvaluator ref(program, symbols);
    RefState rstate;
    ref.init_packet_state(rstate);
    ref.init_switch_state(rstate);
    install(cp, istate, rstate);

    p4rt::ExecOutcome iout;
    RefOutcome rout;

    HopSource source(compiled.ir);
    source.hop = &hops.front();
    auto resolver = [&source](const std::string& ann, int w) {
      return source.hop->get(ann, w);
    };

    std::vector<std::uint64_t> words;  // the packet's telemetry frame
    interp.run(p4rt::Block::kInit, words, istate, source, iout);
    ref.run_init(rstate, resolver, rout);
    for (std::size_t i = 0; i < hops.size(); ++i) {
      source.hop = &hops[i];
      const bool last = i + 1 == hops.size();
      interp.run(fused && last ? p4rt::Block::kTeleCheck : p4rt::Block::kTele,
                 words, istate, source, iout);
      ref.run_tele(rstate, resolver, rout);
    }
    source.hop = &hops.back();
    if (!fused) interp.run(p4rt::Block::kCheck, words, istate, source, iout);
    ref.run_check(rstate, resolver, rout);

    expect_same(iout, [&](ir::FieldId f) { return interp.value(f).value(); },
                istate, rstate, rout);
  }

  // Compares the compiled side's verdict, reports, telemetry (`tele` reads
  // a tele field's value) and sensors with the reference's.
  void expect_same(const p4rt::ExecOutcome& iout,
                   const std::function<std::uint64_t(ir::FieldId)>& tele,
                   const p4rt::CheckerState& istate, const RefState& rstate,
                   const RefOutcome& rout) const {
    ASSERT_EQ(iout.reject, rout.reject) << context();
    ASSERT_EQ(iout.reports.size(), rout.reports.size()) << context();
    for (std::size_t r = 0; r < iout.reports.size(); ++r) {
      ASSERT_EQ(iout.reports[r].size(), rout.reports[r].size()) << context();
      for (std::size_t i = 0; i < iout.reports[r].size(); ++i) {
        EXPECT_EQ(iout.reports[r][i].value(), rout.reports[r][i].value())
            << "report " << r << " part " << i << context();
      }
    }

    // Final telemetry state.
    auto field_val = [&](const std::string& name) {
      const auto f = compiled.ir.find_field(name);
      EXPECT_TRUE(f.valid()) << name;
      return tele(f);
    };
    for (const auto& [name, v] : rstate.scalars) {
      if (v.size() == 1) {
        EXPECT_EQ(field_val("tele." + name), v[0].value())
            << name << context();
      }
    }
    for (const auto& [name, arr] : rstate.arrays) {
      EXPECT_EQ(field_val("tele." + name + ".cnt"),
                static_cast<std::uint64_t>(arr.count))
          << name << context();
      for (std::size_t i = 0; i < arr.slots.size(); ++i) {
        EXPECT_EQ(field_val("tele." + name + "[" + std::to_string(i) + "]"),
                  arr.slots[i].value())
            << name << "[" << i << "]" << context();
      }
    }
    // Sensors.
    for (const auto& [name, v] : rstate.sensors) {
      const int r = compiled.ir.find_register(name);
      ASSERT_GE(r, 0) << name;
      EXPECT_EQ(istate.registers[static_cast<std::size_t>(r)].read(0).value(),
                v.value())
          << name << context();
    }
  }

  std::string context() const { return "\nprogram:\n" + compiled.source; }
};

HopHeaders random_hop(Rng& rng, bool first, bool last) {
  HopHeaders h;
  h.values.emplace("h0", BitVec(8, rng.below(256)));
  h.values.emplace("h1", BitVec(16, rng.below(1 << 16)));
  h.values.emplace("hb", BitVec::from_bool(rng.chance(0.5)));
  h.values.emplace("std.packet_length", BitVec(32, rng.range(64, 1500)));
  h.values.emplace("std.first_hop", BitVec::from_bool(first));
  h.values.emplace("std.last_hop", BitVec::from_bool(last));
  return h;
}

class CompilerDifferential : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(CompilerDifferential, ReferenceAndCompiledAgree) {
  Rng rng(GetParam());
  testgen::ProgramGen gen(rng);
  const std::string src = gen.generate();
  SCOPED_TRACE(src);
  Differential diff(src);
  for (int run = 0; run < 3; ++run) {
    const ControlPlane cp = ControlPlane::random(rng);
    const int hops = 1 + static_cast<int>(rng.below(5));
    std::vector<HopHeaders> trace;
    for (int i = 0; i < hops; ++i) {
      trace.push_back(random_hop(rng, i == 0, i == hops - 1));
    }
    for (const bool fused : {false, true}) {
      SCOPED_TRACE(fused ? "fused last hop" : "separate tele and check");
      diff.check(cp, trace, fused);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompilerDifferential,
                         ::testing::Range<std::uint64_t>(1, 2001));

// One part of a linked run, with everything its own runs need: its frame
// and state, the reference, and the checker run alone.
struct LinkedPart {
  Differential diff;
  std::optional<p4rt::Interp> vm;  // lowered once its placement is drawn
  p4rt::Interp alone{diff.compiled.ir};
  HopSource source{diff.compiled.ir};
  bool every_hop = false;
  p4rt::CheckerState state = p4rt::make_checker_state(diff.compiled.ir);
  p4rt::CheckerState alone_state = state;
  std::vector<std::uint64_t> words, alone_words;
  p4rt::ExecOutcome out, alone_out;
  RefEvaluator ref{diff.program, diff.symbols};
  RefState rstate;
  RefOutcome rout;

  LinkedPart(const std::string& src, Rng& rng) : diff(src) {
    ref.init_packet_state(rstate);
    ref.init_switch_state(rstate);
    const ControlPlane cp = ControlPlane::random(rng);
    diff.install(cp, state, rstate);
    RefState unused;
    diff.install(cp, alone_state, unused);
  }

  // Its tele field `f`'s word in the frame.
  std::uint64_t word(ir::FieldId f) const {
    std::size_t i = 0;
    for (int id = 0; id < f.id; ++id) {
      i += diff.compiled.ir.fields[static_cast<std::size_t>(id)].space ==
           ir::Space::kTele;
    }
    return words[i];
  }
};

// Linked runs against each checker's own runs. Each seed runs 2-4 generated
// checkers together — the same declarations at other widths, so a header
// read at another part's base or a word copied into the wrong part reads
// another checker's value — some with their check at every hop, over one
// hop trace with one part left out at one random hop. Each part's verdict,
// reports, final words and sensors must match its checker's eval_ref run
// over the hops it ran, its words and instruction count the checker run
// alone, and the run's flagged mask the parts that rejected or reported.
class LinkedDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LinkedDifferential, EverySegmentMatchesItsOwnRuns) {
  Rng rng(GetParam());
  const auto n = static_cast<std::size_t>(2 + rng.below(3));
  std::vector<std::unique_ptr<LinkedPart>> parts;
  std::vector<p4rt::Interp*> vms;
  obs::Registry reg;
  for (std::size_t i = 0; i < n; ++i) {
    testgen::ProgramGen gen(rng);
    parts.push_back(std::make_unique<LinkedPart>(gen.generate(), rng));
    LinkedPart& part = *parts.back();
    part.every_hop = rng.chance(0.3);
    part.vm.emplace(part.diff.compiled.ir, part.every_hop);
    p4rt::InterpMetrics m;
    m.instructions = reg.counter("linked." + std::to_string(i));
    part.vm->attach_metrics(m);
    m.instructions = reg.counter("alone." + std::to_string(i));
    part.alone.attach_metrics(m);
    vms.push_back(&*part.vm);
  }
  // The shared header index g is part `owner[g].first`'s header
  // `owner[g].second`, which that part's source answers with its own values.
  struct LinkedSource final : p4rt::HeaderSource {
    std::vector<std::pair<const HopSource*, int>> owner;
    std::uint64_t read(int header) const override {
      const auto& [part, local] = owner[static_cast<std::size_t>(header)];
      return part->read(local);
    }
  } source;
  for (const auto& part : parts) {
    part->vm->set_header_base(static_cast<std::uint32_t>(source.owner.size()));
    for (std::size_t h = 0; h < part->source.annotations.size(); ++h) {
      source.owner.emplace_back(&part->source, static_cast<int>(h));
    }
  }

  // Every part sees headers of its own at each hop.
  const int hops = 1 + static_cast<int>(rng.below(5));
  std::vector<std::vector<HopHeaders>> trace(n);
  for (int h = 0; h < hops; ++h) {
    for (auto& t : trace) t.push_back(random_hop(rng, h == 0, h == hops - 1));
  }
  const auto left_out = static_cast<std::size_t>(rng.below(n));
  const int left_at =
      static_cast<int>(rng.below(static_cast<std::uint64_t>(hops)));
  SCOPED_TRACE("part " + std::to_string(left_out) + " left out at hop " +
               std::to_string(left_at));

  const auto run = [&](p4rt::Block block, std::uint64_t mask, int hop,
                       bool last) {
    for (std::size_t i = 0; i < n; ++i) {
      parts[i]->source.hop = &trace[i][static_cast<std::size_t>(hop)];
    }
    for (std::size_t i = 0; i < n; ++i) {
      if ((mask >> i & 1) != 0) {
        LinkedPart& p = *parts[i];
        p.vm->bind(p.state, p.words, block == p4rt::Block::kInit);
      }
    }
    const std::uint64_t flagged = p4rt::Interp::run(block, vms, mask, source);
    for (std::size_t i = 0; i < n; ++i) {
      if ((mask >> i & 1) == 0) continue;
      LinkedPart& p = *parts[i];
      const p4rt::ExecOutcome& o = p.vm->outcome();
      EXPECT_EQ((flagged >> i & 1) != 0, o.reject || !o.reports.empty())
          << "part " << i << p.diff.context();
      p.out.reject = p.out.reject || o.reject;
      p.out.reports.insert(p.out.reports.end(), o.reports.begin(),
                           o.reports.end());
      const HopHeaders& headers = *p.source.hop;
      auto resolver = [&headers](const std::string& ann, int w) {
        return headers.get(ann, w);
      };
      if (block == p4rt::Block::kInit) {
        p.alone.run(block, p.alone_words, p.alone_state, p.source,
                    p.alone_out);
        p.ref.run_init(p.rstate, resolver, p.rout);
        continue;
      }
      const bool check = last || p.every_hop;
      p.alone.run(check ? p4rt::Block::kTeleCheck : p4rt::Block::kTele,
                  p.alone_words, p.alone_state, p.source, p.alone_out);
      p.ref.run_tele(p.rstate, resolver, p.rout);
      if (check) p.ref.run_check(p.rstate, resolver, p.rout);
    }
  };
  const std::uint64_t all = (1ULL << n) - 1;
  run(p4rt::Block::kInit, all, 0, false);
  for (int h = 0; h < hops; ++h) {
    const bool last = h + 1 == hops;
    run(last ? p4rt::Block::kTeleCheck : p4rt::Block::kTele,
        h == left_at ? all & ~(1ULL << left_out) : all, h, last);
  }

  for (std::size_t i = 0; i < n; ++i) {
    SCOPED_TRACE("part " + std::to_string(i));
    const LinkedPart& p = *parts[i];
    p.diff.expect_same(p.out, [&p](ir::FieldId f) { return p.word(f); },
                       p.state, p.rstate, p.rout);
    if (::testing::Test::HasFatalFailure()) return;
    EXPECT_EQ(p.words, p.alone_words) << p.diff.context();
    EXPECT_EQ(reg.counter_value("linked." + std::to_string(i)),
              reg.counter_value("alone." + std::to_string(i)))
        << p.diff.context();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinkedDifferential,
                         ::testing::Range<std::uint64_t>(1, 2001));

// The generator's output must always parse, typecheck, and round-trip
// through the pretty printer.
class GeneratorSanity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorSanity, GeneratedProgramsCompileAndRoundTrip) {
  Rng rng(GetParam() + 1000);
  testgen::ProgramGen gen(rng);
  const std::string src = gen.generate();
  SCOPED_TRACE(src);
  indus::Diagnostics d1;
  indus::Program p1 = indus::parse_indus(src, d1);
  ASSERT_FALSE(d1.has_errors()) << d1.to_string();
  indus::typecheck(p1, d1);
  ASSERT_FALSE(d1.has_errors()) << d1.to_string();
  const std::string printed = indus::to_source(p1);
  indus::Diagnostics d2;
  indus::Program p2 = indus::parse_indus(printed, d2);
  ASSERT_FALSE(d2.has_errors()) << printed << "\n" << d2.to_string();
  EXPECT_EQ(printed, indus::to_source(p2));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorSanity,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace hydra
