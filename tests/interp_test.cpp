// Unit tests for the p4rt substrate: match-action tables, registers, the
// packet model, and the checker VM running compiled checkers.
#include <gtest/gtest.h>

#include <map>

#include "checkers/library.hpp"
#include "compiler/compile.hpp"
#include "p4rt/interp.hpp"
#include "p4rt/packet.hpp"
#include "p4rt/register.hpp"
#include "p4rt/table.hpp"

namespace hydra::p4rt {
namespace {

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

// Every case runs through both Table::lookup overloads: BitVec keys (the
// control-plane adapter) and raw key words (the data-plane core). The
// helper answers the matched row's first action word, or -1 on a miss.
class TableLookup : public ::testing::TestWithParam<bool> {
 protected:
  static std::int64_t lookup(const Table& t, const std::vector<BitVec>& key) {
    std::vector<std::uint64_t> words;
    for (const BitVec& k : key) words.push_back(k.value());
    const std::int32_t row =
        GetParam() ? t.lookup(std::span<const std::uint64_t>(words))
                   : t.lookup(key);
    return row < 0 ? -1 : static_cast<std::int64_t>(t.action_data(row)[0]);
  }
};

TEST_P(TableLookup, ExactMatchHitAndMiss) {
  Table t("t", {{MatchKind::kExact, 8}});
  t.insert_exact({BitVec(8, 5)}, {BitVec(8, 50)});
  EXPECT_EQ(lookup(t, {BitVec(8, 5)}), 50);
  EXPECT_EQ(lookup(t, {BitVec(8, 6)}), -1);
}

TEST_P(TableLookup, TernaryMaskedMatch) {
  Table t("t", {{MatchKind::kTernary, 8}});
  TableEntry e;
  e.patterns.push_back(KeyPattern::ternary(BitVec(8, 0xa0), BitVec(8, 0xf0)));
  e.action_data.push_back(BitVec(8, 1));
  t.insert(e);
  EXPECT_NE(lookup(t, {BitVec(8, 0xa5)}), -1);
  EXPECT_EQ(lookup(t, {BitVec(8, 0xb5)}), -1);
}

TEST_P(TableLookup, WildcardMatchesEverything) {
  Table t("t", {{MatchKind::kTernary, 16}});
  TableEntry e;
  e.patterns.push_back(KeyPattern::wildcard(16));
  e.action_data.push_back(BitVec(8, 9));
  t.insert(e);
  EXPECT_NE(lookup(t, {BitVec(16, 0)}), -1);
  EXPECT_NE(lookup(t, {BitVec(16, 65535)}), -1);
}

TEST_P(TableLookup, PriorityBreaksOverlaps) {
  Table t("t", {{MatchKind::kTernary, 8}});
  TableEntry low;
  low.priority = 10;
  low.patterns.push_back(KeyPattern::wildcard(8));
  low.action_data.push_back(BitVec(8, 1));
  TableEntry high;
  high.priority = 20;
  high.patterns.push_back(KeyPattern::exact(BitVec(8, 7)));
  high.action_data.push_back(BitVec(8, 2));
  t.insert(low);
  t.insert(high);
  EXPECT_EQ(lookup(t, {BitVec(8, 7)}), 2);
  EXPECT_EQ(lookup(t, {BitVec(8, 8)}), 1);
}

TEST_P(TableLookup, LpmPrefixes) {
  Table t("t", {{MatchKind::kLpm, 32}});
  TableEntry wide;
  wide.priority = 8;
  wide.patterns.push_back(KeyPattern::lpm(BitVec(32, 0x0a000000), 8));
  wide.action_data.push_back(BitVec(8, 1));
  TableEntry narrow;
  narrow.priority = 24;
  narrow.patterns.push_back(KeyPattern::lpm(BitVec(32, 0x0a000100), 24));
  narrow.action_data.push_back(BitVec(8, 2));
  t.insert(wide);
  t.insert(narrow);
  EXPECT_EQ(lookup(t, {BitVec(32, 0x0a000105)}), 2);
  EXPECT_EQ(lookup(t, {BitVec(32, 0x0a020305)}), 1);
  EXPECT_EQ(lookup(t, {BitVec(32, 0x0b000000)}), -1);
}

TEST_P(TableLookup, RangeMatch) {
  Table t("t", {{MatchKind::kRange, 16}});
  TableEntry e;
  e.patterns.push_back(KeyPattern::range(BitVec(16, 81), BitVec(16, 82)));
  e.action_data.push_back(BitVec(8, 3));
  t.insert(e);
  EXPECT_NE(lookup(t, {BitVec(16, 81)}), -1);
  EXPECT_NE(lookup(t, {BitVec(16, 82)}), -1);
  EXPECT_EQ(lookup(t, {BitVec(16, 80)}), -1);
  EXPECT_EQ(lookup(t, {BitVec(16, 83)}), -1);
}

TEST_P(TableLookup, ArityChecked) {
  Table t("t", {{MatchKind::kExact, 8}, {MatchKind::kExact, 8}});
  EXPECT_THROW(t.insert_exact({BitVec(8, 1)}, {}), std::invalid_argument);
  EXPECT_THROW(lookup(t, {BitVec(8, 1)}), std::invalid_argument);
}

TEST_P(TableLookup, RemoveByKey) {
  Table t("t", {{MatchKind::kExact, 8}});
  t.insert_exact({BitVec(8, 1)}, {BitVec(8, 10)});
  t.insert_exact({BitVec(8, 2)}, {BitVec(8, 20)});
  std::vector<KeyPattern> key = {KeyPattern::exact(BitVec(8, 1))};
  EXPECT_EQ(t.remove_if_key_equals(key), 1);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(lookup(t, {BitVec(8, 1)}), -1);
}

INSTANTIATE_TEST_SUITE_P(Overloads, TableLookup, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Words" : "BitVecs";
                         });

// ---------------------------------------------------------------------------
// RegisterArray
// ---------------------------------------------------------------------------

TEST(RegisterArray, ReadWriteAdd) {
  RegisterArray r("r", 16, 4, BitVec(16, 100));
  EXPECT_EQ(r.read(0).value(), 100u);
  r.write(1, BitVec(16, 7));
  EXPECT_EQ(r.read(1).value(), 7u);
  EXPECT_EQ(r.add(1, BitVec(16, 3)).value(), 10u);
  r.reset();
  EXPECT_EQ(r.read(1).value(), 100u);
}

TEST(RegisterArray, WidthMasking) {
  RegisterArray r("r", 8, 1, BitVec(8, 0));
  r.write(0, BitVec(32, 0x1ff));
  EXPECT_EQ(r.read(0).value(), 0xffu);
}

TEST(RegisterArray, OutOfRangeThrows) {
  RegisterArray r("r", 8, 2, BitVec(8, 0));
  EXPECT_THROW(r.read(2), std::out_of_range);
  EXPECT_THROW(r.write(5, BitVec(8, 0)), std::out_of_range);
}

// ---------------------------------------------------------------------------
// Packet model
// ---------------------------------------------------------------------------

TEST(Packet, WireBytesAccounting) {
  Packet p = make_udp(1, 2, 10, 20, 100);
  EXPECT_EQ(p.base_wire_bytes(), 14 + 20 + 8 + 100);
  Packet t = make_tcp(1, 2, 10, 20, 100);
  EXPECT_EQ(t.base_wire_bytes(), 14 + 20 + 20 + 100);
}

TEST(Packet, GtpuEncapDecapRoundTrip) {
  const Packet inner = make_udp(0x0a000001, 0x0a000002, 1000, 81, 64);
  Packet outer = gtpu_encap(inner, 0xc0000001, 0xc0000002, 42);
  EXPECT_TRUE(outer.gtpu.has_value());
  EXPECT_EQ(outer.gtpu->teid, 42u);
  EXPECT_EQ(outer.ipv4->dst, 0xc0000002u);
  EXPECT_EQ(outer.inner_ipv4->dst, 0x0a000002u);
  EXPECT_GT(outer.base_wire_bytes(), inner.base_wire_bytes());
  const Packet back = gtpu_decap(outer);
  EXPECT_FALSE(back.gtpu.has_value());
  EXPECT_EQ(back.ipv4->dst, inner.ipv4->dst);
  EXPECT_EQ(back.l4->dport, inner.l4->dport);
  EXPECT_EQ(back.base_wire_bytes(), inner.base_wire_bytes());
}

TEST(Packet, IcmpEcho) {
  const Packet p = make_icmp_echo(1, 2, 7, 9);
  EXPECT_EQ(p.ipv4->proto, kProtoIcmp);
  EXPECT_EQ(p.icmp->ident, 7u);
  EXPECT_EQ(p.icmp->seq, 9u);
}

TEST(Packet, TeleFrameLookup) {
  Packet p;
  for (const int checker : {2, 5}) {
    TeleFrame frame;
    frame.checker = checker;
    p.tele.push_back(frame);
  }
  EXPECT_NE(p.frame(2), nullptr);
  EXPECT_NE(p.frame(5), nullptr);
  EXPECT_EQ(p.frame(3), nullptr);
}

// ---------------------------------------------------------------------------
// Interpreter on compiled checkers
// ---------------------------------------------------------------------------

// Runs a compiled checker with header values looked up by annotation.
struct Harness : HeaderSource {
  compiler::CompiledChecker checker;
  Interp interp;
  CheckerState state;
  ExecOutcome out;
  std::map<std::string, BitVec> headers;
  std::vector<std::string> annotations;  // by header index

  explicit Harness(const std::string& src)
      : checker(compiler::compile_checker(src, "test")),
        interp(checker.ir),
        state(make_checker_state(checker.ir)) {
    for (ir::FieldId f : header_fields(checker.ir)) {
      annotations.push_back(checker.ir.field(f).annotation);
    }
  }

  std::uint64_t read(int header) const override {
    const auto it =
        headers.find(annotations[static_cast<std::size_t>(header)]);
    return it == headers.end() ? 0 : it->second.value();
  }

  void run_init() { interp.run(Block::kInit, state, *this, out); }
  void run_tele() { interp.run(Block::kTele, state, *this, out); }
  void run_check() { interp.run(Block::kCheck, state, *this, out); }
  BitVec field(const std::string& name) const {
    const auto f = checker.ir.find_field(name);
    EXPECT_TRUE(f.valid()) << name;
    return interp.value(f);
  }
};

TEST(Interp, MultiTenancyAcceptsSameTenant) {
  Harness h(checkers::checker_by_name("multi_tenancy").source);
  h.state.tables[0].insert_exact({BitVec(8, 1)}, {BitVec(8, 7)});
  h.state.tables[0].insert_exact({BitVec(8, 2)}, {BitVec(8, 7)});
  h.headers.emplace("in_port", BitVec(8, 1));
  h.headers.emplace("eg_port", BitVec(8, 2));
  h.run_init();
  EXPECT_EQ(h.field("tele.tenant").value(), 7u);
  h.run_check();
  EXPECT_FALSE(h.out.reject);
}

TEST(Interp, MultiTenancyRejectsCrossTenant) {
  Harness h(checkers::checker_by_name("multi_tenancy").source);
  h.state.tables[0].insert_exact({BitVec(8, 1)}, {BitVec(8, 7)});
  h.state.tables[0].insert_exact({BitVec(8, 2)}, {BitVec(8, 9)});
  h.headers.emplace("in_port", BitVec(8, 1));
  h.headers.emplace("eg_port", BitVec(8, 2));
  h.run_init();
  h.run_check();
  EXPECT_TRUE(h.out.reject);
}

TEST(Interp, DictMissYieldsZeroValue) {
  Harness h(R"(
    control dict<bit<8>,bit<8>> m;
    tele bit<8> v;
    header bit<8> p;
    { v = m[p]; } { } { }
  )");
  h.headers.emplace("p", BitVec(8, 3));
  h.run_init();
  EXPECT_EQ(h.field("tele.v").value(), 0u);
}

TEST(Interp, ConfigScalarReadsDefault) {
  Harness h(R"(
    control thresh;
    tele bool r;
    { r = packet_length > thresh; } { } { }
  )");
  h.state.tables[0].set_default({BitVec(32, 100)});
  h.headers.emplace("std.packet_length", BitVec(32, 150));
  h.run_init();
  EXPECT_TRUE(h.field("tele.r").as_bool());
}

TEST(Interp, PushSaturatesAtCapacity) {
  Harness h(R"(
    tele bit<8>[2] xs;
    header bit<8> v;
    { } { xs.push(v); } { }
  )");
  h.run_init();
  for (int i = 1; i <= 5; ++i) {
    h.headers["v"] = BitVec(8, static_cast<std::uint64_t>(i));
    h.run_tele();
  }
  EXPECT_EQ(h.field("tele.xs.cnt").value(), 2u);
  EXPECT_EQ(h.field("tele.xs[0]").value(), 1u);
  EXPECT_EQ(h.field("tele.xs[1]").value(), 2u);
}

TEST(Interp, SensorAccumulatesAcrossPackets) {
  Harness h(R"(
    sensor bit<32> total = 0;
    { } { total += packet_length; } { }
  )");
  h.headers.emplace("std.packet_length", BitVec(32, 100));
  h.run_tele();
  h.run_tele();
  h.run_tele();
  EXPECT_EQ(h.state.registers[0].read(0).value(), 300u);
}

TEST(Interp, InOperatorOnTeleArray) {
  Harness h(R"(
    tele bit<32>[4] seen;
    tele bool dup;
    header bit<32> id;
    { } {
      if (id in seen) { dup = true; }
      seen.push(id);
    } { if (dup) { reject; } }
  )");
  h.run_init();
  h.headers["id"] = BitVec(32, 10);
  h.run_tele();
  h.headers["id"] = BitVec(32, 20);
  h.run_tele();
  h.headers["id"] = BitVec(32, 10);  // revisit
  h.run_tele();
  h.run_check();
  EXPECT_TRUE(h.out.reject);
}

TEST(Interp, InOperatorNoFalsePositiveFromEmptySlots) {
  Harness h(R"(
    tele bit<32>[4] seen;
    tele bool dup;
    header bit<32> id;
    { } {
      if (id in seen) { dup = true; }
      seen.push(id);
    } { if (dup) { reject; } }
  )");
  h.run_init();
  // Id 0 equals the uninitialized slot value; the fill-count guard must
  // prevent a false positive on the first visit.
  h.headers["id"] = BitVec(32, 0);
  h.run_tele();
  h.run_check();
  EXPECT_FALSE(h.out.reject);
}

TEST(Interp, ReportCarriesPayload) {
  Harness h(R"(
    header bit<32> a;
    header bit<16> b;
    { } { report((a, b)); } { }
  )");
  h.headers.emplace("a", BitVec(32, 1234));
  h.headers.emplace("b", BitVec(16, 56));
  h.run_tele();
  ASSERT_EQ(h.out.reports.size(), 1u);
  ASSERT_EQ(h.out.reports[0].size(), 2u);
  EXPECT_EQ(h.out.reports[0][0].value(), 1234u);
  EXPECT_EQ(h.out.reports[0][1].value(), 56u);
}

TEST(Interp, ShortCircuitAvoidsSpuriousEvaluation) {
  // (false && X) never evaluates X; with eager evaluation the dict lookup
  // would still be fine, but short-circuit semantics must hold for values.
  Harness h(R"(
    tele bool r;
    tele bit<8> x;
    { r = false && x / x == 1; } { } { }
  )");
  h.run_init();
  EXPECT_FALSE(h.field("tele.r").as_bool());
}

TEST(Interp, DynamicArrayIndexSelectsSlot) {
  Harness h(R"(
    tele bit<8>[4] xs;
    tele bit<8> v;
    header bit<8> i;
    { } { xs.push(10); xs.push(20); xs.push(30); v = xs[i]; } { }
  )");
  h.run_init();
  h.headers["i"] = BitVec(8, 1);
  h.run_tele();
  EXPECT_EQ(h.field("tele.v").value(), 20u);
}

TEST(Interp, InstructionCounterCountsIrInstructionsRun) {
  // hydra_interp_instructions_total counts IR instructions executed, the
  // taken if-body included, whatever ops the VM lowered them to.
  Harness h(R"(
    tele bit<8> x;
    header bit<8> p;
    { } {
      if (p > 3 && p != 9) { x = 1; x = x + 1; } else { x = 7; }
      if (true) { pass; }
    } { }
  )");
  obs::Registry reg;
  InterpMetrics m;
  m.instructions = reg.counter("instructions");
  h.interp.attach_metrics(m);
  h.headers["p"] = BitVec(8, 5);
  h.run_tele();  // if, two assignments, if (true)
  EXPECT_EQ(reg.counter_value("instructions"), 4u);
  EXPECT_EQ(h.field("tele.x").value(), 2u);
  h.headers["p"] = BitVec(8, 9);
  h.run_tele();  // if, the else assignment, if (true)
  EXPECT_EQ(reg.counter_value("instructions"), 7u);
  EXPECT_EQ(h.field("tele.x").value(), 7u);
}

TEST(Interp, LengthIsThirtyTwoBitsWide) {
  // length() is bit<32>: negating it wraps at 32 bits, not at the width
  // of the list's 3-bit fill counter.
  Harness h(R"(
    tele bit<8>[4] xs;
    tele bit<32> n;
    { xs.push(1); xs.push(2); n = -(length(xs)); } { } { }
  )");
  h.run_init();
  EXPECT_EQ(h.field("tele.xs.cnt").value(), 2u);
  EXPECT_EQ(h.field("tele.n").value(), 0xfffffffeu);
}

TEST(Interp, StoreFrameCarriesOnlyTeleWords) {
  Harness h(R"(
    control dict<bit<8>,bit<8>> m;
    tele bit<8> v;
    header bit<8> p;
    { v = m[p]; } { } { }
  )");
  h.state.tables[0].insert_exact({BitVec(8, 1)}, {BitVec(8, 99)});
  h.headers.emplace("p", BitVec(8, 1));
  h.run_init();
  TeleFrame frame;
  frame.checker = 0;
  h.interp.store(frame);
  // One word, the tele field's; the header and the table-lookup temporary
  // never reach the frame.
  EXPECT_EQ(frame.words, std::vector<std::uint64_t>{99});
}

// A pooled frame slot is re-armed for whichever checker stamps it next:
// store sizes it to that checker's tele fields, whatever it held before,
// and load refuses a frame of any other size.
TEST(Interp, StoreResizesAReArmedFrame) {
  Harness wide(R"(
    tele bit<8> a;
    tele bit<16> b;
    tele bit<4>[3] xs;
    { a = 1; b = 2; xs.push(3); } { } { }
  )");
  wide.run_init();
  Harness narrow(R"(
    tele bit<8> v;
    { v = 42; } { } { }
  )");
  narrow.run_init();

  TeleFrame frame;
  frame.checker = 0;
  wide.interp.store(frame);
  ASSERT_EQ(frame.words.size(), wide.checker.layout.entries.size());
  ASSERT_GT(frame.words.size(), 1u);
  EXPECT_THROW(narrow.interp.load(frame), std::invalid_argument);

  frame.checker = 1;  // re-armed in place, words not cleared
  narrow.interp.store(frame);
  EXPECT_EQ(frame.words, std::vector<std::uint64_t>{42});
  narrow.interp.load(frame);
  EXPECT_EQ(narrow.field("tele.v").value(), 42u);
}

}  // namespace
}  // namespace hydra::p4rt
