// Tests for the byte-exact telemetry wire codec, on random frames and on
// every frame traced real runs write (serialize -> parse round trip).
#include <gtest/gtest.h>

#include "checkers/library.hpp"
#include "forwarding/ipv4_ecmp.hpp"
#include "forwarding/source_route.hpp"
#include "hydra/hydra.hpp"
#include "net/network.hpp"
#include "p4rt/interp.hpp"
#include "p4rt/tele_codec.hpp"
#include "util/rng.hpp"
#include "wire_roundtrip.hpp"

namespace hydra::p4rt {
namespace {

compiler::CompiledChecker compile(const std::string& src,
                                  bool byte_aligned = false) {
  compiler::CompileOptions opts;
  opts.byte_aligned_layout = byte_aligned;
  return compiler::compile_checker(src, "wire", opts);
}

TeleFrame random_frame(const compiler::CompiledChecker& c, Rng& rng) {
  TeleFrame f;
  f.checker = 0;
  for (const auto& e : c.layout.entries) {
    f.words.push_back(rng.next() & BitVec::mask(e.width));
  }
  return f;
}

void expect_roundtrip(const compiler::CompiledChecker& c,
                      const TeleFrame& f) {
  const auto bytes = serialize_frame(c.layout, f);
  ASSERT_EQ(bytes.size(), static_cast<std::size_t>(c.layout.wire_bytes));
  TeleFrame back;
  ASSERT_EQ(parse_frame_checked(c.layout, 0, bytes, back), FrameError::kOk);
  ASSERT_EQ(back.words.size(), f.words.size());
  for (std::size_t i = 0; i < f.words.size(); ++i) {
    EXPECT_EQ(back.words[i], f.words[i])
        << c.ir.field(c.layout.entries[i].field).name;
  }
}

// Header values for an init run: distinct per header index, so distinct
// tele fields stamped from them get distinct words.
struct FixedHeaders final : HeaderSource {
  std::uint64_t read(int header) const override {
    return 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(header + 1);
  }
};

TEST(TeleCodec, ScalarRoundTrip) {
  const auto c = compile(
      "tele bit<8> a;\ntele bit<32> b;\ntele bool f;\n{ } { } { }");
  Rng rng(1);
  for (int i = 0; i < 50; ++i) expect_roundtrip(c, random_frame(c, rng));
}

TEST(TeleCodec, UnalignedWidthsRoundTrip) {
  const auto c = compile(
      "tele bit<3> a;\ntele bit<13> b;\ntele bit<7> d;\ntele bit<33> e;\n"
      "{ } { } { }");
  Rng rng(2);
  for (int i = 0; i < 50; ++i) expect_roundtrip(c, random_frame(c, rng));
}

TEST(TeleCodec, ArraysAndCounterRoundTrip) {
  const auto c = compile(
      "tele bit<32>[5] xs;\ntele bool[3] flags;\n{ } { xs.push(1); "
      "flags.push(true); } { }");
  Rng rng(3);
  for (int i = 0; i < 50; ++i) expect_roundtrip(c, random_frame(c, rng));
}

TEST(TeleCodec, ByteAlignedLayoutRoundTrip) {
  const auto c = compile(
      "tele bit<3> a;\ntele bit<13> b;\ntele bool f;\n{ } { } { }",
      /*byte_aligned=*/true);
  Rng rng(4);
  for (int i = 0; i < 50; ++i) expect_roundtrip(c, random_frame(c, rng));
}

TEST(TeleCodec, PreambleCarriesHydraEtherType) {
  const auto c = compile("tele bit<8> a;\n{ } { } { }");
  TeleFrame f;
  f.checker = 0;
  f.words.assign(c.layout.entries.size(), 0);
  const auto bytes = serialize_frame(c.layout, f);
  EXPECT_EQ((bytes[0] << 8) | bytes[1],
            compiler::TelemetryLayout::kHydraEtherType);
}

TEST(TeleCodec, SerializeRejectsWrongFrame) {
  const auto c = compile("tele bit<8> a;\n{ } { } { }");
  TeleFrame f;
  f.checker = 0;  // no words: wrong size
  EXPECT_THROW(serialize_frame(c.layout, f), std::invalid_argument);
  f.words.assign(c.layout.entries.size() + 1, 0);  // one word too many
  EXPECT_THROW(serialize_frame(c.layout, f), std::invalid_argument);
}

// Every library checker's layout must round-trip random frames.
class CodecAllCheckers : public ::testing::TestWithParam<int> {};

TEST_P(CodecAllCheckers, RandomFramesRoundTrip) {
  const auto& spec =
      checkers::all_checkers()[static_cast<std::size_t>(GetParam())];
  const auto c = compiler::compile_checker(spec.source, spec.name);
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 100);
  for (int i = 0; i < 20; ++i) expect_roundtrip(c, random_frame(c, rng));
}

// The frame an init run stamps holds word i at layout entry i, and
// round-trips through the codec.
TEST_P(CodecAllCheckers, InitStampedFrameFollowsTheLayout) {
  const auto& spec =
      checkers::all_checkers()[static_cast<std::size_t>(GetParam())];
  const auto c = compiler::compile_checker(spec.source, spec.name);
  Interp interp(c.ir);
  CheckerState state = make_checker_state(c.ir);
  ExecOutcome out;
  TeleFrame f;
  f.checker = 0;
  interp.run(Block::kInit, f.words, state, FixedHeaders{}, out);
  ASSERT_EQ(f.words.size(), c.layout.entries.size());
  for (std::size_t i = 0; i < f.words.size(); ++i) {
    EXPECT_EQ(f.words[i], interp.value(c.layout.entries[i].field).value())
        << c.ir.field(c.layout.entries[i].field).name;
  }
  expect_roundtrip(c, f);
}

INSTANTIATE_TEST_SUITE_P(Library, CodecAllCheckers,
                         ::testing::Range(0, static_cast<int>(
                             checkers::all_checkers().size())),
                         [](const auto& info) {
                           return checkers::all_checkers()
                               [static_cast<std::size_t>(info.param)].name;
                         });

// End to end: every frame real traffic through real checkers writes, at
// every hop, round-trips through the codec.
TEST(WireValidation, EndToEndWithCheckersDeployed) {
  auto fabric = net::make_leaf_spine(2, 2, 2);
  net::Network net(fabric.topo);
  fwd::install_leaf_spine_routing(net, fabric);
  const auto loops = compile_library_checker("loops");
  const auto valley_free = compile_library_checker("valley_free");
  const auto filtering = compile_library_checker("application_filtering");
  net.deploy(loops);
  const int vf = net.deploy(valley_free);
  configure_valley_free(net, vf, fabric);
  net.deploy(filtering);
  net.trace_next(20);
  for (int i = 0; i < 20; ++i) {
    net.send_from_host(
        fabric.hosts[0][0],
        p4rt::make_udp(net.topo().node(fabric.hosts[0][0]).ip,
                       net.topo().node(fabric.hosts[1][0]).ip,
                       static_cast<std::uint16_t>(1000 + i), 2000, 100));
  }
  net.events().run();
  EXPECT_EQ(net.counters().delivered, 20u);
  testwire::expect_traced_frames_roundtrip(net, 20,
                                           {loops, valley_free, filtering});
}

TEST(WireValidation, SourceRoutedTrafficWithPathValidation) {
  auto fabric = net::make_leaf_spine(2, 2, 2);
  net::Network net(fabric.topo);
  auto prog = std::make_shared<fwd::SourceRouteProgram>();
  for (int sw : fabric.leaves) net.set_program(sw, prog);
  for (int sw : fabric.spines) net.set_program(sw, prog);
  const auto path_validation =
      compile_library_checker("source_routing_path_validation");
  const int pv = net.deploy(path_validation);
  configure_path_validation(net, pv, fabric);
  net.trace_next(1);
  p4rt::Packet p = p4rt::make_udp(1, 2, 3, 4, 64);
  fwd::set_source_route(p, fwd::leaf_spine_route(fabric, fabric.hosts[0][0],
                                                 fabric.hosts[1][0], 0));
  net.send_from_host(fabric.hosts[0][0], std::move(p));
  net.events().run();
  EXPECT_EQ(net.counters().delivered, 1u);
  testwire::expect_traced_frames_roundtrip(net, 1, {path_validation});
}

}  // namespace
}  // namespace hydra::p4rt
