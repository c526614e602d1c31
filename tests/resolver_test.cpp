// Unit tests for header-variable binding — the "foreign function
// interface" between Indus checkers and the data plane (§3.3) — and for
// the P4 emitter's dialect support.
#include <gtest/gtest.h>

#include "compiler/compile.hpp"
#include "checkers/library.hpp"
#include "net/switch_node.hpp"

namespace hydra::net {
namespace {

struct Ctx {
  p4rt::Packet pkt;
  HopContext hop;

  BitVec get(const std::string& ann, int width = 32) const {
    return BitVec(width, read_header(bind_header(ann), pkt, hop));
  }
};

TEST(Resolver, Intrinsics) {
  Ctx c;
  c.hop.first_hop = true;
  c.hop.last_hop = false;
  c.hop.wire_bytes = 123;
  EXPECT_TRUE(c.get("std.first_hop", 1).as_bool());
  EXPECT_FALSE(c.get("std.last_hop", 1).as_bool());
  EXPECT_EQ(c.get("std.packet_length").value(), 123u);
}

TEST(Resolver, Ports) {
  Ctx c;
  c.hop.in_port = 3;
  c.hop.eg_port = 7;
  EXPECT_EQ(c.get("in_port", 8).value(), 3u);
  EXPECT_EQ(c.get("eg_port", 8).value(), 7u);
  // Unset egress port reads as 0xff (invalid sentinel).
  c.hop.eg_port = -1;
  EXPECT_EQ(c.get("eg_port", 8).value(), 0xffu);
}

TEST(Resolver, SwitchIdentityAndDropFlag) {
  Ctx c;
  c.hop.switch_tag = 42;
  c.hop.fwd_drop = true;
  EXPECT_EQ(c.get("switch_id").value(), 42u);
  EXPECT_TRUE(c.get("to_be_dropped", 1).as_bool());
}

TEST(Resolver, Ipv4FieldsAndValidity) {
  Ctx c;
  EXPECT_FALSE(c.get("ipv4_is_valid", 1).as_bool());
  EXPECT_EQ(c.get("ipv4_src").value(), 0u);
  c.pkt = p4rt::make_udp(0x0a000001, 0x0a000002, 10, 20, 64);
  c.pkt.ipv4->dscp = 46;
  EXPECT_TRUE(c.get("ipv4_is_valid", 1).as_bool());
  EXPECT_EQ(c.get("ipv4_src").value(), 0x0a000001u);
  EXPECT_EQ(c.get("ipv4_dst").value(), 0x0a000002u);
  EXPECT_EQ(c.get("ipv4_proto", 8).value(), 17u);
  EXPECT_EQ(c.get("ipv4_dscp", 8).value(), 46u);
}

TEST(Resolver, L4ValidityTracksProto) {
  Ctx udp;
  udp.pkt = p4rt::make_udp(1, 2, 10, 20, 0);
  EXPECT_TRUE(udp.get("udp_is_valid", 1).as_bool());
  EXPECT_FALSE(udp.get("tcp_is_valid", 1).as_bool());
  EXPECT_EQ(udp.get("udp_dport", 16).value(), 20u);
  EXPECT_EQ(udp.get("tcp_dport", 16).value(), 0u);  // invalid -> 0

  Ctx tcp;
  tcp.pkt = p4rt::make_tcp(1, 2, 10, 20, 0);
  EXPECT_TRUE(tcp.get("tcp_is_valid", 1).as_bool());
  EXPECT_FALSE(tcp.get("udp_is_valid", 1).as_bool());
  EXPECT_EQ(tcp.get("tcp_sport", 16).value(), 10u);
  EXPECT_EQ(tcp.get("l4_dport", 16).value(), 20u);
}

TEST(Resolver, GtpuAndInnerHeaders) {
  Ctx c;
  const p4rt::Packet inner = p4rt::make_udp(0x0a640001, 0x0a000203, 999, 81, 64);
  c.pkt = p4rt::gtpu_encap(inner, 0xc0a80001, 0xc0a80002, 777);
  EXPECT_TRUE(c.get("gtpu_is_valid", 1).as_bool());
  EXPECT_EQ(c.get("gtpu_teid").value(), 777u);
  EXPECT_TRUE(c.get("inner_ipv4_is_valid", 1).as_bool());
  EXPECT_EQ(c.get("inner_ipv4_src").value(), 0x0a640001u);
  EXPECT_EQ(c.get("inner_ipv4_dst").value(), 0x0a000203u);
  EXPECT_TRUE(c.get("inner_udp_is_valid", 1).as_bool());
  EXPECT_FALSE(c.get("inner_tcp_is_valid", 1).as_bool());
  EXPECT_EQ(c.get("inner_udp_dport", 16).value(), 81u);
  // Outer view.
  EXPECT_EQ(c.get("outer_ipv4_dst").value(), 0xc0a80002u);
  EXPECT_EQ(c.get("outer_udp_dport", 16).value(),
            static_cast<std::uint64_t>(p4rt::kGtpuPort));
}

TEST(Resolver, VlanFields) {
  Ctx c;
  EXPECT_FALSE(c.get("vlan_is_valid", 1).as_bool());
  c.pkt.vlan = p4rt::VlanH{123};
  EXPECT_TRUE(c.get("vlan_is_valid", 1).as_bool());
  EXPECT_EQ(c.get("vlan_id", 16).value(), 123u);
}

TEST(Resolver, SourceRouteStackInTravelOrder) {
  Ctx c;
  c.pkt.sr_stack = {5, 3, 7};  // back is next hop
  c.pkt.has_sr = true;
  EXPECT_TRUE(c.get("sr_is_valid", 1).as_bool());
  EXPECT_EQ(c.get("sr_depth", 8).value(), 3u);
  EXPECT_EQ(c.get("sr_port_0", 8).value(), 7u);
  EXPECT_EQ(c.get("sr_port_1", 8).value(), 3u);
  EXPECT_EQ(c.get("sr_port_2", 8).value(), 5u);
  EXPECT_EQ(c.get("sr_port_3", 8).value(), 0u);  // past the end
}

TEST(Resolver, EthernetFields) {
  Ctx c;
  c.pkt.eth.src = 0xaabbccddeeffULL;
  c.pkt.eth.dst = 0x112233445566ULL;
  EXPECT_EQ(c.get("eth_src", 48).value(), 0xaabbccddeeffULL);
  EXPECT_EQ(c.get("hdr.ethernet.dst_addr", 48).value(), 0x112233445566ULL);
}

TEST(Resolver, UnknownAnnotationThrows) {
  Ctx c;
  EXPECT_THROW(c.get("no_such_field"), std::invalid_argument);
  // sr_port_<i> binds only a plain decimal index.
  EXPECT_THROW(c.get("sr_port_"), std::invalid_argument);
  EXPECT_THROW(c.get("sr_port_x"), std::invalid_argument);
  EXPECT_THROW(c.get("sr_port_-1"), std::invalid_argument);
}

TEST(Resolver, ValueTruncatedToRequestedWidth) {
  Ctx c;
  c.hop.switch_tag = 0x1234;
  EXPECT_EQ(c.get("switch_id", 8).value(), 0x34u);
}

// ---------------------------------------------------------------------------
// Emitter dialects
// ---------------------------------------------------------------------------

TEST(Dialects, TnaUsesTofinoConstructs) {
  compiler::CompileOptions opts;
  opts.dialect = compiler::P4Dialect::kTna;
  const auto c = compiler::compile_checker(
      checkers::checker_by_name("dc_uplink_load_balance").source, "lb",
      opts);
  EXPECT_NE(c.p4_code.find("#include <tna.p4>"), std::string::npos);
  EXPECT_NE(c.p4_code.find("RegisterAction<"), std::string::npos);
  EXPECT_EQ(c.p4_code.find("v1model"), std::string::npos);
}

TEST(Dialects, V1ModelUsesBmv2Constructs) {
  compiler::CompileOptions opts;
  opts.dialect = compiler::P4Dialect::kV1Model;
  const auto c = compiler::compile_checker(
      checkers::checker_by_name("dc_uplink_load_balance").source, "lb",
      opts);
  EXPECT_NE(c.p4_code.find("#include <v1model.p4>"), std::string::npos);
  EXPECT_NE(c.p4_code.find("register<bit<32>>(1)"), std::string::npos);
  EXPECT_NE(c.p4_code.find("_reg.read("), std::string::npos);
  EXPECT_NE(c.p4_code.find("standard_metadata.packet_length"),
            std::string::npos);
  EXPECT_EQ(c.p4_code.find("tna.p4"), std::string::npos);
}

TEST(Dialects, V1ModelDropAndDigest) {
  compiler::CompileOptions opts;
  opts.dialect = compiler::P4Dialect::kV1Model;
  const auto c = compiler::compile_checker(
      checkers::checker_by_name("stateful_firewall").source, "fw", opts);
  EXPECT_NE(c.p4_code.find("mark_to_drop(standard_metadata)"),
            std::string::npos);
  EXPECT_NE(c.p4_code.find("digest(HYDRA_REPORT_RECEIVER"),
            std::string::npos);
}

TEST(Dialects, BothDialectsCompileEveryLibraryChecker) {
  for (const auto& spec : checkers::all_checkers()) {
    for (auto dialect :
         {compiler::P4Dialect::kTna, compiler::P4Dialect::kV1Model}) {
      compiler::CompileOptions opts;
      opts.dialect = dialect;
      EXPECT_NO_THROW({
        const auto c =
            compiler::compile_checker(spec.source, spec.name, opts);
        EXPECT_GT(c.p4_loc, 0);
      }) << spec.name;
    }
  }
}

}  // namespace
}  // namespace hydra::net
