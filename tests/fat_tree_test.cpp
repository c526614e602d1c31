// Fat-tree substrate tests: topology shape, routing, ECMP spreading across
// tiers, and the generalized up/down (valley-free) checker on a 3-tier
// fabric.
#include <gtest/gtest.h>

#include "forwarding/ipv4_ecmp.hpp"
#include "forwarding/source_route.hpp"
#include "hydra/hydra.hpp"
#include "net/network.hpp"
#include "wire_roundtrip.hpp"

namespace hydra {
namespace {

TEST(FatTree, K4Shape) {
  const auto ft = net::make_fat_tree(4);
  EXPECT_EQ(ft.cores.size(), 4u);       // (k/2)^2
  EXPECT_EQ(ft.aggs.size(), 4u);        // pods
  EXPECT_EQ(ft.aggs[0].size(), 2u);     // k/2 per pod
  EXPECT_EQ(ft.edges[0].size(), 2u);
  EXPECT_EQ(ft.hosts[0][0].size(), 2u); // k/2 hosts per edge
  // Total: 4 cores + 8 aggs + 8 edges + 16 hosts = 36 nodes.
  EXPECT_EQ(ft.topo.node_count(), 36);
  // Links: 16 host + 16 edge-agg + 16 agg-core = 48.
  EXPECT_EQ(ft.topo.links().size(), 48u);
}

TEST(FatTree, RejectsOddK) {
  EXPECT_THROW(net::make_fat_tree(3), std::invalid_argument);
  EXPECT_THROW(net::make_fat_tree(0), std::invalid_argument);
}

TEST(FatTree, TierClassification) {
  const auto ft = net::make_fat_tree(4);
  EXPECT_EQ(ft.tier(ft.edges[0][0]), 0);
  EXPECT_EQ(ft.tier(ft.aggs[1][1]), 1);
  EXPECT_EQ(ft.tier(ft.cores[3]), 2);
  EXPECT_EQ(ft.tier(ft.hosts[0][0][0]), -1);
}

TEST(FatTree, Addressing) {
  const auto ft = net::make_fat_tree(4);
  // 10.<pod+1>.<edge+1>.<host+2>
  EXPECT_EQ(ft.topo.node(ft.hosts[0][0][0]).ip, 0x0a010102u);
  EXPECT_EQ(ft.topo.node(ft.hosts[2][1][1]).ip, 0x0a030203u);
}

TEST(FatTree, WiringMatchesPortConventions) {
  const auto ft = net::make_fat_tree(4);
  // Edge up-port 0 reaches agg 0 of the same pod.
  const auto agg = ft.topo.peer({ft.edges[1][0], ft.edge_up_port(0)});
  ASSERT_TRUE(agg.has_value());
  EXPECT_EQ(agg->node, ft.aggs[1][0]);
  // Agg 1's core group is cores 2 and 3.
  const auto core = ft.topo.peer({ft.aggs[1][1], ft.agg_up_port(1)});
  ASSERT_TRUE(core.has_value());
  EXPECT_EQ(core->node, ft.cores[3]);
  // Core's pod port goes back to the owning agg of that pod.
  const auto back = ft.topo.peer({ft.cores[3], ft.core_pod_port(1)});
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->node, ft.aggs[1][1]);
}

struct FtFixture {
  net::FatTree ft = net::make_fat_tree(4);
  net::Network net{ft.topo};
  std::shared_ptr<fwd::Ipv4EcmpProgram> routing =
      fwd::install_fat_tree_routing(net, ft);

  void send(int src, int dst, std::uint16_t sport = 1000) {
    net.send_from_host(src, p4rt::make_udp(net.topo().node(src).ip,
                                           net.topo().node(dst).ip, sport,
                                           2000, 100));
  }
};

TEST(FatTree, AllPairsDelivery) {
  FtFixture f;
  std::vector<int> all;
  for (const auto& pod : f.ft.hosts) {
    for (const auto& edge : pod) {
      for (int h : edge) all.push_back(h);
    }
  }
  int sent = 0;
  for (int a : all) {
    for (int b : all) {
      if (a == b) continue;
      f.send(a, b, static_cast<std::uint16_t>(1000 + sent % 100));
      ++sent;
    }
  }
  f.net.events().run();
  EXPECT_EQ(f.net.counters().delivered, static_cast<std::uint64_t>(sent));
  EXPECT_EQ(f.net.counters().fwd_dropped, 0u);
}

TEST(FatTree, IntraPodTrafficStaysOffCores) {
  FtFixture f;
  // Different edges, same pod: must transit an agg but never a core.
  for (int i = 0; i < 32; ++i) {
    f.send(f.ft.hosts[0][0][0], f.ft.hosts[0][1][0],
           static_cast<std::uint16_t>(2000 + i));
  }
  f.net.events().run();
  EXPECT_EQ(f.net.counters().delivered, 32u);
  for (int core : f.ft.cores) {
    for (std::size_t li = 0; li < f.net.link_count(); ++li) {
      const auto& spec = f.net.link(static_cast<int>(li)).spec();
      if (spec.a.node == core || spec.b.node == core) {
        EXPECT_EQ(f.net.link(static_cast<int>(li)).stats(0).packets, 0u);
        EXPECT_EQ(f.net.link(static_cast<int>(li)).stats(1).packets, 0u);
      }
    }
  }
}

TEST(FatTree, CrossPodFlowsSpreadOverCores) {
  FtFixture f;
  for (int i = 0; i < 128; ++i) {
    f.send(f.ft.hosts[0][0][0], f.ft.hosts[2][0][0],
           static_cast<std::uint16_t>(3000 + i));
  }
  f.net.events().run();
  EXPECT_EQ(f.net.counters().delivered, 128u);
  int cores_used = 0;
  for (int core : f.ft.cores) {
    std::uint64_t pkts = 0;
    for (std::size_t li = 0; li < f.net.link_count(); ++li) {
      const auto& spec = f.net.link(static_cast<int>(li)).spec();
      if (spec.a.node == core || spec.b.node == core) {
        pkts += f.net.link(static_cast<int>(li)).stats(0).packets +
                f.net.link(static_cast<int>(li)).stats(1).packets;
      }
    }
    cores_used += pkts > 0 ? 1 : 0;
  }
  // ECMP at edge and agg: at least half the core group sees traffic.
  EXPECT_GE(cores_used, 2);
}

TEST(FatTree, UpDownCheckerPassesEcmpTraffic) {
  FtFixture f;
  const auto up_down = compile_library_checker("up_down_routing");
  const int dep = f.net.deploy(up_down);
  configure_up_down(f.net, dep, f.ft);
  f.net.trace_next(32);
  for (int i = 0; i < 16; ++i) {
    f.send(f.ft.hosts[0][0][0], f.ft.hosts[3][1][1],
           static_cast<std::uint16_t>(4000 + i));
    f.send(f.ft.hosts[1][0][1], f.ft.hosts[1][1][0],
           static_cast<std::uint16_t>(5000 + i));
  }
  f.net.events().run();
  EXPECT_EQ(f.net.counters().delivered, 32u);
  EXPECT_EQ(f.net.counters().rejected, 0u);
  testwire::expect_traced_frames_roundtrip(f.net, 32, {up_down});
}

TEST(FatTree, UpDownCheckerRejectsAggValley) {
  // Source-route a valley inside a pod: edge -> agg -> edge -> agg -> edge.
  net::FatTree ft = net::make_fat_tree(4);
  net::Network net(ft.topo);
  auto sr = std::make_shared<fwd::SourceRouteProgram>();
  for (int sw = 0; sw < ft.topo.node_count(); ++sw) {
    if (ft.topo.node(sw).kind == net::NodeKind::kSwitch) {
      net.set_program(sw, sr);
    }
  }
  const int dep = net.deploy(compile_library_checker("up_down_routing"));
  configure_up_down(net, dep, ft);

  p4rt::Packet p = p4rt::make_udp(1, 2, 3, 4, 64);
  fwd::set_source_route(p, {ft.edge_up_port(0),    // edge0 -> agg0 (up)
                            ft.agg_down_port(1),   // agg0 -> edge1 (down)
                            ft.edge_up_port(1),    // edge1 -> agg1 (UP: valley)
                            ft.agg_down_port(0),   // agg1 -> edge0
                            ft.edge_host_port(0)});
  net.send_from_host(ft.hosts[0][0][0], std::move(p));
  net.events().run();
  EXPECT_EQ(net.counters().rejected, 1u);
  EXPECT_EQ(net.counters().delivered, 0u);
}

TEST(FatTree, UpDownCheckerIsRelocatable) {
  compiler::CompileOptions opts;
  opts.placement = compiler::CheckPlacement::kAuto;
  const auto c = compile_library_checker("up_down_routing", opts);
  EXPECT_TRUE(c->relocatable) << c->relocation_reason;
  EXPECT_EQ(c->options.placement, compiler::CheckPlacement::kEveryHop);
}

TEST(FatTree, LargerFabricsBuildAndRoute) {
  for (int k : {6, 8}) {
    net::FatTree ft = net::make_fat_tree(k);
    net::Network net(ft.topo);
    fwd::install_fat_tree_routing(net, ft);
    net.send_from_host(
        ft.hosts[0][0][0],
        p4rt::make_udp(net.topo().node(ft.hosts[0][0][0]).ip,
                       net.topo().node(ft.hosts[k - 1][0][0]).ip, 1, 2, 64));
    net.events().run();
    EXPECT_EQ(net.counters().delivered, 1u) << "k=" << k;
  }
}

}  // namespace
}  // namespace hydra
