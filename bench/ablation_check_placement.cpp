// Ablation for §4.3: last-hop checking (the paper's default) vs. per-hop
// checking. Per-hop rejects errant packets at the violating switch, saving
// downstream link capacity at the cost of running the checker everywhere.
//
//   $ ./ablation_check_placement [--help]
//
// --help prints this usage and exits 0 without running; any other
// argument exits 2 with the usage.
#include <cstdio>

#include "cli_parse.hpp"
#include "forwarding/source_route.hpp"
#include "hydra/hydra.hpp"
#include "net/network.hpp"

using namespace hydra;

namespace {

struct Outcome {
  std::uint64_t rejected = 0;
  std::uint64_t fabric_bytes = 0;  // bytes carried on leaf-spine links
};

Outcome run(compiler::CheckPlacement placement, int errant_packets) {
  auto fabric = net::make_leaf_spine(2, 2, 2);
  net::Network net(fabric.topo);
  auto sr = std::make_shared<fwd::SourceRouteProgram>();
  for (int sw : fabric.leaves) net.set_program(sw, sr);
  for (int sw : fabric.spines) net.set_program(sw, sr);

  compiler::CompileOptions opts;
  opts.placement = placement;
  auto checker = compile_shared(
      checkers::checker_by_name("valley_free").source, "valley_free", opts);
  const int dep = net.deploy(checker);
  configure_valley_free(net, dep, fabric);

  // Errant valley paths: up, down, up again, down, out.
  for (int i = 0; i < errant_packets; ++i) {
    p4rt::Packet p = p4rt::make_udp(1, 2, 3, 4, 400);
    fwd::set_source_route(p, {fabric.leaf_uplink_port(0),
                              fabric.spine_down_port(1),
                              fabric.leaf_uplink_port(1),
                              fabric.spine_down_port(1),
                              fabric.leaf_host_port(0)});
    net.send_from_host(fabric.hosts[0][0], std::move(p));
  }
  net.events().run();

  Outcome out;
  out.rejected = net.counters().rejected;
  for (std::size_t li = 0; li < net.link_count(); ++li) {
    const auto& link = net.link(static_cast<int>(li));
    const bool host_link =
        net.topo().node(link.spec().a.node).kind == net::NodeKind::kHost ||
        net.topo().node(link.spec().b.node).kind == net::NodeKind::kHost;
    if (host_link) continue;
    out.fabric_bytes += link.stats(0).bytes + link.stats(1).bytes;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (const auto rc = hydra::tools::Cli("[--help]").parse(argc, argv)) {
    return *rc;
  }
  std::printf("Ablation (§4.3): last-hop vs per-hop check placement, 100 "
              "errant valley packets\n\n");
  const Outcome last = run(compiler::CheckPlacement::kLastHop, 100);
  const Outcome every = run(compiler::CheckPlacement::kEveryHop, 100);
  std::printf("%-12s %10s %16s\n", "placement", "rejected", "fabric bytes");
  std::printf("%-12s %10llu %16llu\n", "last-hop",
              static_cast<unsigned long long>(last.rejected),
              static_cast<unsigned long long>(last.fabric_bytes));
  std::printf("%-12s %10llu %16llu\n", "every-hop",
              static_cast<unsigned long long>(every.rejected),
              static_cast<unsigned long long>(every.fabric_bytes));
  const double saved = 100.0 * (1.0 - static_cast<double>(every.fabric_bytes) /
                                          static_cast<double>(last.fabric_bytes));
  std::printf("\nper-hop checking rejects at the violating switch and saves "
              "%.1f%% of the fabric bytes wasted on errant packets\n"
              "(the trade-off the paper describes: less telemetry carried, "
              "earlier rejection, but checker logic on every switch).\n",
              saved);
  return every.rejected == last.rejected && every.fabric_bytes <
                 last.fabric_bytes
             ? 0
             : 1;
}
