// Regenerates the §5.1 case-study sweep: enumerate source-routed paths on
// the Figure 8 leaf-spine (legal valley-free paths plus sender-bug errant
// paths) and report Hydra's verdict counts — all legal delivered, all
// errant dropped.
//
//   $ ./path_validation [--help]
//
// --help prints this usage and exits 0 without running; any other
// argument exits 2 with the usage.
#include <cstdio>
#include <vector>

#include "cli_parse.hpp"
#include "forwarding/source_route.hpp"
#include "hydra/hydra.hpp"
#include "net/network.hpp"

using namespace hydra;

namespace {

struct Verdicts {
  std::uint64_t delivered = 0;
  std::uint64_t rejected = 0;
};

Verdicts sweep(int leaves, int spines, int hosts_per_leaf) {
  auto fabric = net::make_leaf_spine(leaves, spines, hosts_per_leaf);
  net::Network net(fabric.topo);
  auto sr = std::make_shared<fwd::SourceRouteProgram>();
  for (int sw : fabric.leaves) net.set_program(sw, sr);
  for (int sw : fabric.spines) net.set_program(sw, sr);
  const int dep = net.deploy(compile_library_checker("valley_free"));
  configure_valley_free(net, dep, fabric);

  std::uint64_t legal = 0;
  std::uint64_t errant = 0;
  for (std::size_t sl = 0; sl < fabric.hosts.size(); ++sl) {
    for (std::size_t dl = 0; dl < fabric.hosts.size(); ++dl) {
      for (int si = 0; si < hosts_per_leaf; ++si) {
        for (int di = 0; di < hosts_per_leaf; ++di) {
          const int src = fabric.hosts[sl][static_cast<std::size_t>(si)];
          const int dst = fabric.hosts[dl][static_cast<std::size_t>(di)];
          if (src == dst) continue;
          const int nspines = sl == dl ? 1 : spines;
          for (int sp = 0; sp < nspines; ++sp) {
            auto route = fwd::leaf_spine_route(fabric, src, dst, sp);
            p4rt::Packet p = p4rt::make_udp(1, 2, 3, 4, 64);
            fwd::set_source_route(p, route);
            net.send_from_host(src, std::move(p));
            ++legal;
            // The sender bug: append an extra up/down excursion to every
            // cross-leaf route (a valley).
            if (route.size() == 3) {
              for (int other = 0; other < spines; ++other) {
                if (other == sp) continue;
                std::vector<int> bad = {route[0], route[1],
                                        fabric.leaf_uplink_port(other),
                                        route[1], route[2]};
                p4rt::Packet q = p4rt::make_udp(1, 2, 3, 4, 64);
                fwd::set_source_route(q, bad);
                net.send_from_host(src, std::move(q));
                ++errant;
              }
            }
          }
        }
      }
    }
  }
  net.events().run();
  std::printf("  %dx%d fabric, %d hosts/leaf: %llu legal + %llu errant "
              "paths -> delivered=%llu rejected=%llu %s\n",
              leaves, spines, hosts_per_leaf,
              static_cast<unsigned long long>(legal),
              static_cast<unsigned long long>(errant),
              static_cast<unsigned long long>(net.counters().delivered),
              static_cast<unsigned long long>(net.counters().rejected),
              net.counters().delivered == legal &&
                      net.counters().rejected == errant
                  ? "[exact]"
                  : "[MISMATCH]");
  return {net.counters().delivered, net.counters().rejected};
}

}  // namespace

int main(int argc, char** argv) {
  if (const auto rc = hydra::tools::Cli("[--help]").parse(argc, argv)) {
    return *rc;
  }
  std::printf("Path validation sweep (§5.1, Figures 7/8): every valley-free "
              "path delivered, every errant path dropped\n\n");
  sweep(2, 2, 2);   // the paper's topology
  sweep(3, 2, 2);
  sweep(4, 4, 2);
  sweep(4, 4, 4);
  return 0;
}
