#include "forwarding/ipv4_ecmp.hpp"

#include <stdexcept>

namespace hydra::fwd {

void Ipv4EcmpProgram::add_route(int switch_id, std::uint32_t prefix,
                                int prefix_len, std::vector<int> ports) {
  if (ports.empty()) {
    throw std::invalid_argument("ECMP group must have at least one port");
  }
  if (switch_id < 0) {
    throw std::invalid_argument("ECMP route on negative switch id");
  }
  const auto id = static_cast<std::size_t>(switch_id);
  if (id >= switches_.size()) switches_.resize(id + 1);
  PerSwitch& sw = switches_[id];
  if (sw.groups.empty()) wire_switch(sw);
  const auto group_id = static_cast<std::uint64_t>(sw.groups.size());
  sw.groups.push_back(std::move(ports));
  const p4rt::KeyPattern route = p4rt::KeyPattern::lpm(BitVec(32, prefix),
                                                       prefix_len);
  const BitVec group(32, group_id);
  // The priority is the prefix length: longer prefixes win.
  sw.routes.insert({&route, 1}, {&group, 1}, "set_group", prefix_len);
}

void Ipv4EcmpProgram::attach_metrics(obs::Registry* registry) {
  registry_ = registry;
  for (auto& sw : switches_) {
    if (!sw.groups.empty()) wire_switch(sw);
  }
}

void Ipv4EcmpProgram::wire_switch(PerSwitch& sw) {
  p4rt::TableMetrics tm;
  if (registry_ != nullptr) {
    tm.hits = registry_->counter("fwd.ipv4_ecmp.routes.hits");
    tm.misses = registry_->counter("fwd.ipv4_ecmp.routes.misses");
    tm.cache_hits = registry_->counter("fwd.ipv4_ecmp.routes.cache_hits");
  }
  sw.routes.attach_metrics(tm);
}

std::uint64_t Ipv4EcmpProgram::flow_hash(const p4rt::Packet& pkt) {
  // FNV-1a over the 5-tuple.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  if (pkt.ipv4) {
    mix(pkt.ipv4->src);
    mix(pkt.ipv4->dst);
    mix(pkt.ipv4->proto);
  }
  if (pkt.l4) {
    mix(pkt.l4->sport);
    mix(pkt.l4->dport);
  }
  return h;
}

Ipv4EcmpProgram::Decision Ipv4EcmpProgram::process(p4rt::Packet& pkt,
                                                   int /*in_port*/,
                                                   int switch_id) {
  Decision d;
  if (!pkt.ipv4) {
    d.drop = true;
    d.reason = "no_ipv4";
    return d;
  }
  if (pkt.ipv4->ttl == 0) {
    ++ttl_drops_;
    d.drop = true;
    d.reason = "ttl_expired";
    return d;
  }
  const auto id = static_cast<std::size_t>(switch_id);
  if (switch_id < 0 || id >= switches_.size() ||
      switches_[id].groups.empty()) {
    ++miss_drops_;
    d.drop = true;
    d.reason = "unknown_switch";
    return d;
  }
  const PerSwitch& sw = switches_[id];
  const std::uint64_t dst = pkt.ipv4->dst;
  const std::int32_t row =
      sw.routes.lookup(std::span<const std::uint64_t>(&dst, 1));
  if (row < 0) {
    ++miss_drops_;
    d.drop = true;
    d.reason = "no_route";
    return d;
  }
  const auto& group =
      sw.groups[static_cast<std::size_t>(sw.routes.action_data(row)[0])];
  d.eg_port = group[flow_hash(pkt) % group.size()];
  pkt.ipv4->ttl -= 1;
  return d;
}

std::shared_ptr<Ipv4EcmpProgram> install_leaf_spine_routing(
    net::Network& net, const net::LeafSpine& fabric) {
  auto prog = std::make_shared<Ipv4EcmpProgram>();
  const int num_leaves = static_cast<int>(fabric.leaves.size());
  const int num_spines = static_cast<int>(fabric.spines.size());

  std::vector<int> uplinks;
  for (int j = 0; j < num_spines; ++j) {
    uplinks.push_back(fabric.leaf_uplink_port(j));
  }
  for (int i = 0; i < num_leaves; ++i) {
    const int leaf = fabric.leaves[static_cast<std::size_t>(i)];
    // /32 host routes on the owning leaf.
    for (int h = 0; h < fabric.hosts_per_leaf; ++h) {
      const int host = fabric.hosts[static_cast<std::size_t>(i)]
                                   [static_cast<std::size_t>(h)];
      prog->add_route(leaf, net.topo().node(host).ip, 32,
                      {fabric.leaf_host_port(h)});
    }
    // Default route: ECMP across all spines.
    prog->add_route(leaf, 0, 0, uplinks);
    net.set_program(leaf, prog);
  }
  for (int j = 0; j < num_spines; ++j) {
    const int spine = fabric.spines[static_cast<std::size_t>(j)];
    for (int i = 0; i < num_leaves; ++i) {
      const std::uint32_t subnet =
          (10u << 24) | (static_cast<std::uint32_t>(i + 1) << 8);
      prog->add_route(spine, subnet, 24, {fabric.spine_down_port(i)});
    }
    net.set_program(spine, prog);
  }
  return prog;
}

std::shared_ptr<Ipv4EcmpProgram> install_fat_tree_routing(
    net::Network& net, const net::FatTree& ft) {
  auto prog = std::make_shared<Ipv4EcmpProgram>();
  const int half = ft.k / 2;

  std::vector<int> edge_uplinks;
  std::vector<int> agg_uplinks;
  for (int i = 0; i < half; ++i) {
    edge_uplinks.push_back(ft.edge_up_port(i));
    agg_uplinks.push_back(ft.agg_up_port(i));
  }

  for (int p = 0; p < ft.k; ++p) {
    for (int e = 0; e < half; ++e) {
      const int edge =
          ft.edges[static_cast<std::size_t>(p)][static_cast<std::size_t>(e)];
      for (int h = 0; h < half; ++h) {
        const int host = ft.hosts[static_cast<std::size_t>(p)]
                                 [static_cast<std::size_t>(e)]
                                 [static_cast<std::size_t>(h)];
        prog->add_route(edge, net.topo().node(host).ip, 32,
                        {ft.edge_host_port(h)});
      }
      prog->add_route(edge, 0, 0, edge_uplinks);
      net.set_program(edge, prog);
    }
    for (int a = 0; a < half; ++a) {
      const int agg =
          ft.aggs[static_cast<std::size_t>(p)][static_cast<std::size_t>(a)];
      for (int e = 0; e < half; ++e) {
        prog->add_route(agg, ft.edge_prefix(p, e), 24,
                        {ft.agg_down_port(e)});
      }
      prog->add_route(agg, 0, 0, agg_uplinks);
      net.set_program(agg, prog);
    }
  }
  for (std::size_t c = 0; c < ft.cores.size(); ++c) {
    const int core = ft.cores[c];
    for (int p = 0; p < ft.k; ++p) {
      prog->add_route(core, ft.pod_prefix(p), 16, {ft.core_pod_port(p)});
    }
    net.set_program(core, prog);
  }
  return prog;
}

}  // namespace hydra::fwd
