#include "net/topology.hpp"

#include <algorithm>
#include <stdexcept>

namespace hydra::net {

int Topology::node_checked(int id) const {
  if (id < 0 || id >= node_count()) {
    throw std::out_of_range("node id " + std::to_string(id));
  }
  return id;
}

int Topology::add_switch(const std::string& name) {
  NodeSpec n;
  n.kind = NodeKind::kSwitch;
  n.name = name;
  nodes_.push_back(std::move(n));
  port_link_.resize(nodes_.size() * port_stride_, -1);
  return node_count() - 1;
}

int Topology::add_host(const std::string& name, std::uint32_t ip) {
  const int id = add_switch(name);
  NodeSpec& n = nodes_.back();
  n.kind = NodeKind::kHost;
  n.ip = ip;
  n.mac = 0x020000000000ULL + static_cast<std::uint64_t>(id);
  return id;
}

int Topology::add_link(PortRef a, PortRef b, double latency_s, double gbps,
                       double buffer_bytes) {
  node_checked(a.node);
  node_checked(b.node);
  if (std::min(a.port, b.port) < 0 || std::max(a.port, b.port) > kMaxPort) {
    throw std::invalid_argument("port outside [0, Topology::kMaxPort]");
  }
  if (link_index(a) != -1 || link_index(b) != -1) {
    throw std::invalid_argument("port already connected");
  }
  if (buffer_bytes <= 0.0) {
    throw std::invalid_argument("link buffer_bytes must be positive");
  }
  widen_ports(std::max(a.port, b.port));
  const int li = static_cast<int>(links_.size());
  links_.push_back({a, b, latency_s, gbps, buffer_bytes});
  port_link_[port_slot(a)] = li;
  port_link_[port_slot(b)] = li;
  return li;
}

void Topology::widen_ports(int port) {
  const auto need = static_cast<std::size_t>(port) + 1;
  if (need <= port_stride_) return;
  port_stride_ = std::min(std::max(need, 2 * port_stride_), std::size_t{kMaxPort} + 1);
  port_link_.assign(nodes_.size() * port_stride_, -1);
  for (std::size_t li = 0; li < links_.size(); ++li) {
    port_link_[port_slot(links_[li].a)] = static_cast<int>(li);
    port_link_[port_slot(links_[li].b)] = static_cast<int>(li);
  }
}

std::optional<PortRef> Topology::peer(PortRef p) const {
  const int li = link_index(p);
  if (li < 0) return std::nullopt;
  const LinkSpec& l = links_[static_cast<std::size_t>(li)];
  return l.a == p ? l.b : l.a;
}

int Topology::link_index(PortRef p) const {
  if (p.node < 0 || p.node >= node_count() || p.port < 0 ||
      static_cast<std::size_t>(p.port) >= port_stride_) {
    return -1;
  }
  return port_link_[port_slot(p)];
}

bool Topology::host_facing(PortRef p) const {
  const auto other = peer(p);
  return other && node(other->node).kind == NodeKind::kHost;
}

int Topology::find_node(const std::string& name) const {
  for (int i = 0; i < node_count(); ++i) {
    if (nodes_[static_cast<std::size_t>(i)].name == name) return i;
  }
  return -1;
}

int FatTree::tier(int node) const {
  for (const auto& pod : edges) {
    for (int e : pod) {
      if (e == node) return 0;
    }
  }
  for (const auto& pod : aggs) {
    for (int a : pod) {
      if (a == node) return 1;
    }
  }
  for (int c : cores) {
    if (c == node) return 2;
  }
  return -1;
}

FatTree make_fat_tree(int k, double host_link_gbps, double fabric_link_gbps,
                      double latency_s) {
  if (k < 2 || k % 2 != 0) {
    throw std::invalid_argument("fat tree requires an even k >= 2");
  }
  FatTree ft;
  ft.k = k;
  const int half = k / 2;

  for (int c = 0; c < half * half; ++c) {
    ft.cores.push_back(ft.topo.add_switch("core" + std::to_string(c + 1)));
  }
  ft.aggs.resize(static_cast<std::size_t>(k));
  ft.edges.resize(static_cast<std::size_t>(k));
  ft.hosts.resize(static_cast<std::size_t>(k));
  for (int p = 0; p < k; ++p) {
    for (int a = 0; a < half; ++a) {
      ft.aggs[static_cast<std::size_t>(p)].push_back(ft.topo.add_switch(
          "agg" + std::to_string(p + 1) + "_" + std::to_string(a + 1)));
    }
    ft.hosts[static_cast<std::size_t>(p)].resize(
        static_cast<std::size_t>(half));
    for (int e = 0; e < half; ++e) {
      const int edge = ft.topo.add_switch(
          "edge" + std::to_string(p + 1) + "_" + std::to_string(e + 1));
      ft.edges[static_cast<std::size_t>(p)].push_back(edge);
      for (int h = 0; h < half; ++h) {
        const std::uint32_t ip =
            ft.edge_prefix(p, e) | static_cast<std::uint32_t>(h + 2);
        const int host = ft.topo.add_host(
            std::string("h").append(std::to_string(p + 1)) + "_" +
                std::to_string(e + 1) + "_" + std::to_string(h + 1),
            ip);
        ft.hosts[static_cast<std::size_t>(p)][static_cast<std::size_t>(e)]
            .push_back(host);
        ft.topo.add_link({host, 0}, {edge, ft.edge_host_port(h)}, latency_s,
                         host_link_gbps);
      }
      // Edge up-links to every agg in the pod.
      for (int a = 0; a < half; ++a) {
        ft.topo.add_link(
            {edge, ft.edge_up_port(a)},
            {ft.aggs[static_cast<std::size_t>(p)][static_cast<std::size_t>(a)],
             ft.agg_down_port(e)},
            latency_s, fabric_link_gbps);
      }
    }
    // Agg up-links to its core group.
    for (int a = 0; a < half; ++a) {
      for (int j = 0; j < half; ++j) {
        const int core = ft.cores[static_cast<std::size_t>(a * half + j)];
        ft.topo.add_link(
            {ft.aggs[static_cast<std::size_t>(p)][static_cast<std::size_t>(a)],
             ft.agg_up_port(j)},
            {core, ft.core_pod_port(p)}, latency_s, fabric_link_gbps);
      }
    }
  }
  return ft;
}

LeafSpine make_leaf_spine(int num_leaves, int num_spines, int hosts_per_leaf,
                          double host_link_gbps, double fabric_link_gbps,
                          double latency_s) {
  if (num_leaves < 1 || num_spines < 1 || hosts_per_leaf < 1) {
    throw std::invalid_argument("leaf_spine: all dimensions must be >= 1");
  }
  LeafSpine ls;
  ls.hosts_per_leaf = hosts_per_leaf;
  for (int i = 0; i < num_leaves; ++i) {
    ls.leaves.push_back(ls.topo.add_switch("leaf" + std::to_string(i + 1)));
  }
  for (int j = 0; j < num_spines; ++j) {
    ls.spines.push_back(ls.topo.add_switch("spine" + std::to_string(j + 1)));
  }
  ls.hosts.resize(static_cast<std::size_t>(num_leaves));
  int host_counter = 0;
  for (int i = 0; i < num_leaves; ++i) {
    for (int h = 0; h < hosts_per_leaf; ++h) {
      ++host_counter;
      const std::uint32_t ip =
          (10u << 24) | (0u << 16) |
          (static_cast<std::uint32_t>(i + 1) << 8) |
          static_cast<std::uint32_t>(host_counter);
      const int host = ls.topo.add_host(
          std::string("h").append(std::to_string(host_counter)), ip);
      ls.hosts[static_cast<std::size_t>(i)].push_back(host);
      ls.topo.add_link({host, 0}, {ls.leaves[static_cast<std::size_t>(i)],
                                   ls.leaf_host_port(h)},
                       latency_s, host_link_gbps);
    }
  }
  for (int i = 0; i < num_leaves; ++i) {
    for (int j = 0; j < num_spines; ++j) {
      ls.topo.add_link({ls.leaves[static_cast<std::size_t>(i)],
                        ls.leaf_uplink_port(j)},
                       {ls.spines[static_cast<std::size_t>(j)],
                        ls.spine_down_port(i)},
                       latency_s, fabric_link_gbps);
    }
  }
  return ls;
}

}  // namespace hydra::net
