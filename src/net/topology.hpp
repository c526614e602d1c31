// Network topology: nodes (switches and hosts) connected by bidirectional
// links with latency and rate. Includes builders for the topologies the
// paper evaluates on: the 2x2 leaf-spine of Figure 8 / Figure 10 and
// general leaf-spine / fat-tree shapes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace hydra::net {

enum class NodeKind { kSwitch, kHost };

struct PortRef {
  int node = -1;
  int port = -1;
  bool operator==(const PortRef&) const = default;
};

struct NodeSpec {
  NodeKind kind = NodeKind::kSwitch;
  std::string name;
  // Hosts carry addressing; switches carry a numeric id used by checkers.
  std::uint32_t ip = 0;
  std::uint64_t mac = 0;
};

struct LinkSpec {
  PortRef a;
  PortRef b;
  double latency_s = 2e-6;  // per-direction propagation
  double gbps = 100.0;
  // Per-direction drop-tail buffer capacity; the default models a shallow
  // switch port buffer.
  double buffer_bytes = 1024.0 * 1024.0;
};

class Topology {
 public:
  // Ports are numbered 0..kMaxPort on every node.
  static constexpr int kMaxPort = 4095;

  int add_switch(const std::string& name);
  int add_host(const std::string& name, std::uint32_t ip);
  int add_link(PortRef a, PortRef b, double latency_s = 2e-6,
               double gbps = 100.0,
               double buffer_bytes = 1024.0 * 1024.0);

  const std::vector<NodeSpec>& nodes() const { return nodes_; }
  const std::vector<LinkSpec>& links() const { return links_; }
  const NodeSpec& node(int id) const { return nodes_[static_cast<std::size_t>(id)]; }
  int node_count() const { return static_cast<int>(nodes_.size()); }

  // Port lookups are reads of the port table below; any PortRef, even
  // one naming an unknown node or port, reads as unconnected.
  std::optional<PortRef> peer(PortRef p) const;
  int link_index(PortRef p) const;  // -1 if unconnected
  bool is_host(int node_id) const {
    return node(node_id).kind == NodeKind::kHost;
  }
  // True if the switch port faces a host (an edge port).
  bool host_facing(PortRef p) const;
  int find_node(const std::string& name) const;  // -1 if absent

 private:
  int node_checked(int id) const;
  void widen_ports(int port);  // makes the port table cover `port`
  std::size_t port_slot(PortRef p) const {
    return static_cast<std::size_t>(p.node) * port_stride_ +
           static_cast<std::size_t>(p.port);
  }

  std::vector<NodeSpec> nodes_;
  std::vector<LinkSpec> links_;
  // Link index of every (node, port), -1 where unconnected, in one flat
  // allocation at port_slot(). Ports may have gaps; add_link doubles the
  // stride (up to kMaxPort + 1) when a port falls past it.
  std::vector<int> port_link_;
  std::size_t port_stride_ = 0;
};

// A built leaf-spine fabric with its id maps. Port conventions:
//   leaf ports [1 .. H]     -> hosts
//   leaf ports [H+1 .. H+S] -> spines (port H+1+j to spine j)
//   spine ports [1 .. L]    -> leaves (port 1+i to leaf i)
//   host port 0             -> its leaf
struct LeafSpine {
  Topology topo;
  std::vector<int> leaves;              // switch ids
  std::vector<int> spines;              // switch ids
  std::vector<std::vector<int>> hosts;  // hosts[leaf][i] = host id
  int hosts_per_leaf = 0;

  int leaf_uplink_port(int spine_index) const {
    return hosts_per_leaf + 1 + spine_index;
  }
  int leaf_host_port(int host_index) const { return 1 + host_index; }
  int spine_down_port(int leaf_index) const { return 1 + leaf_index; }
};

// Hosts are addressed 10.0.<leaf+1>.<n> as in the paper's Figure 8.
LeafSpine make_leaf_spine(int num_leaves, int num_spines, int hosts_per_leaf,
                          double host_link_gbps = 10.0,
                          double fabric_link_gbps = 100.0,
                          double latency_s = 2e-6);

// A k-ary three-tier fat tree (k even): k pods of k/2 edge + k/2 agg
// switches, (k/2)^2 cores, k/2 hosts per edge. Port conventions:
//   edge  ports [1 .. k/2]     -> hosts
//   edge  ports [k/2+1 .. k]   -> aggs of its pod (in agg order)
//   agg   ports [1 .. k/2]     -> edges of its pod (in edge order)
//   agg   ports [k/2+1 .. k]   -> its core group (cores a*(k/2) + j)
//   core  port  [pod+1]        -> the owning agg of that pod
// Hosts are addressed 10.<pod+1>.<edge+1>.<host+2>; each edge owns a /24
// and each pod a /16.
struct FatTree {
  Topology topo;
  int k = 0;
  std::vector<int> cores;
  std::vector<std::vector<int>> aggs;   // aggs[pod][a]
  std::vector<std::vector<int>> edges;  // edges[pod][e]
  // hosts[pod][edge][i]
  std::vector<std::vector<std::vector<int>>> hosts;

  int edge_host_port(int host_index) const { return 1 + host_index; }
  int edge_up_port(int agg_index) const { return k / 2 + 1 + agg_index; }
  int agg_down_port(int edge_index) const { return 1 + edge_index; }
  int agg_up_port(int core_offset) const { return k / 2 + 1 + core_offset; }
  int core_pod_port(int pod) const { return 1 + pod; }
  // Tier of a switch node id: 0 = edge, 1 = agg, 2 = core; -1 for hosts.
  int tier(int node) const;
  std::uint32_t pod_prefix(int pod) const {
    return (10u << 24) | (static_cast<std::uint32_t>(pod + 1) << 16);
  }
  std::uint32_t edge_prefix(int pod, int edge) const {
    return pod_prefix(pod) | (static_cast<std::uint32_t>(edge + 1) << 8);
  }
};

FatTree make_fat_tree(int k, double host_link_gbps = 10.0,
                      double fabric_link_gbps = 40.0,
                      double latency_s = 2e-6);

}  // namespace hydra::net
