// Source routing (§5.1, generalizing the P4 tutorial program): the sender
// pushes the full list of egress ports; each switch pops the next port off
// the stack and forwards. No routing tables, no routing protocol — exactly
// the scheme whose lack of operator control motivates the valley-free
// Hydra checker.
#pragma once

#include <vector>

#include "net/network.hpp"
#include "net/switch_node.hpp"

namespace hydra::fwd {

class SourceRouteProgram : public net::ForwardingProgram {
 public:
  Decision process(p4rt::Packet& pkt, int in_port, int switch_id) override;
  std::string name() const override { return "source-route"; }

  std::uint64_t underflow_drops() const { return underflow_drops_; }

 private:
  // Stateless apart from this total.
  std::uint64_t underflow_drops_ = 0;
};

// Pushes a hop list onto a packet. `ports` is in travel order: ports[0] is
// the egress port at the first switch. (The stack is stored reversed so
// switches pop from the back.)
void set_source_route(p4rt::Packet& pkt, const std::vector<int>& ports);

// Computes the port list for a leaf-spine path h_src -> leaf -> (spine ->
// leaf)? -> h_dst. Returns travel-order egress ports.
std::vector<int> leaf_spine_route(const net::LeafSpine& fabric, int src_host,
                                  int dst_host, int via_spine_index);

}  // namespace hydra::fwd
