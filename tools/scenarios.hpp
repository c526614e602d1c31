// The canonical scenarios hydrastat and hydrascope replay, all on a 2x2
// leaf-spine (make_leaf_spine(2, 2, 2)):
//   aether    — the §5.2 application-filtering bug: after the buggy shared
//               Applications-table update, the pre-update client's retry of
//               previously-allowed traffic is silently dropped by the UPF,
//               and the checker reports it (no_termination at the UPF leaf);
//   leafspine — stateful_firewall: one allowed flow is delivered, one
//               unsolicited flow is rejected at its last hop;
//   chaos     — the leafspine setup under the full fault plan (loss,
//               corruption, duplication, reordering, link flaps, a mid-run
//               switch restart, delayed rule pushes), driven by one seed.
//               It must never throw (damaged telemetry is rejected
//               fail-closed) and replays bit-identically per seed.
//
// `stat` is hydrastat's variant: observability turns on right after the
// deploy, and the packets of interest are traced for its narratives.
//
// The million-subscriber scenario of hydrad and bench/million_users runs on
// the same fabric and shares the aether scenario's building blocks: the UPF
// leaf, the camera-slice controller and the eNB/N3/app addressing of the
// churn generator. Each caller keeps its own order of deploy, restore and
// observability arming around them.
#pragma once

#include <cstdint>
#include <memory>

#include "aether/churn.hpp"
#include "aether/controller.hpp"
#include "forwarding/ipv4_ecmp.hpp"
#include "forwarding/upf.hpp"
#include "hydra/hydra.hpp"
#include "net/network.hpp"

namespace hydra::tools {

// The UPF's N3 address: the outer GTP-U destination of every uplink.
inline constexpr std::uint32_t kN3Ip = 0x0a0001fe;

// Leaf-spine routing on every switch, with the UPF on leaf 0.
inline std::shared_ptr<fwd::UpfProgram> install_upf_leaf(
    net::Network& net, const net::LeafSpine& fabric) {
  auto upf = std::make_shared<fwd::UpfProgram>(
      fwd::install_leaf_spine_routing(net, fabric));
  net.set_program(fabric.leaves[0], upf);
  return upf;
}

// A controller for checker deployment `dep` with the camera slice
// (slice 1) defined.
inline aether::AetherController camera_slice_controller(
    net::Network& net, std::shared_ptr<fwd::UpfProgram> upf, int dep) {
  aether::AetherController ctl(net, std::move(upf), dep);
  ctl.define_slice(aether::example_camera_slice(1));
  return ctl;
}

// Session churn on the camera slice: GTP-U uplinks from the eNB host on
// leaf 0 through the N3 address to the app host on leaf 1.
inline aether::SessionChurnGenerator::Config camera_churn(
    const net::Network& net, const net::LeafSpine& fabric,
    std::uint32_t sessions, double churn_per_s, double packets_per_s,
    std::uint64_t seed) {
  aether::SessionChurnGenerator::Config gc;
  gc.sessions = sessions;
  gc.churn_per_s = churn_per_s;
  gc.packets_per_s = packets_per_s;
  gc.slice_id = 1;
  gc.enb_host = fabric.hosts[0][0];
  gc.enb_ip = net.topo().node(fabric.hosts[0][0]).ip;
  gc.n3_ip = kN3Ip;
  gc.app_ip = net.topo().node(fabric.hosts[1][0]).ip;
  gc.seed = seed;
  return gc;
}

inline void aether_scenario(net::Network& net, const net::LeafSpine& fabric,
                            bool stat) {
  auto upf = install_upf_leaf(net, fabric);
  const int dep = net.deploy(compile_library_checker("application_filtering"));
  if (stat) net.set_observability(true);

  aether::AetherController ctl = camera_slice_controller(net, upf, dep);

  const std::uint32_t enb = net.topo().node(fabric.hosts[0][0]).ip;
  const std::uint32_t app = net.topo().node(fabric.hosts[1][0]).ip;
  const std::uint32_t ue = 0x0a640001;
  const std::uint32_t teid = 1001;

  auto uplink = [&]() {
    p4rt::Packet inner = p4rt::make_udp(ue, app, 40000, 81, 64);
    net.send_from_host(fabric.hosts[0][0],
                       p4rt::gtpu_encap(inner, enb, kN3Ip, teid));
    net.events().run();
  };

  // Attach, verify the flow works, then apply the buggy rule update. A new
  // client attaching afterwards installs the updated rule as a fresh,
  // higher-priority shared application entry — which the pre-update client
  // has no termination for.
  ctl.attach_client(1, {123450001ULL, ue, teid}, enb, kN3Ip);
  uplink();
  aether::Slice updated = aether::example_camera_slice(1);
  updated.rules[1].port_hi = 82;
  updated.rules[1].priority = 30;
  ctl.update_slice_rules(1, updated.rules);
  ctl.attach_client(1, {123459999ULL, 0x0a6400f0, 2001}, enb, kN3Ip);

  // The old client retries its previously-allowed traffic: the UPF drops
  // it silently and the checker reports it.
  if (stat) net.trace_next(1);
  uplink();
}

inline void leafspine_scenario(net::Network& net,
                               const net::LeafSpine& fabric, bool stat) {
  fwd::install_leaf_spine_routing(net, fabric);
  const int dep = net.deploy(compile_library_checker("stateful_firewall"));
  if (stat) net.set_observability(true);

  const std::uint32_t client = net.topo().node(fabric.hosts[0][0]).ip;
  const std::uint32_t server = net.topo().node(fabric.hosts[1][0]).ip;
  net.dict_insert_all(dep, "allowed", {BitVec(32, client), BitVec(32, server)},
                      {BitVec::from_bool(true)});
  net.dict_insert_all(dep, "allowed", {BitVec(32, server), BitVec(32, client)},
                      {BitVec::from_bool(true)});

  if (stat) net.trace_next(2);
  // Allowed flow: delivered end to end.
  net.send_from_host(fabric.hosts[0][0],
                     p4rt::make_udp(client, server, 40000, 80, 64));
  net.events().run();
  // Unsolicited flow from a host with no allow entry: rejected at last hop.
  const std::uint32_t intruder = net.topo().node(fabric.hosts[0][1]).ip;
  net.send_from_host(fabric.hosts[0][1],
                     p4rt::make_udp(intruder, server, 40001, 80, 64));
  net.events().run();
}

inline void chaos_scenario(net::Network& net, const net::LeafSpine& fabric,
                           std::uint64_t seed, bool stat) {
  fwd::install_leaf_spine_routing(net, fabric);
  const int dep = net.deploy(compile_library_checker("stateful_firewall"));
  if (stat) net.set_observability(true);

  net::FaultPlan plan;
  plan.loss = 0.02;
  plan.corrupt = 0.08;
  plan.duplicate = 0.03;
  plan.reorder = 0.05;
  plan.reorder_max_s = 40e-6;
  plan.flap_rate_hz = 1500.0;
  plan.flap_down_s = 150e-6;
  plan.horizon_s = 4e-3;
  plan.restarts.push_back({fabric.leaves[1], 1.2e-3});
  plan.restart_warmup_s = 400e-6;
  plan.rule_push_delay_s = 80e-6;
  plan.rule_push_jitter_s = 80e-6;
  net.arm_faults(plan, seed);

  const std::uint32_t client = net.topo().node(fabric.hosts[0][0]).ip;
  const std::uint32_t server = net.topo().node(fabric.hosts[1][0]).ip;
  const std::uint32_t intruder = net.topo().node(fabric.hosts[0][1]).ip;
  // The allow entries land late (push delay + jitter): the client's first
  // packets are rejected until the rules arrive — a transient violation
  // window the forensics annotate.
  net.dict_insert_all_delayed(dep, "allowed",
                              {BitVec(32, client), BitVec(32, server)},
                              {BitVec::from_bool(true)});
  net.dict_insert_all_delayed(dep, "allowed",
                              {BitVec(32, server), BitVec(32, client)},
                              {BitVec::from_bool(true)});

  // Deterministic traffic spread over the fault horizon: mostly the
  // allowed client flow, every fourth packet the unsolicited intruder.
  for (int i = 0; i < 240; ++i) {
    const double t = 8e-6 * (i + 1);
    const bool bad = i % 4 == 3;
    const int src_host = bad ? fabric.hosts[0][1] : fabric.hosts[0][0];
    const std::uint32_t src_ip = bad ? intruder : client;
    const auto sport = static_cast<std::uint16_t>(40000 + i % 16);
    net.events().schedule_at(t, [&net, src_host, src_ip, server, sport]() {
      net.send_from_host(src_host,
                         p4rt::make_udp(src_ip, server, sport, 80, 64));
    });
  }
  net.events().run();
}

}  // namespace hydra::tools
