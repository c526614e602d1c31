// Pluggable execution engines — how the event queue is drained.
//
// SerialEngine executes every event inline in (time, seq) order: the exact
// pre-engine behaviour, and the default.
//
// ParallelEngine is a conservatively-synchronized parallel discrete-event
// executor built on one structural invariant of the simulator: switch work
// (per-hop pipeline execution, the hot path) is always scheduled at least
// Network::lookahead() — the switch traversal latency L — after the event
// that creates it. The drain loop processes the queue in EPOCHS:
//
//   1. WINDOW   pop every pending event in [t0, W), where t0 is the
//               earliest pending timestamp and W is the adaptive window
//               end (below). No event executed inside the window can
//               spawn switch work that lands in it.
//   2. PLAN     assign every switch-work item to a worker slice, at pop
//               time, in one pass:
//                 * flow-affinity mode (the fast path; see below): shard
//                   by a stable hash of the packet's flow id, so hops of
//                   one flow stay on one worker while hops of one hot
//                   switch spread across all of them;
//                 * switch-group mode: greedy LPT bin-packing of the
//                   window's switches onto workers (heaviest switch
//                   first, least-loaded worker, deterministic
//                   tie-breaks), so a switch is still owned by exactly
//                   one worker per window but load balances far better
//                   than a static sw % workers split.
//               Each worker receives a contiguous, pre-bucketed slice of
//               window indices in (t, seq) order — compute never scans or
//               filters the window.
//   3. COMPUTE  workers execute their slices concurrently against their
//               own ExecContexts; all effects land in per-item
//               HopResults. The epoch handshake is two atomic words
//               (publish: epoch counter release-increment + notify;
//               finish: remaining-counter release-decrement), with a
//               short spin before parking — no mutex or condvar on the
//               per-epoch path.
//   4. COMMIT   the main thread walks the window in (t, seq) order,
//               merging in any events the commits themselves spawn inside
//               the window, advancing the clock and applying HopResults /
//               running closures exactly as the serial engine would. The
//               merge check is batched: the queue head is cached and
//               re-read only when a commit actually scheduled something,
//               so windows whose commits cannot interleave skip the
//               per-item queue probe.
//
// Adaptive lookahead: the window nominally ends at t0 + L * mult, where
// mult (a power of two in [1, 64]) grows while windows arrive with too few
// switch items to feed the pool and shrinks when windows are huge. Any
// extension beyond the base t0 + L is clamped to the sound bound
//
//     W  <=  min(c_min + L,  s_min + D + L)
//
// where c_min / s_min are the earliest pending closure / switch-work
// timestamps (EventQueue::next_closure_time / next_switch_time) and D is
// the smallest link propagation delay (Network::min_spawn_delay): a
// closure can spawn switch work no earlier than its own time + L (the only
// runtime spawn site, node_receive, adds the switch latency), and a switch
// commit must cross a link first, adding at least D before that. Extension
// is disabled entirely while faults are armed — delayed rule pushes may
// schedule control work closer than L ahead.
//
// Flow-affinity mode runs only when the configuration provably allows hops
// of the SAME switch to execute concurrently (Network::
// flow_sharding_allowed — observability off, faults disarmed, register-
// free checkers, concurrent-safe forwarding programs) and the window
// carries no control op. Table probes then route through the cache-
// bypassing p4rt::Table::lookup_shared (Network::set_concurrent_tables).
// Every other configuration uses switch-group mode, which preserves the
// one-switch-one-worker-per-window rule (and thus exact per-table cache
// behaviour and single-writer forensics rings).
//
// Reports, metrics snapshots, traces, and final register/table state are
// bit-identical to the serial engine for any worker count in every mode.
//
// Degradation rule: while report callbacks are subscribed (closed control
// loops that may mutate switch state mid-epoch), epochs are executed
// serially item by item — correctness over speed. Ditto for one-worker
// pools and windows too small to be worth a dispatch.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/event.hpp"
#include "net/network.hpp"

namespace hydra::net {

class ExecutionEngine : public EventExecutor {
 public:
  explicit ExecutionEngine(Network& net) : net_(&net) {}
  virtual const char* name() const = 0;
  virtual int workers() const = 0;

 protected:
  // Runs every event the queue holds strictly before key (`t`, `seq`) —
  // events spawned by commits into the current window — serially, exactly
  // as the serial engine would.
  void drain_spawned_before(EventQueue& q, SimTime t);

  // Executes a non-switch-work item inline: closures run from `q`, the
  // queue that popped them; tick targets tick; packet arrivals resolve
  // through the network's pools.
  void exec_inline(EventQueue& q, EventQueue::Item& item);

  Network* net_;
};

class SerialEngine final : public ExecutionEngine {
 public:
  explicit SerialEngine(Network& net) : ExecutionEngine(net) {}
  const char* name() const override { return "serial"; }
  int workers() const override { return 1; }
  void drain(EventQueue& q, SimTime limit) override;
};

class ParallelEngine final : public ExecutionEngine {
 public:
  ParallelEngine(Network& net, int workers);
  ~ParallelEngine() override;
  const char* name() const override { return "parallel"; }
  int workers() const override { return workers_; }
  void drain(EventQueue& q, SimTime limit) override;

  // Fewest switch-work items in a window worth waking the pool for;
  // smaller windows are computed inline (identical results either way).
  static constexpr std::size_t kDispatchThreshold = 2;
  // Adaptive lookahead policy: the multiplier doubles while a window's
  // switch items fall short of workers * kTargetItemsPerWorker and halves
  // above 4x that, clamped to [1, kMaxLookaheadMult].
  static constexpr std::size_t kMaxLookaheadMult = 64;
  static constexpr std::size_t kTargetItemsPerWorker = 32;

 private:
  // Sentinel shard for non-switch-work window entries.
  static constexpr std::uint32_t kNoShard = ~0u;

  void worker_main(int worker);
  // Computes every switch-work item in `worker`'s pre-bucketed slice.
  void compute_slice(int worker);
  void run_window(EventQueue& q);
  // The serial degradation path: the window in order, exactly as the
  // serial engine would run it.
  void run_window_serial(EventQueue& q);
  // Batched canonical-order commit (see COMMIT above).
  void commit_window(EventQueue& q);
  // Shard planning (PLAN above): fill item_shard_ per window index...
  void plan_switch_groups();
  void plan_flow_affinity();
  // ...then bucket the indices into per-worker contiguous slices
  // (counting sort — stable, so slices stay in (t, seq) order).
  void bucket_slices();
  // Flips the network's table-lookup path when entering/leaving
  // flow-affinity windows; idempotent via shared_tables_on_.
  void set_flow_tables(bool on);

  const int workers_;

  // Per-drain cached model constants.
  SimTime lookahead_ = 0.0;
  SimTime min_spawn_delay_ = 0.0;
  bool extension_allowed_ = false;
  // Adaptive lookahead multiplier (persists across drains; power of two).
  std::size_t mult_ = 1;
  bool shared_tables_on_ = false;

  std::vector<EventQueue::Item> window_;
  std::vector<HopResult> results_;  // parallel to window_
  std::vector<std::exception_ptr> errors_;  // per worker
  // Phase profiler, refreshed at drain entry while the pool is idle (the
  // epoch handshake publishes it to workers). Null unless armed.
  obs::EngineProfiler* prof_ = nullptr;
  // Export scheduler, same discipline: refreshed at drain entry (arming
  // requires an idle queue), consulted only on the main thread. Null
  // unless streaming export is armed — the zero-overhead branch.
  obs::ExportScheduler* sched_ = nullptr;

  // ---- pop-time shard plan (capacity reused across windows) -------------
  std::vector<std::uint32_t> item_shard_;   // per window index; kNoShard
  std::vector<std::uint32_t> slice_items_;  // window indices, by worker
  std::vector<std::uint32_t> slice_begin_;  // workers_ + 1 offsets
  std::vector<std::uint32_t> slice_fill_;   // counting-sort cursor scratch
  std::vector<std::uint32_t> sw_count_;     // per switch id, zeroed after use
  std::vector<int> sw_touched_;             // switch ids seen this window
  std::vector<int> sw_shard_;               // per switch id, this window
  std::vector<std::uint64_t> shard_load_;   // LPT accumulator

  // ---- epoch handshake ---------------------------------------------------
  // Main publishes window_/results_/slices (plain writes), then bumps
  // epoch_ with release; workers acquire it (spin, then futex-park via
  // std::atomic::wait) and see everything published before it. Each worker
  // finishes with a release decrement of remaining_; the main thread's
  // acquire of remaining_ == 0 sees every result. stop_ rides the same
  // epoch bump.
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<int> remaining_{0};
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;  // workers 1..workers_-1
};

// `spec` is "serial" or "parallel[:N]" with N in [1, 1024] — e.g.
// "parallel:4"; throws std::invalid_argument otherwise (including
// malformed or non-positive worker counts such as "parallel:0" or
// "parallel:abc"). Used by tools and benches.
EngineKind parse_engine_kind(const std::string& spec, int* workers_out);

const char* engine_kind_name(EngineKind kind);

}  // namespace hydra::net
