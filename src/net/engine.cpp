#include "net/engine.hpp"

#include <algorithm>
#include <cctype>
#include <limits>
#include <stdexcept>
#include <string>

namespace hydra::net {

namespace {

constexpr SimTime kInfTime = std::numeric_limits<SimTime>::infinity();

// Spin this many acquire-loads before parking on the futex-backed
// std::atomic wait. Epochs on a loaded fabric are tens of microseconds
// apart, so workers usually catch the next publish without a syscall.
constexpr int kSpinIterations = 4096;

inline std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Stable flow hash for flow-affinity sharding: FNV-1a over the packet's
// (inner) 5-tuple, falling back to the switch id for unparseable packets.
// Purely a locality/balance heuristic — in flow mode ANY assignment is
// correct (compute is read-only on shared state) — but it must be
// deterministic so profiling numbers are reproducible.
std::uint64_t flow_shard_hash(const SwitchWork& work,
                              const p4rt::Packet& pkt) {
  const p4rt::FlowId f = p4rt::flow_of(pkt);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  if (f.parsed) {
    h = fnv_mix(h, f.src_ip);
    h = fnv_mix(h, f.dst_ip);
    h = fnv_mix(h, f.src_port);
    h = fnv_mix(h, f.dst_port);
    h = fnv_mix(h, f.proto);
  } else {
    h = fnv_mix(h, static_cast<std::uint64_t>(work.sw));
  }
  return h;
}

}  // namespace

// ---------------------------------------------------------------------------
// ExecutionEngine
// ---------------------------------------------------------------------------

void ExecutionEngine::exec_inline(EventQueue& q, EventQueue::Item& item) {
  switch (item.kind) {
    case EventKind::kClosure:
      q.run_closure(item);
      break;
    case EventKind::kTick:
      item.tick->tick(item.t);
      break;
    case EventKind::kPacketSend:
      net_->deliver_packet(item.work);
      break;
    case EventKind::kSwitchWork:
      net_->process_hop_serial(item.t, std::move(item.work));
      break;
  }
}

void ExecutionEngine::drain_spawned_before(EventQueue& q, SimTime t) {
  // Items spawned while draining carry larger seqs than every window item,
  // so a strict time comparison reproduces full (t, seq) order. Switch
  // work landing here is unreachable while the lookahead invariant holds;
  // exec_inline runs it serially, keeping even a violated invariant
  // deterministic.
  while (!q.empty() && q.next_time() < t) {
    EventQueue::Item item = q.pop_next();
    q.advance_now(item.t);
    exec_inline(q, item);
  }
}

// ---------------------------------------------------------------------------
// SerialEngine
// ---------------------------------------------------------------------------

void SerialEngine::drain(EventQueue& q, SimTime limit) {
  // Null unless profiling / streaming export is armed; one branch per
  // event otherwise.
  obs::EngineProfiler* prof = net_->engine_profiler_ptr();
  obs::ExportScheduler* sched = net_->export_scheduler_ptr();
  while (q.has_ready(limit)) {
    EventQueue::Item item = q.pop_next();
    // Export ticks fire on the event timeline: every tick T <= item.t is
    // captured after all events with t < T committed and before this event
    // runs. The parallel engine reproduces the same boundary (it never
    // lets a window cross a pending tick), so the sample sequence is
    // engine-invariant.
    if (sched != nullptr && item.t >= sched->next_tick()) {
      net_->export_tick_until(item.t);
    }
    q.advance_now(item.t);
    if (item.is_switch_work()) {
      if (prof != nullptr) {
        const double t0 = prof->now_us();
        net_->process_hop_serial(item.t, std::move(item.work));
        prof->serial_hop(t0, prof->now_us());
      } else {
        net_->process_hop_serial(item.t, std::move(item.work));
      }
    } else {
      exec_inline(q, item);
    }
  }
}

// ---------------------------------------------------------------------------
// ParallelEngine
// ---------------------------------------------------------------------------

ParallelEngine::ParallelEngine(Network& net, int workers)
    : ExecutionEngine(net), workers_(workers) {
  if (workers_ < 1) {
    throw std::invalid_argument("parallel engine needs >= 1 worker");
  }
  errors_.assign(static_cast<std::size_t>(workers_), nullptr);
  slice_begin_.assign(static_cast<std::size_t>(workers_) + 1, 0);
  threads_.reserve(static_cast<std::size_t>(workers_ - 1));
  for (int w = 1; w < workers_; ++w) {
    threads_.emplace_back([this, w] { worker_main(w); });
  }
}

ParallelEngine::~ParallelEngine() {
  stop_.store(true, std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  for (auto& t : threads_) t.join();
}

void ParallelEngine::worker_main(int worker) {
  std::uint64_t seen = 0;
  for (;;) {
    std::uint64_t e = epoch_.load(std::memory_order_acquire);
    for (int spin = 0; e == seen && spin < kSpinIterations; ++spin) {
      e = epoch_.load(std::memory_order_acquire);
    }
    while (e == seen) {
      epoch_.wait(seen, std::memory_order_acquire);
      e = epoch_.load(std::memory_order_acquire);
    }
    seen = e;
    if (stop_.load(std::memory_order_relaxed)) return;
    compute_slice(worker);
    if (remaining_.fetch_sub(1, std::memory_order_release) == 1) {
      remaining_.notify_one();
    }
  }
}

void ParallelEngine::compute_slice(int worker) {
  try {
    const double t0 = prof_ != nullptr ? prof_->now_us() : 0.0;
    ExecContext& ctx = net_->context(worker);
    const std::uint32_t begin = slice_begin_[static_cast<std::size_t>(worker)];
    const std::uint32_t end =
        slice_begin_[static_cast<std::size_t>(worker) + 1];
    for (std::uint32_t k = begin; k < end; ++k) {
      const std::uint32_t i = slice_items_[k];
      EventQueue::Item& item = window_[i];
      net_->compute_hop(ctx, item.t, item.work, results_[i]);
    }
    if (prof_ != nullptr) {
      prof_->compute(worker, t0, prof_->now_us(), end - begin);
    }
  } catch (...) {
    errors_[static_cast<std::size_t>(worker)] = std::current_exception();
  }
}

void ParallelEngine::plan_switch_groups() {
  const auto nodes = static_cast<std::size_t>(net_->topo().node_count());
  if (sw_count_.size() < nodes) {
    sw_count_.resize(nodes, 0);
    sw_shard_.resize(nodes, 0);
  }
  item_shard_.assign(window_.size(), kNoShard);
  sw_touched_.clear();
  for (const auto& item : window_) {
    if (!item.is_switch_work()) continue;
    if (sw_count_[static_cast<std::size_t>(item.work.sw)]++ == 0) {
      sw_touched_.push_back(item.work.sw);
    }
  }
  // Greedy LPT bin-packing: heaviest switch first onto the least-loaded
  // worker. Ties break by id (switches) and index (workers), keeping the
  // plan — and thus profiling output — deterministic.
  std::sort(sw_touched_.begin(), sw_touched_.end(), [this](int a, int b) {
    const std::uint32_t ca = sw_count_[static_cast<std::size_t>(a)];
    const std::uint32_t cb = sw_count_[static_cast<std::size_t>(b)];
    return ca != cb ? ca > cb : a < b;
  });
  shard_load_.assign(static_cast<std::size_t>(workers_), 0);
  for (const int sw : sw_touched_) {
    std::size_t best = 0;
    for (std::size_t s = 1; s < shard_load_.size(); ++s) {
      if (shard_load_[s] < shard_load_[best]) best = s;
    }
    sw_shard_[static_cast<std::size_t>(sw)] = static_cast<int>(best);
    shard_load_[best] += sw_count_[static_cast<std::size_t>(sw)];
    sw_count_[static_cast<std::size_t>(sw)] = 0;  // zeroed for next window
  }
  for (std::size_t i = 0; i < window_.size(); ++i) {
    const auto& item = window_[i];
    if (!item.is_switch_work()) continue;
    item_shard_[i] = static_cast<std::uint32_t>(
        sw_shard_[static_cast<std::size_t>(item.work.sw)]);
  }
}

void ParallelEngine::plan_flow_affinity() {
  item_shard_.assign(window_.size(), kNoShard);
  const auto w = static_cast<std::uint64_t>(workers_);
  for (std::size_t i = 0; i < window_.size(); ++i) {
    const auto& item = window_[i];
    if (!item.is_switch_work()) continue;
    item_shard_[i] = static_cast<std::uint32_t>(
        flow_shard_hash(item.work, net_->packet(item.work.pkt)) % w);
  }
}

void ParallelEngine::bucket_slices() {
  // Counting sort of window indices by shard: stable, so each slice keeps
  // (t, seq) order; one allocation-free pass in steady state.
  std::fill(slice_begin_.begin(), slice_begin_.end(), 0u);
  for (const std::uint32_t s : item_shard_) {
    if (s != kNoShard) ++slice_begin_[s + 1];
  }
  for (std::size_t s = 1; s < slice_begin_.size(); ++s) {
    slice_begin_[s] += slice_begin_[s - 1];
  }
  slice_fill_.assign(slice_begin_.begin(), slice_begin_.end() - 1);
  slice_items_.resize(slice_begin_.back());
  for (std::size_t i = 0; i < item_shard_.size(); ++i) {
    const std::uint32_t s = item_shard_[i];
    if (s == kNoShard) continue;
    slice_items_[slice_fill_[s]++] = static_cast<std::uint32_t>(i);
  }
}

void ParallelEngine::set_flow_tables(bool on) {
  if (shared_tables_on_ == on) return;
  net_->set_concurrent_tables(on);
  shared_tables_on_ = on;
}

void ParallelEngine::run_window_serial(EventQueue& q) {
  std::size_t pend = q.pending();
  SimTime head = pend > 0 ? q.next_time() : kInfTime;
  for (auto& item : window_) {
    if (head < item.t) {
      drain_spawned_before(q, item.t);
      pend = q.pending();
      head = pend > 0 ? q.next_time() : kInfTime;
    }
    q.advance_now(item.t);
    if (item.is_switch_work()) {
      net_->process_hop_serial(item.t, std::move(item.work));
    } else {
      exec_inline(q, item);
    }
    const std::size_t p = q.pending();
    if (p != pend) {  // events only get added here; a change moves the head
      pend = p;
      head = p > 0 ? q.next_time() : kInfTime;
    }
  }
}

void ParallelEngine::commit_window(EventQueue& q) {
  // Batched merge check: executing an item only ever ADDS events (pops
  // happen inside drain_spawned_before, after which we refresh), so as
  // long as pending() is unchanged the cached head is exact and the
  // per-item "anything spawned before me?" probe reduces to one compare.
  // drain_spawned_before uses strict <, so head == item.t skips exactly.
  std::size_t pend = q.pending();
  SimTime head = pend > 0 ? q.next_time() : kInfTime;
  for (std::size_t i = 0; i < window_.size(); ++i) {
    EventQueue::Item& item = window_[i];
    if (head < item.t) {
      drain_spawned_before(q, item.t);
      pend = q.pending();
      head = pend > 0 ? q.next_time() : kInfTime;
    }
    q.advance_now(item.t);
    if (item.is_switch_work()) {
      net_->commit_hop(item.t, std::move(item.work), std::move(results_[i]));
    } else {
      exec_inline(q, item);
    }
    const std::size_t p = q.pending();
    if (p != pend) {
      pend = p;
      head = p > 0 ? q.next_time() : kInfTime;
    }
  }
}

void ParallelEngine::run_window(EventQueue& q) {
  const double e0 = prof_ != nullptr ? prof_->now_us() : 0.0;
  std::size_t switch_items = 0;
  bool has_control = false;
  for (const auto& item : window_) {
    if (!item.is_switch_work()) continue;
    ++switch_items;
    if (item.work.ctl != kNullHandle) has_control = true;
  }
  const std::size_t mult_used = mult_;

  // Mode selection. Closed control loop subscribed: a commit may mutate
  // state that later same-window compute reads, so fall back to serial
  // per-event execution (see the degradation rule in the header). Flow
  // mode needs the network's standing guarantees plus a control-free
  // window; otherwise switch-group sharding keeps one switch on one
  // worker.
  const char* mode = "parallel";
  if (net_->has_report_callbacks() || net_->has_control_loop()) {
    mode = "callbacks";
  } else if (workers_ == 1) {
    mode = "one_worker";
  } else if (switch_items < kDispatchThreshold) {
    mode = "small_window";
  } else if (!has_control && net_->flow_sharding_allowed()) {
    mode = "flow";
  }
  const bool serial_window = mode[0] != 'p' && mode[0] != 'f';

  if (serial_window) {
    set_flow_tables(false);
    run_window_serial(q);
    if (prof_ != nullptr) {
      prof_->epoch(e0, prof_->now_us(), window_.size(), switch_items, mode,
                   mult_used);
    }
  } else {
    // PLAN: per-worker contiguous slices, built once at pop time.
    if (mode[0] == 'f') {
      plan_flow_affinity();
    } else {
      plan_switch_groups();
    }
    bucket_slices();
    set_flow_tables(mode[0] == 'f');

    // COMPUTE: publish the window, wake the pool, take slice 0 ourselves.
    results_.resize(window_.size());
    std::fill(errors_.begin(), errors_.end(), nullptr);
    remaining_.store(workers_ - 1, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
    compute_slice(0);
    const double b0 = prof_ != nullptr ? prof_->now_us() : 0.0;
    int r = remaining_.load(std::memory_order_acquire);
    for (int spin = 0; r != 0 && spin < kSpinIterations; ++spin) {
      r = remaining_.load(std::memory_order_acquire);
    }
    while (r != 0) {
      remaining_.wait(r, std::memory_order_acquire);
      r = remaining_.load(std::memory_order_acquire);
    }
    if (prof_ != nullptr) prof_->barrier(b0, prof_->now_us());
    for (const auto& err : errors_) {
      if (err) std::rethrow_exception(err);
    }

    // COMMIT: canonical (t, seq) order, merging in spawned closures.
    const double c0 = prof_ != nullptr ? prof_->now_us() : 0.0;
    commit_window(q);
    if (prof_ != nullptr) {
      const double c1 = prof_->now_us();
      prof_->commit(c0, c1);
      prof_->epoch(e0, c1, window_.size(), switch_items, mode, mult_used);
    }
  }

  // Adapt the lookahead multiplier for the next window: grow while
  // windows are too lean to feed the pool, shrink when they balloon.
  const std::size_t target =
      static_cast<std::size_t>(workers_) * kTargetItemsPerWorker;
  if (switch_items < target) {
    if (mult_ < kMaxLookaheadMult) mult_ <<= 1;
  } else if (switch_items > 4 * target && mult_ > 1) {
    mult_ >>= 1;
  }
}

void ParallelEngine::drain(EventQueue& q, SimTime limit) {
  // Refreshed while the pool is idle; the epoch handshake publishes them.
  prof_ = net_->engine_profiler_ptr();
  sched_ = net_->export_scheduler_ptr();
  lookahead_ = net_->lookahead();
  min_spawn_delay_ = net_->min_spawn_delay();
  // Delayed rule pushes (faults armed) may schedule control work closer
  // than one lookahead ahead of "now", so extended windows are only sound
  // on fault-free runs. arm/disarm require an idle queue, so this cannot
  // change mid-drain.
  extension_allowed_ = !net_->faults_armed();
  while (q.has_ready(limit)) {
    const SimTime t0 = q.next_time();
    // Fire every export tick due at or before the queue head: all earlier
    // events have committed and the pool is quiesced between windows, so
    // the captured totals equal the serial engine's at the same boundary.
    if (sched_ != nullptr && t0 >= sched_->next_tick()) {
      net_->export_tick_until(t0);
    }
    SimTime window_end = t0 + lookahead_;
    if (extension_allowed_ && mult_ > 1) {
      // Sound extension bound (see the header): a pending closure at c
      // spawns switch work no earlier than c + L; a pending switch commit
      // at s must cross a link (+D at minimum) before the next hop's +L.
      const SimTime bound =
          std::min(q.next_closure_time() + lookahead_,
                   q.next_switch_time() + min_spawn_delay_ + lookahead_);
      window_end =
          std::min(t0 + lookahead_ * static_cast<SimTime>(mult_), bound);
      if (window_end < t0 + lookahead_) window_end = t0 + lookahead_;
    }
    // Never let a window cross a pending export tick: events at or past
    // the tick must not compute (let alone commit) before the sample is
    // captured. export_tick_until above guarantees next_tick() > t0, and
    // pop_window always takes the whole t0 group, so progress holds even
    // when the clamp shrinks the window below one lookahead.
    if (sched_ != nullptr && window_end > sched_->next_tick()) {
      window_end = sched_->next_tick();
    }
    window_.clear();
    const double p0 = prof_ != nullptr ? prof_->now_us() : 0.0;
    q.pop_window(limit, window_end, window_);
    if (prof_ != nullptr) {
      prof_->pop_window(p0, prof_->now_us(), window_.size());
    }
    run_window(q);
  }
  set_flow_tables(false);
  net_->absorb_shard_metrics();
}

// ---------------------------------------------------------------------------
// Engine spec parsing
// ---------------------------------------------------------------------------

EngineKind parse_engine_kind(const std::string& spec, int* workers_out) {
  if (spec == "serial") {
    if (workers_out != nullptr) *workers_out = 0;
    return EngineKind::kSerial;
  }
  if (spec == "parallel") {
    if (workers_out != nullptr) *workers_out = 0;
    return EngineKind::kParallel;
  }
  const std::string prefix = "parallel:";
  if (spec.rfind(prefix, 0) == 0) {
    const std::string arg = spec.substr(prefix.size());
    const bool digits =
        !arg.empty() && arg.size() <= 4 &&
        std::all_of(arg.begin(), arg.end(),
                    [](unsigned char c) { return std::isdigit(c) != 0; });
    const int n = digits ? std::stoi(arg) : 0;
    if (!digits || n < 1 || n > 1024) {
      throw std::invalid_argument(
          "bad worker count '" + arg + "' in engine spec '" + spec +
          "': expected parallel:N with N an integer in [1, 1024]");
    }
    if (workers_out != nullptr) *workers_out = n;
    return EngineKind::kParallel;
  }
  throw std::invalid_argument("unknown engine spec '" + spec +
                              "' (serial | parallel[:N])");
}

const char* engine_kind_name(EngineKind kind) {
  return kind == EngineKind::kSerial ? "serial" : "parallel";
}

}  // namespace hydra::net
