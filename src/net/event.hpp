// Discrete-event simulation core. Time is in seconds (double); events with
// equal timestamps fire in scheduling order (stable), which keeps runs
// deterministic for a fixed seed.
//
// Events are TYPED, not closures-by-default. At million-session scale a
// `std::function` per scheduled event is a malloc per packet per link
// traversal; the hot-path kinds instead carry plain data (switch id, port,
// and a 32-bit arena handle to the pooled packet — see util/arena.hpp and
// Network's packet pool):
//
//   * kSwitchWork  — a packet due for pipeline processing at a switch. A
//                    switch hop is ONE event: the Network schedules it when
//                    it puts the packet on the link, at link arrival plus
//                    the switch's pipeline latency;
//   * kPacketSend  — a packet arriving at a host after a link traversal;
//   * kTick        — a periodic generator callback (TickTarget), replacing
//                    the self-rescheduling closures traffic sources used;
//   * kClosure     — the general-purpose escape hatch (tests, control
//                    logic, fault arming, control-plane ops on a switch);
//                    a slot in the closure slab.
//
// The queue itself never dereferences packet handles — only the Network
// (which owns the packet arena) does. Every kind shares one heap ordered by
// (time, seq), and seq is assigned when an event is scheduled.
//
// Draining is delegated to an EventExecutor when one is installed;
// net::Network installs itself. A bare EventQueue with no executor drains
// itself one event at a time and can run closures and ticks; packet/switch
// kinds need the owning Network.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

namespace hydra::net {

using SimTime = double;

// Arena handle into the Network-owned packet pool (util::Arena<T>::Handle).
// 32 bits, stable across slab growth; kNullHandle means "none".
using PacketHandle = std::uint32_t;
inline constexpr std::uint32_t kNullHandle = 0xffffffffu;

enum class EventKind : std::uint8_t {
  kClosure = 0,
  kTick,
  kPacketSend,
  kSwitchWork,
};

// A periodic event target: traffic generators implement this instead of
// capturing themselves in per-send closures. The target reschedules itself
// from inside tick() (via schedule_tick_in), so steady-state generation
// allocates nothing.
class TickTarget {
 public:
  virtual ~TickTarget() = default;
  virtual void tick(SimTime now) = 0;
};

// The hot-path payload: one packet at one node. For kSwitchWork, `sw` is
// the switch and `in_port` its ingress port. For kPacketSend, `sw`/`in_port`
// name the destination host and port of the link traversal. Trivially
// copyable — 12 bytes, no heap.
struct SwitchWork {
  int sw = -1;
  int in_port = -1;
  PacketHandle pkt = kNullHandle;
};

class EventQueue;

// Drains the queue up to a time limit. Implemented by net::Network;
// installed via EventQueue::set_executor.
class EventExecutor {
 public:
  virtual ~EventExecutor() = default;
  virtual void drain(EventQueue& queue, SimTime limit) = 0;
};

class EventQueue {
 public:
  // One scheduled event, plain bytes. `closure` is a slot in this queue's
  // closure slab (kClosure only); `tick` only for kTick; `work` for the
  // packet/switch kinds.
  struct Item {
    SimTime t = 0.0;
    std::uint64_t seq = 0;
    EventKind kind = EventKind::kClosure;
    std::uint32_t closure = 0;
    TickTarget* tick = nullptr;
    SwitchWork work;
  };

  SimTime now() const { return now_; }

  void schedule_at(SimTime t, std::function<void()> fn);
  void schedule_in(SimTime delay, std::function<void()> fn) {
    schedule_at(now_ + delay, std::move(fn));
  }
  // Schedules target->tick(t) at time t. The target must outlive the event
  // (generators own their lifetime; see net/traffic.hpp).
  void schedule_tick_at(SimTime t, TickTarget* target);
  void schedule_tick_in(SimTime delay, TickTarget* target) {
    schedule_tick_at(now_ + delay, target);
  }
  // Schedules delivery of pooled packet `pkt` at host `dest`'s port
  // `dest_port` (a link arrival).
  void schedule_packet_at(SimTime t, int dest, int dest_port,
                          PacketHandle pkt);
  // Schedules pipeline processing of pooled packet `pkt` at switch `sw`.
  void schedule_switch_at(SimTime t, int sw, int in_port, PacketHandle pkt);

  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }

  // Runs events until the queue is empty or `t` is passed; `now()` advances
  // to at most t. Delegates to the installed executor, if any.
  void run_until(SimTime t);
  void run();  // until empty

  // ---- executor-facing primitives ---------------------------------------
  // The executor owns the clock while draining: it must advance_now() to
  // each item's timestamp before executing it, in (t, seq) order.
  void set_executor(EventExecutor* executor) { executor_ = executor; }
  bool has_ready(SimTime limit) const {
    return !empty() && next_time() <= limit;
  }
  SimTime next_time() const { return heap_.top().t; }  // queue non-empty
  // Pops the earliest item without advancing now().
  Item pop_next();
  // Runs a kClosure item popped from THIS queue: moves the closure out of
  // its slot (it may schedule more and grow the slab), runs it, frees the
  // slot.
  void run_closure(const Item& item);
  void advance_now(SimTime t) { now_ = t; }

 private:
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      return a.t > b.t || (a.t == b.t && a.seq > b.seq);
    }
  };
  using Heap = std::priority_queue<Item, std::vector<Item>, Later>;

  void run_self(SimTime t);  // executor-free drain (standalone queues)
  // Stamps `item` with the next seq and pushes it; throws
  // std::invalid_argument for a time before now().
  void push(Item item);

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  // One heap for every kind; seq breaks timestamp ties in scheduling order.
  Heap heap_;
  // kClosure bodies, indexed by Item::closure, with a free list of slots.
  // Destroying the queue releases every closure still pending.
  std::vector<std::function<void()>> closures_;
  std::vector<std::uint32_t> free_closures_;
  EventExecutor* executor_ = nullptr;
};

static_assert(std::is_trivially_copyable_v<EventQueue::Item>);
static_assert(sizeof(EventQueue::Item) <= 48);

}  // namespace hydra::net
