// EventQueue pop order and closure lifetime: a differential test of random
// schedules, drained on a bare queue and through a Network, against a
// stable-sort reference of (t, seq) order; and the lifetime of closures
// held in the queue's slab.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <random>
#include <vector>

#include "net/event.hpp"
#include "net/faults.hpp"
#include "net/network.hpp"
#include "net/switch_node.hpp"
#include "net/topology.hpp"
#include "p4rt/packet.hpp"

namespace hydra {
namespace {

// ---------------------------------------------------------------------------
// Differential test: random schedules drained two ways against a
// stable-sort reference.
// ---------------------------------------------------------------------------

// One event as a drain observes it. The payload depends on the kind:
// closure id (a); tick target and tick number (a, b); destination node,
// port and packet tag (a, b, tag); switch, in-port and packet tag; or, for
// a control op (a closure event), switch and control tag. `controls_before`
// counts the control ops popped before this event.
struct Popped {
  double t = 0.0;
  std::uint64_t seq = 0;
  net::EventKind kind = net::EventKind::kClosure;
  int a = 0;
  int b = 0;
  std::uint64_t tag = 0;
  bool control = false;
  std::uint64_t controls_before = 0;
  bool operator==(const Popped&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Popped& p) {
  return os << "{t=" << p.t << " seq=" << p.seq
            << " kind=" << static_cast<int>(p.kind) << " a=" << p.a
            << " b=" << p.b << " tag=" << p.tag << " ctl=" << p.control
            << " ctl_before=" << p.controls_before << "}";
}

struct Schedule {
  // In scheduling order, so event i gets seq i; control ops come first
  // (the Network path schedules them through arm_faults, before the rest).
  std::vector<Popped> initial;
  // children[c]: the (delay, closure id) pairs closure c schedules when
  // it runs.
  std::vector<std::vector<std::pair<double, int>>> children;
  // Tick target i reschedules itself every period[i], count[i] ticks in all.
  std::vector<double> period;
  std::vector<int> count;
};

// Timestamps and delays sit on a 0.5 grid, so exact ties are common;
// zero delays spawn into the group being drained.
Schedule make_schedule(std::uint64_t seed, const std::vector<int>& switches,
                       const std::vector<int>& hosts) {
  std::mt19937_64 rng(seed);
  auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  auto grid = [&](int hi) { return 0.5 * pick(0, hi); };
  auto any = [&](const std::vector<int>& v) {
    return v[static_cast<std::size_t>(pick(0, static_cast<int>(v.size()) - 1))];
  };
  Schedule s;
  std::function<int(int)> closure = [&](int depth) {
    const int id = static_cast<int>(s.children.size());
    s.children.emplace_back();
    const int n = depth < 3 ? pick(0, 3) : 0;
    for (int i = 0; i < n; ++i) {
      const double delay = grid(4);
      const int child = closure(depth + 1);
      s.children[static_cast<std::size_t>(id)].push_back({delay, child});
    }
    return id;
  };
  std::uint64_t next_tag = 1;
  const int controls = pick(2, 6);
  for (int i = 0; i < controls; ++i) {
    Popped p;
    p.t = grid(20);
    p.kind = net::EventKind::kClosure;
    p.a = any(switches);
    p.tag = next_tag++;
    p.control = true;
    s.initial.push_back(p);
  }
  for (int i = 0; i < 150; ++i) {
    Popped p;
    p.t = grid(20);
    const int k = pick(0, 9);
    if (k <= 3) {
      p.kind = net::EventKind::kClosure;
      p.a = closure(0);
    } else if (k == 4) {
      p.kind = net::EventKind::kTick;
      p.a = static_cast<int>(s.period.size());
      s.period.push_back(grid(3));
      s.count.push_back(pick(1, 5));
    } else if (k <= 6) {
      p.kind = net::EventKind::kPacketSend;
      p.a = any(hosts);
      p.tag = next_tag++;
    } else {
      p.kind = net::EventKind::kSwitchWork;
      p.a = any(switches);
      p.b = pick(1, 4);
      p.tag = next_tag++;
    }
    s.initial.push_back(p);
  }
  return s;
}

// The reference: a list kept in (t, seq) order by std::stable_sort on t
// alone (ties keep insertion order, which is seq order), popped from the
// front, with each closure's and tick's spawns appended.
std::vector<Popped> reference(const Schedule& s) {
  std::vector<Popped> pending = s.initial;
  for (std::size_t i = 0; i < pending.size(); ++i) pending[i].seq = i;
  std::uint64_t next_seq = pending.size();
  std::uint64_t controls = 0;
  std::vector<Popped> out;
  while (!pending.empty()) {
    std::stable_sort(
        pending.begin(), pending.end(),
        [](const Popped& x, const Popped& y) { return x.t < y.t; });
    Popped e = pending.front();
    pending.erase(pending.begin());
    e.controls_before = controls;
    if (e.control) ++controls;
    out.push_back(e);
    if (e.kind == net::EventKind::kClosure && !e.control) {
      for (const auto& [delay, child] :
           s.children[static_cast<std::size_t>(e.a)]) {
        Popped c;
        c.t = e.t + delay;
        c.seq = next_seq++;
        c.a = child;
        pending.push_back(c);
      }
    } else if (e.kind == net::EventKind::kTick &&
               e.b + 1 < s.count[static_cast<std::size_t>(e.a)]) {
      Popped n = e;
      n.t = e.t + s.period[static_cast<std::size_t>(e.a)];
      n.seq = next_seq++;
      n.b = e.b + 1;
      pending.push_back(n);
    }
  }
  return out;
}

// Runs a schedule's closures and ticks on one queue and logs them. When
// `self_log` is set (the Network path, where the Network pops), each
// handler appends its own entry; otherwise the drain logs every popped
// item first and the handler fills in the payload only it knows.
class Runner {
 public:
  Runner(const Schedule& s, net::EventQueue& q, bool self_log,
         std::function<std::uint64_t()> controls)
      : s_(s), q_(q), self_log_(self_log), controls_(std::move(controls)) {
    for (std::size_t i = 0; i < s.period.size(); ++i) {
      tickers_.push_back(std::make_unique<Ticker>(*this, static_cast<int>(i)));
    }
  }

  std::vector<Popped> log;

  void schedule_closure(double t, int id) {
    q_.schedule_at(t, [this, id] { on_closure(id); });
  }
  void schedule_tick(double t, int id) {
    q_.schedule_tick_at(t, tickers_[static_cast<std::size_t>(id)].get());
  }
  // A control op on switch `sw`, as the Network schedules one: a closure.
  void schedule_control(double t, int sw, std::uint64_t tag) {
    q_.schedule_at(t, [this, sw, tag] {
      ASSERT_FALSE(log.empty());
      log.back().a = sw;
      log.back().tag = tag;
      log.back().control = true;
      ++popped_controls_;
    });
  }

  // A drain popped `item`: log it, then run it the way the Network would.
  void run_item(const net::EventQueue::Item& item) {
    q_.advance_now(item.t);
    Popped p;
    p.t = item.t;
    p.seq = item.seq;
    p.kind = item.kind;
    p.controls_before = popped_controls_;
    if (item.kind == net::EventKind::kPacketSend ||
        item.kind == net::EventKind::kSwitchWork) {
      p.a = item.work.sw;
      p.b = item.work.in_port;
      p.tag = item.work.pkt;
    }
    log.push_back(p);
    if (item.kind == net::EventKind::kClosure) {
      q_.run_closure(item);
    } else if (item.kind == net::EventKind::kTick) {
      item.tick->tick(item.t);
    }
  }

  // Logs a packet-carrying event observed inside a Network.
  void observe(net::EventKind kind, int a, int b, std::uint64_t tag) {
    Popped p;
    p.t = q_.now();
    p.kind = kind;
    p.a = a;
    p.b = b;
    p.tag = tag;
    p.controls_before = controls_();
    log.push_back(p);
  }

 private:
  struct Ticker : net::TickTarget {
    Ticker(Runner& d, int id) : d(d), id(id) {}
    void tick(net::SimTime) override {
      d.note(net::EventKind::kTick, id, n);
      if (++n < d.s_.count[static_cast<std::size_t>(id)]) {
        d.q_.schedule_tick_in(d.s_.period[static_cast<std::size_t>(id)],
                              this);
      }
    }
    Runner& d;
    int id;
    int n = 0;
  };

  void on_closure(int id) {
    note(net::EventKind::kClosure, id, 0);
    for (const auto& [delay, child] :
         s_.children[static_cast<std::size_t>(id)]) {
      q_.schedule_in(delay, [this, child = child] { on_closure(child); });
    }
  }

  void note(net::EventKind kind, int a, int b) {
    if (self_log_) {
      observe(kind, a, b, 0);
      return;
    }
    ASSERT_FALSE(log.empty());
    ASSERT_EQ(log.back().kind, kind);
    log.back().a = a;
    log.back().b = b;
  }

  const Schedule& s_;
  net::EventQueue& q_;
  bool self_log_;
  std::function<std::uint64_t()> controls_;
  std::uint64_t popped_controls_ = 0;
  std::vector<std::unique_ptr<Ticker>> tickers_;
};

// Schedules every initial event on a bare queue; packet payloads go in as
// raw handle values (the queue never dereferences them).
void schedule_raw(const Schedule& s, net::EventQueue& q, Runner& d) {
  for (const Popped& p : s.initial) {
    const auto tag = static_cast<std::uint32_t>(p.tag);
    switch (p.kind) {
      case net::EventKind::kClosure:
        if (p.control) {
          d.schedule_control(p.t, p.a, p.tag);
        } else {
          d.schedule_closure(p.t, p.a);
        }
        break;
      case net::EventKind::kTick: d.schedule_tick(p.t, p.a); break;
      case net::EventKind::kPacketSend:
        q.schedule_packet_at(p.t, p.a, 0, tag);
        break;
      case net::EventKind::kSwitchWork:
        q.schedule_switch_at(p.t, p.a, p.b, tag);
        break;
    }
  }
}

// Pops every ready item into the runner, as the Network would.
class RunnerExecutor : public net::EventExecutor {
 public:
  explicit RunnerExecutor(Runner& d) : d_(d) {}
  void drain(net::EventQueue& q, net::SimTime limit) override {
    while (q.has_ready(limit)) d_.run_item(q.pop_next());
  }

 private:
  Runner& d_;
};

std::vector<Popped> drain_run_until(const Schedule& s, std::mt19937_64& rng) {
  net::EventQueue q;
  Runner d(s, q, /*self_log=*/false, {});
  RunnerExecutor exec(d);
  q.set_executor(&exec);
  schedule_raw(s, q, d);
  for (double limit = 0.0; !q.empty();) {
    limit += 0.25 * static_cast<double>(rng() % 12);
    q.run_until(limit);
  }
  return d.log;
}

// Logs each switch hop it sees, then drops the packet.
class RecordingProgram : public net::ForwardingProgram {
 public:
  explicit RecordingProgram(Runner& d) : d_(d) {}
  Decision process(p4rt::Packet& pkt, int in_port, int switch_id) override {
    d_.observe(net::EventKind::kSwitchWork, switch_id, in_port, pkt.id);
    Decision drop;
    drop.drop = true;
    return drop;
  }
  std::string name() const override { return "recording"; }

 private:
  Runner& d_;
};

// The Network's own event loop pops; control ops are switch restarts armed
// through the fault plan, observed through the restart counter.
std::vector<Popped> drain_network(const Schedule& s, std::mt19937_64& rng) {
  const auto fabric = net::make_leaf_spine(2, 2, 2);
  net::Network net(fabric.topo);
  Runner d(s, net.events(), /*self_log=*/true,
           [&net] { return net.fault_stats().restarts; });
  auto prog = std::make_shared<RecordingProgram>(d);
  for (int sw : fabric.leaves) net.set_program(sw, prog);
  for (int sw : fabric.spines) net.set_program(sw, prog);
  for (const auto& leaf : fabric.hosts) {
    for (int h : leaf) {
      net.host(h).add_sink([&d, h](const p4rt::Packet& pkt, double) {
        d.observe(net::EventKind::kPacketSend, h, 0, pkt.id);
      });
    }
  }
  net::FaultPlan plan;
  for (const Popped& p : s.initial) {
    if (p.control) plan.restarts.push_back({p.a, p.t});
  }
  net.arm_faults(plan, /*seed=*/1);
  for (const Popped& p : s.initial) {
    if (p.control) continue;
    if (p.kind == net::EventKind::kClosure) {
      d.schedule_closure(p.t, p.a);
    } else if (p.kind == net::EventKind::kTick) {
      d.schedule_tick(p.t, p.a);
    } else {
      const net::PacketHandle h = net.alloc_packet();
      net.packet(h).id = p.tag;
      if (p.kind == net::EventKind::kPacketSend) {
        net.events().schedule_packet_at(p.t, p.a, 0, h);
      } else {
        net.events().schedule_switch_at(p.t, p.a, p.b, h);
      }
    }
  }
  for (double limit = 0.0; !net.events().empty();) {
    limit += 0.25 * static_cast<double>(rng() % 12);
    net.events().run_until(limit);
  }
  EXPECT_EQ(net.packets_in_flight(), 0u);
  EXPECT_EQ(net.fault_stats().restarts,
            static_cast<std::uint64_t>(std::count_if(
                s.initial.begin(), s.initial.end(),
                [](const Popped& p) { return p.control; })));
  return d.log;
}

TEST(EventQueue, RandomSchedulesPopInReferenceOrder) {
  const auto fabric = net::make_leaf_spine(2, 2, 2);
  std::vector<int> switches = fabric.leaves;
  switches.insert(switches.end(), fabric.spines.begin(), fabric.spines.end());
  std::vector<int> hosts;
  for (const auto& leaf : fabric.hosts) {
    hosts.insert(hosts.end(), leaf.begin(), leaf.end());
  }
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Schedule s = make_schedule(seed, switches, hosts);
    const std::vector<Popped> want = reference(s);
    std::mt19937_64 rng(seed * 7919);
    EXPECT_EQ(drain_run_until(s, rng), want);

    // Inside a Network only the handlers observe events: no seq, and a
    // control op shows only in the next event's controls_before.
    std::vector<Popped> observable;
    for (Popped p : want) {
      if (p.control) continue;
      p.seq = 0;
      observable.push_back(p);
    }
    EXPECT_EQ(drain_network(s, rng), observable);
  }
}

// ---------------------------------------------------------------------------
// Closure lifetime: the slab owns every closure still pending.
// ---------------------------------------------------------------------------

TEST(EventQueue, DestroyingQueueReleasesPendingClosures) {
  auto token = std::make_shared<int>(0);
  {
    net::EventQueue q;
    for (int i = 0; i < 8; ++i) {
      q.schedule_at(1.0 + i, [token] {});
    }
    q.run_until(3.5);  // three ran; their captures are gone already
    EXPECT_EQ(token.use_count(), 1 + 5);
    q.schedule_at(20.0, [token] {});  // reuses a freed slot
    (void)q.pop_next();  // popped but never run: still owned by the queue
    EXPECT_EQ(token.use_count(), 1 + 6);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, DestroyingNetworkReleasesPendingClosures) {
  auto token = std::make_shared<int>(0);
  {
    const auto fabric = net::make_leaf_spine(2, 2, 2);
    net::Network net(fabric.topo);
    for (int i = 0; i < 8; ++i) {
      net.events().schedule_at(1.0 + i, [token, &net] {
        net.events().schedule_in(100.0, [token] {});
      });
    }
    net.events().run_until(4.5);
    EXPECT_GT(token.use_count(), 1);
  }
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace hydra
