#include "net/event.hpp"

#include <limits>
#include <stdexcept>

namespace hydra::net {

namespace {
constexpr SimTime kInf = std::numeric_limits<SimTime>::infinity();

void check_not_past(SimTime t, SimTime now) {
  if (t < now) {
    throw std::invalid_argument("cannot schedule an event in the past");
  }
}
}  // namespace

void EventQueue::schedule_at(SimTime t, std::function<void()> fn) {
  check_not_past(t, now_);
  Item item;
  item.t = t;
  item.seq = next_seq_++;
  item.kind = EventKind::kClosure;
  if (free_closures_.empty()) {
    free_closures_.push_back(static_cast<std::uint32_t>(closures_.size()));
    closures_.emplace_back();
  }
  item.closure = free_closures_.back();
  free_closures_.pop_back();
  closures_[item.closure] = std::move(fn);
  cl_heap_.push(item);
}

void EventQueue::run_closure(const Item& item) {
  std::function<void()> fn = std::move(closures_[item.closure]);
  fn();
  free_closures_.push_back(item.closure);
}

void EventQueue::schedule_tick_at(SimTime t, TickTarget* target) {
  check_not_past(t, now_);
  Item item;
  item.t = t;
  item.seq = next_seq_++;
  item.kind = EventKind::kTick;
  item.tick = target;
  cl_heap_.push(item);
}

void EventQueue::schedule_packet_at(SimTime t, int dest, int dest_port,
                                    PacketHandle pkt) {
  check_not_past(t, now_);
  Item item;
  item.t = t;
  item.seq = next_seq_++;
  item.kind = EventKind::kPacketSend;
  item.work.sw = dest;
  item.work.in_port = dest_port;
  item.work.pkt = pkt;
  cl_heap_.push(item);
}

void EventQueue::schedule_switch_at(SimTime t, int sw, int in_port,
                                    PacketHandle pkt) {
  check_not_past(t, now_);
  Item item;
  item.t = t;
  item.seq = next_seq_++;
  item.kind = EventKind::kSwitchWork;
  item.work.sw = sw;
  item.work.in_port = in_port;
  item.work.pkt = pkt;
  sw_heap_.push(item);
}

void EventQueue::schedule_control_at(SimTime t, int sw, ControlHandle op) {
  check_not_past(t, now_);
  Item item;
  item.t = t;
  item.seq = next_seq_++;
  item.kind = EventKind::kSwitchWork;
  item.work.sw = sw;
  item.work.ctl = op;
  sw_heap_.push(item);
}

SimTime EventQueue::next_time() const {
  return switch_heap_first() ? sw_heap_.top().t : cl_heap_.top().t;
}

SimTime EventQueue::next_closure_time() const {
  return cl_heap_.empty() ? kInf : cl_heap_.top().t;
}

SimTime EventQueue::next_switch_time() const {
  return sw_heap_.empty() ? kInf : sw_heap_.top().t;
}

bool EventQueue::switch_heap_first() const {
  if (sw_heap_.empty()) return false;
  if (cl_heap_.empty()) return true;
  const Item& s = sw_heap_.top();
  const Item& c = cl_heap_.top();
  return s.t < c.t || (s.t == c.t && s.seq < c.seq);
}

EventQueue::Item EventQueue::pop_next() {
  Heap& heap = switch_heap_first() ? sw_heap_ : cl_heap_;
  const Item item = heap.top();
  heap.pop();
  return item;
}

void EventQueue::pop_window(SimTime limit, SimTime window_end,
                            std::vector<Item>& out) {
  if (empty()) return;
  const SimTime t0 = next_time();
  while (!empty()) {
    const SimTime t = next_time();
    if (t > limit || (t != t0 && t >= window_end)) break;
    out.push_back(pop_next());
  }
}

void EventQueue::run_self(SimTime t) {
  while (!empty() && next_time() <= t) {
    Item item = pop_next();
    now_ = item.t;
    switch (item.kind) {
      case EventKind::kClosure:
        run_closure(item);
        break;
      case EventKind::kTick:
        item.tick->tick(now_);
        break;
      case EventKind::kPacketSend:
      case EventKind::kSwitchWork:
        // Packet handles resolve through the owning Network's pools; a
        // bare queue has no way to execute them.
        throw std::logic_error(
            "network event scheduled on an EventQueue with no executor");
    }
  }
}

void EventQueue::run_until(SimTime t) {
  if (executor_ != nullptr) {
    executor_->drain(*this, t);
  } else {
    run_self(t);
  }
  if (now_ < t) now_ = t;
}

void EventQueue::run() {
  if (executor_ != nullptr) {
    executor_->drain(*this, kInf);
  } else {
    run_self(kInf);
  }
}

}  // namespace hydra::net
