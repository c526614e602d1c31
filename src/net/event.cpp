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
  heap_.push(item);
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
  heap_.push(item);
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
  heap_.push(item);
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
  heap_.push(item);
}

void EventQueue::schedule_control_at(SimTime t, int sw, ControlHandle op) {
  check_not_past(t, now_);
  Item item;
  item.t = t;
  item.seq = next_seq_++;
  item.kind = EventKind::kSwitchWork;
  item.work.sw = sw;
  item.work.ctl = op;
  heap_.push(item);
}

EventQueue::Item EventQueue::pop_next() {
  const Item item = heap_.top();
  heap_.pop();
  return item;
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
