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

void EventQueue::push(Item item) {
  check_not_past(item.t, now_);
  item.seq = next_seq_++;
  heap_.push(item);
}

void EventQueue::schedule_at(SimTime t, std::function<void()> fn) {
  check_not_past(t, now_);  // before a slot is taken
  if (free_closures_.empty()) {
    free_closures_.push_back(static_cast<std::uint32_t>(closures_.size()));
    closures_.emplace_back();
  }
  const std::uint32_t slot = free_closures_.back();
  free_closures_.pop_back();
  closures_[slot] = std::move(fn);
  push({t, 0, EventKind::kClosure, slot, nullptr, {}});
}

void EventQueue::run_closure(const Item& item) {
  std::function<void()> fn = std::move(closures_[item.closure]);
  fn();
  free_closures_.push_back(item.closure);
}

void EventQueue::schedule_tick_at(SimTime t, TickTarget* target) {
  push({t, 0, EventKind::kTick, 0, target, {}});
}

void EventQueue::schedule_packet_at(SimTime t, int dest, int dest_port,
                                    PacketHandle pkt) {
  push({t, 0, EventKind::kPacketSend, 0, nullptr, {dest, dest_port, pkt}});
}

void EventQueue::schedule_switch_at(SimTime t, int sw, int in_port,
                                    PacketHandle pkt) {
  push({t, 0, EventKind::kSwitchWork, 0, nullptr, {sw, in_port, pkt}});
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
