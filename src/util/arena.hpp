// Slab-backed typed object pools with stable 32-bit handles.
//
// The event loop at million-session scale cannot afford a malloc per
// packet, per scheduled event, or per control op: the steady-state hot
// path must run allocation-free (the same discipline obs::forensics
// applies to its flight-recorder rings). Arena<T> provides that storage
// model:
//
//   - Objects live in fixed-size slabs (arrays) that are never moved or
//     freed before the arena dies, so T* obtained from a handle stays
//     valid across any number of alloc()/free() calls — only the 32-bit
//     handle is passed around, and it survives slab growth.
//   - alloc() pops a LIFO freelist (O(1), deterministic reuse order);
//     free() pushes back. Slots are default-constructed ONCE, when their
//     slab is created, and are REUSED thereafter — an object's internal
//     buffers (vector capacity, string storage) survive recycling, which
//     is what makes the steady state allocation-free. Callers re-init
//     recycled objects themselves (e.g. Packet::reuse()).
//   - reset() returns every slot to the freelist without releasing slabs:
//     an epoch boundary, not a destructor.
//   - Every slab allocation bumps a process-wide audit counter
//     (util::arena_allocations()); benches snapshot it after warmup and
//     assert the delta stays zero to PROVE the hot path never grows.
//
// Thread-safety: none. Arenas are owned and used by the simulation thread
// only (see DESIGN.md "Arena storage").
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace hydra::util {

// Process-wide count of arena slab allocations (each is one new[] of
// slab_capacity objects). Monotonic; never reset. The "allocation-free
// steady state" claim is `arena_allocations()` not changing over a
// measurement window.
std::uint64_t arena_allocations();

namespace detail {
void note_arena_allocation(std::uint64_t n = 1);
}  // namespace detail

template <typename T>
class Arena {
 public:
  using Handle = std::uint32_t;
  static constexpr Handle kNull = 0xffffffffu;

  // `slab_capacity` objects per slab; sized so the expected working set
  // fits in a handful of slabs without making each one enormous.
  explicit Arena(std::uint32_t slab_capacity = 1024)
      : slab_capacity_(slab_capacity < 1 ? 1 : slab_capacity) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // O(1) amortized; grows a slab only when the freelist is empty.
  Handle alloc() {
    if (free_.empty()) grow();
    const Handle h = free_.back();
    free_.pop_back();
    ++live_;
    return h;
  }

  // O(1). The object is NOT destroyed — its buffers stay warm for the
  // next alloc(). Handle must be live; double-free is caller UB (the
  // tests cover the contract via the live() accounting).
  void free(Handle h) {
    free_.push_back(h);
    --live_;
  }

  T& get(Handle h) {
    return slabs_[h / slab_capacity_][h % slab_capacity_];
  }
  const T& get(Handle h) const {
    return slabs_[h / slab_capacity_][h % slab_capacity_];
  }

  // Epoch boundary: every slot back to the freelist, slabs retained.
  // Freelist order is rebuilt descending so the next alloc() sequence is
  // deterministic and slab-0-first, independent of pre-reset history.
  void reset() {
    const std::size_t cap = capacity();
    free_.clear();
    free_.reserve(cap);
    for (std::size_t i = cap; i > 0; --i) {
      free_.push_back(static_cast<Handle>(i - 1));
    }
    live_ = 0;
  }

  std::size_t live() const { return live_; }
  std::size_t capacity() const { return slabs_.size() * slab_capacity_; }
  std::uint32_t slab_capacity() const { return slab_capacity_; }

 private:
  void grow() {
    const std::size_t base = capacity();
    slabs_.push_back(std::make_unique<T[]>(slab_capacity_));
    free_.reserve(base + slab_capacity_);
    // Descending, so alloc() hands out the slab's low indices first.
    for (std::size_t i = base + slab_capacity_; i > base; --i) {
      free_.push_back(static_cast<Handle>(i - 1));
    }
    detail::note_arena_allocation();
  }

  std::uint32_t slab_capacity_;
  std::vector<std::unique_ptr<T[]>> slabs_;
  std::vector<Handle> free_;
  std::size_t live_ = 0;
};

}  // namespace hydra::util
