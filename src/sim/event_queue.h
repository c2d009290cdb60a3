// Priority event queue for the discrete-event simulator: a binary min-heap
// of (at, seq) entries over a slab of callback slots. Ties in time break
// by insertion sequence, so replays are fully deterministic. Fired and
// cancelled events return their slots to a free list, so memory is bounded
// by the number of *concurrently* pending events — long streaming runs
// (serving::Engine sources re-scheduling forever) do not grow without
// bound.
//
// Determinism contract: events fire in exactly (at, seq) order — seq is
// the global schedule counter, so equal timestamps fire FIFO — and slots
// are recycled at fixed points (on fire and on cancel), so EventIds and
// SlotCount() are a pure function of the Schedule/Cancel/RunNext
// sequence. tests/event_queue_property_test.cc pins this against the
// naive model in tests/reference_event_queue.h.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/time.h"

namespace kairos::sim {

/// Callback executed when an event fires. Move-only, with inline storage
/// sized for the engine's largest hot-path capture (48 bytes: a `this`
/// pointer, an index, a 24-byte Query and a Time), so steady-state event
/// scheduling performs no heap allocation. Larger captures fall back to
/// the heap transparently.
class EventFn {
 public:
  static constexpr std::size_t kInlineSize = 48;

  EventFn() = default;
  EventFn(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= kInlineSize &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  EventFn(EventFn&& other) noexcept { MoveFrom(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }
  EventFn& operator=(std::nullptr_t) noexcept {
    Reset();
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  /// Invokes the callback. Undefined when empty (callers guard via the
  /// slot-generation check).
  void operator()() { ops_->invoke(storage_); }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Move-constructs into `to` and destroys `from`. nullptr means the
    /// payload is trivially relocatable: a raw memcpy of the buffer moves
    /// it — the hot path for every engine lambda (POD captures) and for
    /// the heap fallback (a bare pointer).
    void (*relocate)(void* from, void* to);
    /// nullptr means trivially destructible: releasing is free.
    void (*destroy)(void* storage);
  };

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* s) { (*static_cast<D*>(s))(); },
      std::is_trivially_copyable_v<D>
          ? static_cast<void (*)(void*, void*)>(nullptr)
          : [](void* from, void* to) {
              ::new (to) D(std::move(*static_cast<D*>(from)));
              static_cast<D*>(from)->~D();
            },
      std::is_trivially_destructible_v<D>
          ? static_cast<void (*)(void*)>(nullptr)
          : [](void* s) { static_cast<D*>(s)->~D(); },
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      [](void* s) { (**static_cast<D**>(s))(); },
      nullptr,  // the stored D* relocates by memcpy
      [](void* s) { delete *static_cast<D**>(s); },
  };

  void Reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }
  void MoveFrom(EventFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      if (ops_->relocate != nullptr) {
        ops_->relocate(other.storage_, storage_);
      } else {
        std::memcpy(storage_, other.storage_, kInlineSize);
      }
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

/// Handle that allows cancelling a scheduled event. Encodes a slot index
/// plus the slot's generation at scheduling time, so a handle outlives its
/// event safely: cancelling after the event fired — even after the slot
/// was recycled for a newer event — is a guaranteed no-op.
using EventId = std::uint64_t;

/// Timestamped event queue with stable FIFO tie-breaks, O(log n)
/// scheduling and firing, lazy cancellation and free-list slot reuse.
class EventQueue {
 public:
  /// Schedules `fn` at absolute time `at`. Returns a cancellation handle.
  EventId Schedule(Time at, EventFn fn);

  /// Cancels a previously scheduled event. Cancelling an already-fired or
  /// already-cancelled event is a no-op and returns false — including when
  /// the event's slot has since been recycled for a newer event (the
  /// generation tag in the id distinguishes them).
  bool Cancel(EventId id);

  /// True when no live events remain.
  bool Empty() const { return live_ == 0; }

  /// Number of live (not cancelled, not fired) events.
  std::size_t Size() const { return live_; }

  /// Slots currently backing the queue: the high-water mark of
  /// *concurrently* scheduled events, not of events ever scheduled.
  /// Bounded under steady-state churn (see sim_test's free-list case).
  std::size_t SlotCount() const { return slots_.size(); }

  /// Time of the next live event; kTimeInfinity when empty.
  Time NextTime() const;

  /// Pops and runs the next live event; returns its time. Must not be
  /// called when Empty().
  Time RunNext();

  /// Fires the next live event only if its time is <= `until`. Writes the
  /// event's time to *at (before invoking the callback, so a driver can
  /// alias its clock) and returns true when an event fired. One advance
  /// pass instead of the NextTime-then-RunNext pair.
  bool RunNextAtMost(Time until, Time* at);

 private:
  struct Slot {
    EventFn fn;
    std::uint32_t generation = 0;  ///< bumped on release; stale ids no-op
  };
  struct Entry {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
  };
  /// Heap comparator: front() is the earliest entry in (at, seq) order.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  /// Pops heap entries whose slot was already released (cancelled events,
  /// detected by generation mismatch). Mutates only the mutable heap, so
  /// NextTime() stays const.
  void DropStaleHead() const;

  /// Removes and returns the heap's front entry.
  Entry PopHead();

  /// Fires `entry` after recycling its slot; shared by RunNext and
  /// RunNextAtMost.
  void FireEntry(const Entry& entry);

  /// Recycles a slot: frees the callback, invalidates outstanding ids.
  void Release(std::uint32_t slot);

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  ///< recycled slot indices
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  /// Min-heap on (at, seq); may hold stale entries of cancelled events.
  mutable std::vector<Entry> heap_;
};

}  // namespace kairos::sim
