#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace kairos::sim {
namespace {

constexpr std::uint64_t kSlotMask = 0xffffffffull;

}  // namespace

EventId EventQueue::Schedule(Time at, EventFn fn) {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    // The free list can hold at most one entry per slot. Growing its
    // capacity here, alongside the slot table (amortized by the table's
    // geometric growth), keeps Release()'s push allocation-free at steady
    // state — the zero-alloc contract perf_suite's sustained audit gates.
    if (free_.capacity() < slots_.capacity()) {
      free_.reserve(slots_.capacity());
    }
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  heap_.push_back(Entry{at, next_seq_++, slot, s.generation});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_;
  return (static_cast<EventId>(s.generation) << 32) | slot;
}

void EventQueue::Release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn = nullptr;
  // Generation 0xFFFFFFFF is a retirement sentinel: once a slot exhausts
  // its generation space it is never reused, so a hoarded stale id can
  // never wrap around onto a future event (no ABA even across 2^32
  // schedules of one slot). Costs one dead slot per 2^32 firings.
  if (++s.generation != 0xFFFFFFFFu) free_.push_back(slot);
}

bool EventQueue::Cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & kSlotMask);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size() || slots_[slot].generation != generation) {
    return false;  // already fired, already cancelled, or slot recycled
  }
  // The heap entry normally stays behind, discarded lazily by generation
  // mismatch once it surfaces. But the common schedule-then-cancel
  // pattern (watchdogs, speculative timers) pushes a far-future entry
  // that does not sift up, so it is still the array tail: dropping the
  // tail is O(1) and keeps the heap valid.
  if (!heap_.empty() && heap_.back().slot == slot &&
      heap_.back().generation == generation) {
    heap_.pop_back();
  }
  Release(slot);
  assert(live_ > 0);
  --live_;
  return true;
}

void EventQueue::DropStaleHead() const {
  while (!heap_.empty() &&
         slots_[heap_.front().slot].generation != heap_.front().generation) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

EventQueue::Entry EventQueue::PopHead() {
  const Entry entry = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  return entry;
}

Time EventQueue::NextTime() const {
  DropStaleHead();
  return heap_.empty() ? kTimeInfinity : heap_.front().at;
}

void EventQueue::FireEntry(const Entry& entry) {
  EventFn fn = std::move(slots_[entry.slot].fn);
  // Recycle before firing: fn may schedule follow-up events and can take
  // this very slot back under a fresh generation.
  Release(entry.slot);
  --live_;
  fn();
}

Time EventQueue::RunNext() {
  DropStaleHead();
  assert(!heap_.empty());
  const Entry entry = PopHead();
  FireEntry(entry);
  return entry.at;
}

bool EventQueue::RunNextAtMost(Time until, Time* at) {
  DropStaleHead();
  if (heap_.empty() || heap_.front().at > until) return false;
  const Entry entry = PopHead();
  *at = entry.at;  // before the callback so a driver clock can alias it
  FireEntry(entry);
  return true;
}

}  // namespace kairos::sim
