// Test-only oracle: a deliberately naive event queue. Every scheduled event
// stays in one vector as an {at, seq, label, live} entry, and the next
// event is found by a linear scan for the live entry with the smallest
// (at, seq). No heap, no slots, no lazy deletion: correct by inspection.
// sim::EventQueue must fire the same labels at the same times, return the
// same Cancel results and report the same Size, Empty and NextTime after
// every operation.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/time.h"

namespace kairos::sim::reference {

class ReferenceEventQueue {
 public:
  /// Records an event at `at`; returns the handle Cancel takes.
  std::size_t Schedule(Time at, int label) {
    entries_.push_back({at, entries_.size(), label, true});
    ++live_;
    return entries_.size() - 1;
  }

  /// True exactly when the event was still live.
  bool Cancel(std::size_t handle) {
    const bool was_live = entries_[handle].live;
    entries_[handle].live = false;
    live_ -= was_live ? 1 : 0;
    return was_live;
  }

  std::size_t Size() const { return live_; }

  bool Empty() const { return live_ == 0; }

  Time NextTime() const {
    const std::size_t i = Earliest();
    return i == entries_.size() ? kTimeInfinity : entries_[i].at;
  }

  /// Retires the earliest live event; returns its {at, label}. Must not be
  /// called when Empty().
  std::pair<Time, int> RunNext() {
    const std::size_t i = Earliest();
    assert(i < entries_.size());
    entries_[i].live = false;
    --live_;
    return {entries_[i].at, entries_[i].label};
  }

 private:
  struct Entry {
    Time at;
    std::uint64_t seq;
    int label;
    bool live;
  };

  /// Index of the live entry with the smallest (at, seq); entries_.size()
  /// when none is live.
  std::size_t Earliest() const {
    std::size_t best = entries_.size();
    Time best_at = 0.0;
    std::uint64_t best_seq = 0;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      if (!e.live) continue;
      if (best == entries_.size() || e.at < best_at ||
          (e.at == best_at && e.seq < best_seq)) {
        best = i;
        best_at = e.at;
        best_seq = e.seq;
      }
    }
    return best;
  }

  std::vector<Entry> entries_;  ///< every event ever scheduled, by seq
  std::size_t live_ = 0;
};

}  // namespace kairos::sim::reference
