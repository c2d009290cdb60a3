// Discrete-event simulator: a clock plus an event queue. The serving engine
// (serving/engine.h) drives its instances and controller through this.
#pragma once

#include <algorithm>
#include <cstddef>

#include "sim/event_queue.h"

namespace kairos::sim {

/// Deterministic single-threaded discrete-event simulator.
class Simulator {
 public:
  /// Current simulation time (seconds).
  Time Now() const { return now_; }

  /// Schedules `fn` to run `delay` seconds from now (clamped at now).
  /// Inline so the EventFn construction fuses with Schedule's slot store.
  EventId After(Time delay, EventFn fn) {
    return queue_.Schedule(now_ + std::max(0.0, delay), std::move(fn));
  }

  /// Schedules `fn` at the absolute time `at` (clamped at now).
  EventId At(Time at, EventFn fn) {
    return queue_.Schedule(std::max(now_, at), std::move(fn));
  }

  /// Cancels a scheduled event; no-op if already fired/cancelled.
  bool Cancel(EventId id) { return queue_.Cancel(id); }

  /// Runs events until the queue is empty or `until` is passed; the clock
  /// ends at the last fired event (or `until` if the horizon was hit).
  /// Returns the number of events fired.
  std::size_t RunUntil(Time until = kTimeInfinity);

  /// Fires exactly one event if any; returns whether one fired.
  bool Step();

  /// Time of the next pending event; kTimeInfinity when idle. Lets a
  /// driver (serving::Engine::AdvanceTo) fire events one at a time up to a
  /// horizon while checking its own stop conditions between events.
  Time NextEventTime() const { return queue_.NextTime(); }

  /// Moves the clock forward to `t` without firing anything (no-op when
  /// `t` is in the past). Used by streaming drivers so a quiet engine
  /// still reports Now() == the advance horizon.
  void FastForward(Time t) { now_ = std::max(now_, t); }

  /// True when no pending events remain.
  bool Idle() const { return queue_.Empty(); }

  /// Live (scheduled, not cancelled, not fired) events. The telemetry
  /// plane reads this at fleet barriers as an event-queue depth gauge.
  std::size_t PendingEvents() const { return queue_.Size(); }

 private:
  Time now_ = 0.0;
  EventQueue queue_;
};

}  // namespace kairos::sim
