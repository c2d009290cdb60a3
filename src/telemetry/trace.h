// Per-shard span tracing (DESIGN.md Sec. 13). Each shard owns a bounded
// ring buffer of trace events; when a ring fills, the oldest events are
// dropped (drop counter exposed per shard). Spans carry wall-clock
// timestamps in microseconds — telemetry is observational output only and
// never feeds back into simulated time, RNG, or results.
//
// Thread safety: each shard's ring is guarded by its own mutex. The
// common case is single-writer-per-shard (uncontended lock, spans are
// coarse — per engine advance, per barrier, per planner trial — so the
// lock is nowhere near the metrics hot path), but the mutex makes
// emission safe from any thread: ServeAll's shard workers emit their
// engines' spans from pool threads.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace kairos::telemetry {

/// One recorded event. `phase` follows the Chrome trace-event convention:
/// 'X' = complete span (ts + dur), 'i' = instant event (dur unused).
struct TraceEvent {
  std::string name;            ///< span / event name, e.g. "engine.advance"
  char phase = 'X';            ///< 'X' complete span, 'i' instant
  std::uint64_t ts_us = 0;     ///< wall-clock start, µs since recorder epoch
  std::uint64_t dur_us = 0;    ///< span duration in µs ('X' only)
  std::size_t shard = 0;       ///< owning shard (Chrome tid)
  /// Flat key/value args rendered into the Chrome event's "args" object
  /// (values are emitted as JSON strings).
  std::vector<std::pair<std::string, std::string>> args;
};

/// Bounded per-shard span recorder. Construct with the shard names (same
/// order as the MetricRegistry's) and a per-shard capacity; each shard
/// keeps its newest `capacity` events and counts what it dropped.
class TraceRecorder {
 public:
  TraceRecorder(std::vector<std::string> shard_names,
                std::size_t events_per_shard);

  std::size_t num_shards() const { return shards_.size(); }
  const std::vector<std::string>& shard_names() const { return shard_names_; }
  std::size_t capacity_per_shard() const { return capacity_; }

  /// Current wall-clock time in µs since the recorder's construction.
  /// Span emitters call this once at open and once at close.
  std::uint64_t NowUs() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// Records a complete span ('X'). `shard` must be < num_shards().
  void EmitSpan(std::size_t shard, std::string name, std::uint64_t ts_us,
                std::uint64_t dur_us,
                std::vector<std::pair<std::string, std::string>> args = {});

  /// Records an instant event ('i') stamped NowUs().
  void EmitInstant(std::size_t shard, std::string name,
                   std::vector<std::pair<std::string, std::string>> args = {});

  /// Events currently held for `shard`, oldest first.
  std::vector<TraceEvent> ShardEvents(std::size_t shard) const;

  /// All shards' events, oldest first within each shard.
  std::vector<TraceEvent> AllEvents() const;

  /// Events dropped (ring overflow) for `shard` since construction/Reset.
  std::uint64_t DroppedCount(std::size_t shard) const;

  /// Sum of DroppedCount over all shards.
  std::uint64_t TotalDropped() const;

  /// Clears every ring and drop counter; the epoch is left untouched so
  /// timestamps stay monotone across a Reset.
  void Reset();

 private:
  /// One shard's bounded ring: fixed-capacity vector + rotating head.
  struct Shard {
    mutable std::mutex mu;
    std::vector<TraceEvent> ring;  ///< capacity-bounded storage
    std::size_t head = 0;          ///< next write position once full
    std::uint64_t dropped = 0;     ///< overwritten (drop-oldest) count
  };

  std::vector<std::string> shard_names_;
  std::size_t capacity_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Shard> shards_;
};

/// RAII helper: opens a span at construction, emits it at destruction.
/// Args may be attached any time before the scope closes.
class ScopedSpan {
 public:
  /// A null `recorder` makes the span a no-op (the disabled-telemetry
  /// path costs one branch).
  ScopedSpan(TraceRecorder* recorder, std::size_t shard, std::string name)
      : recorder_(recorder), shard_(shard), name_(std::move(name)),
        start_us_(recorder ? recorder->NowUs() : 0) {}

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attaches one key/value arg to the span-to-be.
  void AddArg(std::string key, std::string value) {
    if (recorder_ != nullptr) {
      args_.emplace_back(std::move(key), std::move(value));
    }
  }

  ~ScopedSpan() {
    if (recorder_ != nullptr) {
      const std::uint64_t end_us = recorder_->NowUs();
      recorder_->EmitSpan(shard_, std::move(name_), start_us_,
                          end_us - start_us_, std::move(args_));
    }
  }

 private:
  TraceRecorder* recorder_;
  std::size_t shard_;
  std::string name_;
  std::uint64_t start_us_;
  std::vector<std::pair<std::string, std::string>> args_;
};

}  // namespace kairos::telemetry
