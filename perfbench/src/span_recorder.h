// Span recorder for the benchmark's traced runs. Spans are timed at the
// calls the benchmark makes into each library layer (see wrappers.h) and
// kept in one pre-sized in-memory buffer; nothing is written until the
// run ends, when WriteChromeTrace() emits a Chrome trace-event JSON file
// that Perfetto loads.
//
// Begin()/End() are safe to call from several threads at once (the
// planner and evaluation wrappers run on Fleet::PlanAll's worker
// threads). Each thread keeps its own stack of open spans; a span begun
// on a thread with nothing open takes as its parent the innermost span
// open on the driving thread, so work a Fleet call fans out to its pool
// nests under that call.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// What a span times. Each kind belongs to one library layer.
enum class SpanKind : std::uint8_t {
  kPass,         ///< one set-up + timed phase of a workload (benchmark)
  kStep,         ///< serving::Engine::AdvanceTo, one fixed step (serving)
  kPolicyRound,  ///< policy::Policy::Distribute (policy)
  kSourceNext,   ///< workload::QuerySource::Next (workload)
  kEval,         ///< one search::EvalFn evaluation (serving)
  kProbe,        ///< core::PlannerBackend::Probe (ub)
  kPlan,         ///< core::PlannerBackend::Plan (search)
  kPlanAll,      ///< core::Fleet::PlanAll (core)
  kServeAll,     ///< core::Fleet::ServeAll (core)
  kDecide,       ///< control::FleetController::Decide (control)
};

inline constexpr std::size_t kNumSpanKinds = 10;

/// Span name as written to the trace ("policy.round", ...).
const char* SpanName(SpanKind kind);

/// The layer (library module) a span kind belongs to.
const char* SpanLayer(SpanKind kind);

/// One recorded span. Times are nanoseconds since the recorder started.
struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;    ///< equals start_ns while the span is open
  std::uint64_t step = 0;     ///< step id current at Begin()
  std::uint32_t parent = 0;   ///< 1-based index of the parent; 0 = root
  std::uint32_t thread = 0;   ///< small per-thread id
  SpanKind kind = SpanKind::kPass;
};

class SpanRecorder {
 public:
  /// Pre-sizes the buffer; spans beyond `capacity` are counted as dropped.
  /// The constructing thread is the driving thread.
  explicit SpanRecorder(std::size_t capacity);

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Opens a span on the calling thread; returns its 1-based id, or 0
  /// when the buffer is full.
  std::uint32_t Begin(SpanKind kind);

  /// Closes span `id` (0 is a no-op). Must be the innermost span open on
  /// the calling thread.
  void End(std::uint32_t id);

  /// Sets the step id stamped on spans begun from now on.
  void SetStep(std::uint64_t step) {
    step_.store(step, std::memory_order_relaxed);
  }

  /// The recorded spans. Only valid while no span is open on another
  /// thread (after the Fleet call that fanned out has returned).
  std::span<const Span> spans() const;

  std::size_t dropped() const;

  /// Writes every span as a Chrome trace-event "X" event.
  kairos::Status WriteChromeTrace(const std::string& path) const;

 private:
  std::int64_t NowNs() const;

  std::vector<Span> buffer_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::uint64_t> step_{0};
  /// Innermost span open on the driving thread; the parent of spans begun
  /// on threads with nothing open.
  std::atomic<std::uint32_t> driving_open_{0};
  std::thread::id driving_thread_;
  std::int64_t epoch_ns_ = 0;
};

/// The recorder the wrappers report to; nullptr (the default) means
/// tracing is off and the wrappers only forward.
SpanRecorder* ActiveRecorder();
void SetActiveRecorder(SpanRecorder* recorder);

/// Times one call: Begin() on construction, End() on destruction. A null
/// recorder makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, SpanKind kind)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->Begin(kind) : 0) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  std::uint32_t id_;
};

/// Total length of the union of half-open intervals [first, second).
std::int64_t UnionNs(std::vector<std::pair<std::int64_t, std::int64_t>>
                         intervals);

/// Self time of every span, in nanoseconds: its duration minus the union
/// of the intervals its direct children cover, clipped to the span.
/// Children that overlap each other (concurrent workers under one
/// PlanAll) are counted once.
std::vector<std::int64_t> SelfTimesNs(std::span<const Span> spans);

}  // namespace perfbench
