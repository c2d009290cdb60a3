#include "span_recorder.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {
namespace {

/// Open spans of the calling thread, innermost last.
thread_local std::vector<std::uint32_t> t_open;

/// Small stable per-thread id for the trace's "tid".
std::uint32_t ThreadId() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

std::atomic<SpanRecorder*> g_active{nullptr};

constexpr const char* kNames[kNumSpanKinds] = {
    "bench.pass",   "serving.advance", "policy.round", "workload.next",
    "serving.eval", "ub.probe",        "search.plan",  "core.plan_all",
    "core.serve_all", "control.decide"};

constexpr const char* kLayers[kNumSpanKinds] = {
    "bench", "serving", "policy", "workload", "serving",
    "ub",    "search",  "core",   "core",     "control"};

}  // namespace

const char* SpanName(SpanKind kind) {
  return kNames[static_cast<std::size_t>(kind)];
}

const char* SpanLayer(SpanKind kind) {
  return kLayers[static_cast<std::size_t>(kind)];
}

SpanRecorder::SpanRecorder(std::size_t capacity)
    : buffer_(capacity), driving_thread_(std::this_thread::get_id()) {
  epoch_ns_ = NowNs();
}

std::int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
             .count() -
         epoch_ns_;
}

std::uint32_t SpanRecorder::Begin(SpanKind kind) {
  const std::size_t index = next_.fetch_add(1, std::memory_order_relaxed);
  if (index >= buffer_.size()) return 0;
  Span& span = buffer_[index];
  span.kind = kind;
  span.step = step_.load(std::memory_order_relaxed);
  span.thread = ThreadId();
  span.parent = t_open.empty() ? driving_open_.load(std::memory_order_relaxed)
                               : t_open.back();
  const auto id = static_cast<std::uint32_t>(index + 1);
  t_open.push_back(id);
  if (std::this_thread::get_id() == driving_thread_) {
    driving_open_.store(id, std::memory_order_relaxed);
  }
  span.start_ns = NowNs();
  span.end_ns = span.start_ns;
  return id;
}

void SpanRecorder::End(std::uint32_t id) {
  if (id == 0) return;
  buffer_[id - 1].end_ns = NowNs();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  if (std::this_thread::get_id() == driving_thread_) {
    driving_open_.store(t_open.empty() ? 0 : t_open.back(),
                       std::memory_order_relaxed);
  }
}

std::span<const Span> SpanRecorder::spans() const {
  const std::size_t n =
      std::min(next_.load(std::memory_order_relaxed), buffer_.size());
  return {buffer_.data(), n};
}

std::size_t SpanRecorder::dropped() const {
  const std::size_t n = next_.load(std::memory_order_relaxed);
  return n > buffer_.size() ? n - buffer_.size() : 0;
}

kairos::Status SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return kairos::Status::FailedPrecondition("cannot write trace " + path);
  }
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  const std::span<const Span> all = spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%u,\"step\":%llu}}\n",
                 i == 0 ? "" : ",", SpanName(s.kind), SpanLayer(s.kind),
                 s.thread, static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i + 1,
                 s.parent, static_cast<unsigned long long>(s.step));
  }
  std::fputs("]}\n", f);
  if (std::fclose(f) != 0) {
    return kairos::Status::FailedPrecondition("cannot finish trace " + path);
  }
  return kairos::Status::Ok();
}

SpanRecorder* ActiveRecorder() {
  return g_active.load(std::memory_order_acquire);
}

void SetActiveRecorder(SpanRecorder* recorder) {
  g_active.store(recorder, std::memory_order_release);
}

std::int64_t UnionNs(
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t total = 0;
  std::int64_t open_start = 0;
  std::int64_t open_end = 0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (end <= start) continue;
    if (open && start <= open_end) {
      open_end = std::max(open_end, end);
      continue;
    }
    if (open) total += open_end - open_start;
    open_start = start;
    open_end = end;
    open = true;
  }
  if (open) total += open_end - open_start;
  return total;
}

std::vector<std::int64_t> SelfTimesNs(std::span<const Span> spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0 || s.parent > spans.size()) continue;
    const Span& p = spans[s.parent - 1];
    const std::int64_t start = std::max(s.start_ns, p.start_ns);
    const std::int64_t end = std::min(s.end_ns, p.end_ns);
    if (end > start) children[s.parent - 1].emplace_back(start, end);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = (spans[i].end_ns - spans[i].start_ns) -
              UnionNs(std::move(children[i]));
  }
  return self;
}

}  // namespace perfbench
