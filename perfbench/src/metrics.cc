#include "metrics.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>

namespace perfbench {
namespace {

constexpr std::size_t Index(SpanKind kind) {
  return static_cast<std::size_t>(kind);
}

double Seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Per-kind sums over a span buffer.
struct KindTotals {
  double count = 0.0;
  std::int64_t busy_ns = 0;
  std::int64_t self_ns = 0;
  std::vector<double> durations_ns;
};

bool HasAncestor(std::span<const Span> spans, const Span& span,
                 SpanKind kind) {
  for (std::uint32_t p = span.parent; p != 0 && p <= spans.size();
       p = spans[p - 1].parent) {
    if (spans[p - 1].kind == kind) return true;
  }
  return false;
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 *
      static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (rank - static_cast<double>(lo)) *
                           (samples[hi] - samples[lo]);
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

double TailLevel(std::size_t n, double wanted) {
  if (n < 10) return 0.0;
  return std::min(wanted, 100.0 * (1.0 - 10.0 / static_cast<double>(n)));
}

FastestPass Fastest(const std::vector<PassResult>& passes) {
  FastestPass fastest;
  if (passes.empty()) return fastest;
  fastest.step_ms = passes.front().step_ms;
  double rest_s = std::numeric_limits<double>::infinity();
  for (const PassResult& p : passes) {
    double steps_ms = 0.0;
    for (std::size_t k = 0; k < p.step_ms.size(); ++k) {
      steps_ms += p.step_ms[k];
      if (k < fastest.step_ms.size()) {
        fastest.step_ms[k] = std::min(fastest.step_ms[k], p.step_ms[k]);
      }
    }
    rest_s = std::min(rest_s, p.time_scale * p.wall_s - steps_ms / 1000.0);
  }
  double steps_ms = 0.0;
  for (const double ms : fastest.step_ms) steps_ms += ms;
  fastest.wall_s = steps_ms / 1000.0 + rest_s;
  return fastest;
}

std::vector<Metric> EndToEndMetrics(const std::vector<PassResult>& passes,
                                    const std::vector<double>& setup_s,
                                    double setup_scale) {
  const FastestPass fastest = Fastest(passes);
  return {
      {"setup_s", "s", setup_scale * Median(setup_s)},
      {"pass_wall_s", "s", fastest.wall_s},
      {"step_ms_p50", "ms", Percentile(fastest.step_ms, 50.0)},
      {"step_ms_p99", "ms",
       Percentile(fastest.step_ms, TailLevel(fastest.step_ms.size(), 99.0))},
      {"goodput_qps", "q/s", passes.empty() ? 0.0 : passes.front().goodput_qps},
  };
}

std::vector<Metric> LayerMetrics(std::span<const Span> spans,
                                 const ObservationTotals& totals,
                                 const std::vector<PassResult>& traced,
                                 double overhead) {
  const std::vector<std::int64_t> self = SelfTimesNs(spans);
  std::vector<KindTotals> kinds(kNumSpanKinds);
  std::int64_t plan_all_children_ns = 0;
  double replans = 0.0;
  std::int64_t replan_ns = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::int64_t duration = s.end_ns - s.start_ns;
    KindTotals& k = kinds[Index(s.kind)];
    k.count += 1.0;
    k.busy_ns += duration;
    k.self_ns += self[i];
    k.durations_ns.push_back(static_cast<double>(duration));
    if (s.parent != 0 && spans[s.parent - 1].kind == SpanKind::kPlanAll) {
      plan_all_children_ns += duration;
    }
    if (s.kind == SpanKind::kPlan &&
        HasAncestor(spans, s, SpanKind::kServeAll)) {
      replans += 1.0;
      replan_ns += duration;
    }
  }

  const double passes = std::max<double>(1.0, traced.size());
  double offered = 0.0, events = 0.0, pending_max = 0.0, windows = 0.0,
         reallocations = 0.0;
  for (const PassResult& p : traced) {
    offered += p.offered;
    events += p.events_fired;
    pending_max = std::max(pending_max, p.pending_max);
    windows += p.windows;
    reallocations += p.reallocations;
  }
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const auto per_pass_s = [&](std::int64_t ns) { return Seconds(ns) / passes; };
  // Percentile of a kind's span durations, in `scale` ns per unit.
  const auto pct = [&](SpanKind kind, double p, double scale) {
    const std::vector<double>& d = kinds[Index(kind)].durations_ns;
    return Percentile(d, p >= 90.0 ? TailLevel(d.size(), p) : p) / scale;
  };
  const KindTotals& round = kinds[Index(SpanKind::kPolicyRound)];
  const KindTotals& step = kinds[Index(SpanKind::kStep)];
  const KindTotals& next = kinds[Index(SpanKind::kSourceNext)];
  const KindTotals& eval = kinds[Index(SpanKind::kEval)];
  const KindTotals& probe = kinds[Index(SpanKind::kProbe)];
  const KindTotals& plan = kinds[Index(SpanKind::kPlan)];
  const KindTotals& plan_all = kinds[Index(SpanKind::kPlanAll)];
  const KindTotals& serve_all = kinds[Index(SpanKind::kServeAll)];
  const KindTotals& decide = kinds[Index(SpanKind::kDecide)];
  const auto rounds = static_cast<double>(totals.rounds);

  return {
      {"policy.rounds", "count", round.count / passes},
      {"policy.busy_s", "s", per_pass_s(round.busy_ns)},
      {"policy.share", "ratio",
       ratio(static_cast<double>(round.busy_ns),
             static_cast<double>(step.busy_ns))},
      {"policy.round_us_p50", "us", pct(SpanKind::kPolicyRound, 50, 1e3)},
      {"policy.round_us_p99", "us", pct(SpanKind::kPolicyRound, 99, 1e3)},
      {"policy.waiting_mean", "count", ratio(totals.waiting, rounds)},
      {"policy.idle_mean", "count", ratio(totals.idle, rounds)},
      {"policy.started_per_round", "count", ratio(totals.started, rounds)},
      {"policy.useful_ratio", "ratio",
       ratio(totals.started, totals.proposals)},
      {"assign.cells_mean", "count", ratio(totals.cells, rounds)},
      {"assign.distinct_cols_mean", "count",
       ratio(totals.distinct_cols, rounds)},
      {"serving.advance_self_s", "s", per_pass_s(step.self_ns)},
      {"serving.events_per_query", "ratio", ratio(events, offered)},
      {"serving.evals", "count", eval.count / passes},
      {"serving.eval_ms_p50", "ms", pct(SpanKind::kEval, 50, 1e6)},
      {"serving.eval_ms_p90", "ms", pct(SpanKind::kEval, 90, 1e6)},
      {"serving.eval_busy_s", "s", per_pass_s(eval.busy_ns)},
      {"sim.pending_max", "count", pending_max},
      {"workload.emissions", "count",
       static_cast<double>(totals.emissions) / passes},
      {"workload.busy_s", "s", per_pass_s(next.busy_ns)},
      {"ub.probe_calls", "count", probe.count / passes},
      {"ub.probe_busy_s", "s", per_pass_s(probe.busy_ns)},
      {"ub.probe_ms_p50", "ms", pct(SpanKind::kProbe, 50, 1e6)},
      {"ub.probe_ms_p90", "ms", pct(SpanKind::kProbe, 90, 1e6)},
      {"search.plan_calls", "count", plan.count / passes},
      {"search.self_s", "s", per_pass_s(plan.self_ns)},
      {"core.plan_self_s", "s", per_pass_s(plan_all.self_ns)},
      {"core.parallelism", "ratio",
       ratio(static_cast<double>(plan_all_children_ns),
             static_cast<double>(plan_all.busy_ns))},
      {"core.windows", "count", windows / passes},
      {"core.serve_self_s", "s", per_pass_s(serve_all.self_ns)},
      {"core.replans", "count", replans / passes},
      {"core.replan_busy_s", "s", per_pass_s(replan_ns)},
      {"core.reallocations", "count", reallocations / passes},
      {"control.decide_calls", "count", decide.count / passes},
      {"control.busy_s", "s", per_pass_s(decide.busy_ns)},
      {"control.decide_us_p99", "us", pct(SpanKind::kDecide, 99, 1e3)},
      {"control.actions", "count",
       static_cast<double>(totals.actions) / passes},
      {"trace.overhead", "ratio", overhead},
  };
}

void Merge(const ObservationTotals& pass, ObservationTotals& into) {
  into.rounds += pass.rounds;
  into.waiting += pass.waiting;
  into.idle += pass.idle;
  into.proposals += pass.proposals;
  into.started += pass.started;
  into.cells += pass.cells;
  into.distinct_cols += pass.distinct_cols;
  into.emissions += pass.emissions;
  into.actions += pass.actions;
  into.eval_ms.insert(into.eval_ms.end(), pass.eval_ms.begin(),
                      pass.eval_ms.end());
}

bool ResetPeakRss() {
  malloc_trim(0);
  // "5" resets the VmHWM high-water mark to the current resident set.
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

double PeakRssMb() {
  // VmHWM is the high-water mark of this process image. getrusage's
  // ru_maxrss would also carry the launching process's peak across exec.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string BuildInfo() {
  return std::string(PERFBENCH_BUILD_TYPE) + " (flags:" + PERFBENCH_CXX_FLAGS +
         ")";
}

}  // namespace perfbench
