// The benchmark program. One invocation runs one workload for a fixed
// wall-clock budget and prints a readable report followed, as the last
// line of standard output, by one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// --trace 0 repeats untraced passes and reports the end-to-end metrics;
// --trace 1 alternates untraced passes with traced ones, reports the
// per-layer metrics and writes the spans as a Perfetto-loadable trace.
// Any failed output check exits with status 1 and prints no metrics.
//
//   kairos_perfbench --workload serve_stream --seed 1 --seconds 10
//       --trace 0 --out-dir .bench_build/perfbench/out
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "calibration.h"
#include "metrics.h"
#include "span_recorder.h"
#include "workloads.h"
#include "wrappers.h"

namespace {

using perfbench::Metric;
using perfbench::Mode;
using perfbench::PassResult;
using kairos::Status;
using kairos::StatusOr;
using Clock = std::chrono::steady_clock;

/// Set-ups timed back to back after the passes; setup_s is their median.
constexpr std::size_t kSetups = 50;
/// Span buffer of a traced run; traced passes stop once half is used.
constexpr std::size_t kSpanCapacity = std::size_t{1} << 20;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench/out";
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

StatusOr<Options> ParseArgs(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Status::InvalidArgument(flag + " needs a value");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        o.trace = std::stoi(value) != 0;
      } else if (flag == "--out-dir") {
        o.out_dir = value;
      } else if (flag == "--commit") {
        o.commit = value;
      } else if (flag == "--source-digest") {
        o.source_digest = value;
      } else {
        return Status::InvalidArgument("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return Status::InvalidArgument("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) return Status::InvalidArgument("--workload is required");
  if (!(o.seconds > 0.0)) return Status::InvalidArgument("--seconds must be > 0");
  return o;
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One pass: Setup() then Run(). The caller resets Observations.
StatusOr<PassResult> RunPass(perfbench::Workload& workload, Mode mode) {
  if (Status s = workload.Setup(mode); !s.ok()) return s;
  return workload.Run();
}

void PrintPass(const char* label, std::size_t index, const PassResult& p) {
  std::printf("pass %s %zu: wall %.6f s (speed scale %.4f), %zu steps, "
              "fingerprint %016llx\n",
              label, index, p.wall_s, p.time_scale, p.step_ms.size(),
              static_cast<unsigned long long>(p.fingerprint));
}

Status CheckFingerprints(const std::vector<PassResult>& passes) {
  for (const PassResult& p : passes) {
    if (p.fingerprint != passes.front().fingerprint) {
      return Status::Internal(
          "passes of one seed simulated different results (fingerprints " +
          std::to_string(passes.front().fingerprint) + " and " +
          std::to_string(p.fingerprint) + ")");
    }
  }
  return Status::Ok();
}

/// The end-to-end times combine step k of every pass, so every pass must
/// have taken the same steps.
Status CheckStepCounts(const std::vector<PassResult>& passes) {
  for (const PassResult& p : passes) {
    if (p.step_ms.size() != passes.front().step_ms.size()) {
      return Status::Internal(
          "passes of one seed took different numbers of steps (" +
          std::to_string(passes.front().step_ms.size()) + " and " +
          std::to_string(p.step_ms.size()) + ")");
    }
  }
  return Status::Ok();
}

/// Prints the end-to-end metrics that are defined on only some
/// workloads; they are reported here, not in the JSON (see METRICS.md).
void PrintWorkloadOnlyMetrics(const std::vector<PassResult>& passes) {
  const auto show = [&](const char* name, const char* unit, double value) {
    if (value < 0.0) {
      std::printf("info %s = n/a on this workload\n", name);
    } else {
      std::printf("info %s = %.17g %s\n", name, value, unit);
    }
  };
  std::vector<double> sim_qps, wall;
  for (const PassResult& p : passes) {
    sim_qps.push_back(p.sim_qps);
    wall.push_back(p.wall_s);
  }
  const PassResult& first = passes.front();
  show("sim_qps", "q/s", first.sim_qps < 0.0 ? -1.0 : perfbench::Median(sim_qps));
  // plan_wall_s is plan's raw pass wall.
  show("plan_wall_s", "s",
       first.plan_evals < 0.0 ? -1.0 : perfbench::Median(wall));
  show("plan_evals", "count", first.plan_evals);
  show("plan_qps", "q/s", first.plan_qps);
  show("failed_share", "ratio", first.failed_share);
}

struct Outcome {
  std::vector<Metric> metrics;
  std::size_t attempted = 0;  ///< none fail: a failed operation fails the run
};

StatusOr<Outcome> RunUntraced(perfbench::Workload& workload,
                              const Options& o) {
  std::vector<PassResult> passes;
  const Clock::time_point start = Clock::now();
  bool rss_per_pass = true;
  while (passes.empty() || SecondsSince(start) < o.seconds) {
    perfbench::Observations::Global().Reset();
    rss_per_pass = perfbench::ResetPeakRss() && rss_per_pass;
    auto pass = RunPass(workload, Mode::kMeasured);
    if (!pass.ok()) return pass.status();
    pass->peak_rss_mb = perfbench::PeakRssMb();
    PrintPass("untraced", passes.size() + 1, *pass);
    passes.push_back(*std::move(pass));
  }
  if (Status s = CheckFingerprints(passes); !s.ok()) return s;
  if (Status s = CheckStepCounts(passes); !s.ok()) return s;
  // Set-up is timed on its own, back to back, each followed by a speed
  // sample: a set-up timed right after a long pass runs on cold caches,
  // and mixing the two made the median jump between runs.
  std::vector<double> setup_s;
  perfbench::SpeedSampler setup_speed;
  for (std::size_t i = 0; i < kSetups; ++i) {
    const Clock::time_point t = Clock::now();
    if (Status s = workload.Setup(Mode::kMeasured); !s.ok()) return s;
    setup_s.push_back(SecondsSince(t));
    setup_speed.Sample();
  }

  Outcome out;
  for (const PassResult& p : passes) out.attempted += p.attempted;
  const std::size_t steps = passes.front().step_ms.size();
  std::printf("info step_ms_p99 is the p%.2f of %zu steps, each the fastest "
              "of %zu passes; setup_s is the median of %zu set-ups\n",
              perfbench::TailLevel(steps, 99.0), steps, passes.size(),
              setup_s.size());
  PrintWorkloadOnlyMetrics(passes);
  std::vector<double> walls, scaled_walls;
  for (const PassResult& p : passes) {
    walls.push_back(p.wall_s);
    scaled_walls.push_back(p.time_scale * p.wall_s);
  }
  std::printf("info median pass wall %.6f s raw, %.6f s scaled; raw set-up "
              "%.6f s (set-up speed scale %.4f)\n",
              perfbench::Median(walls), perfbench::Median(scaled_walls),
              perfbench::Median(setup_s), setup_speed.Scale());
  // Reported here, not in the JSON: across seeds the first pass's peak
  // is bimodal on serve_fleet, and later passes inherit glibc's per-thread
  // arenas (see METRICS.md).
  std::vector<double> rss;
  for (const PassResult& p : passes) rss.push_back(p.peak_rss_mb);
  std::printf("info peak_rss_mb = %.17g MB (first pass; median of %s: %.6g "
              "MB)\n",
              passes.front().peak_rss_mb,
              rss_per_pass ? "each pass's own peak"
                           : "the process peak after each pass",
              perfbench::Median(rss));
  out.metrics =
      perfbench::EndToEndMetrics(passes, setup_s, setup_speed.Scale());
  return out;
}

/// Clears the active recorder when a traced pass ends, on every path.
struct ActiveRecorderScope {
  explicit ActiveRecorderScope(perfbench::SpanRecorder* recorder) {
    perfbench::SetActiveRecorder(recorder);
  }
  ~ActiveRecorderScope() { perfbench::SetActiveRecorder(nullptr); }
  ActiveRecorderScope(const ActiveRecorderScope&) = delete;
  ActiveRecorderScope& operator=(const ActiveRecorderScope&) = delete;
};

StatusOr<Outcome> RunTraced(perfbench::Workload& workload, const Options& o) {
  perfbench::SpanRecorder recorder(kSpanCapacity);
  std::vector<PassResult> plain, traced;
  perfbench::ObservationTotals totals;
  const Clock::time_point start = Clock::now();
  while (traced.empty() || (SecondsSince(start) < o.seconds &&
                            recorder.spans().size() < kSpanCapacity / 2)) {
    auto base = RunPass(workload, Mode::kPlain);
    if (!base.ok()) return base.status();
    PrintPass("untraced", plain.size() + 1, *base);
    plain.push_back(*std::move(base));

    perfbench::Observations::Global().Reset();
    StatusOr<PassResult> pass = Status::Internal("traced pass did not run");
    {
      ActiveRecorderScope active(&recorder);
      perfbench::ScopedSpan span(&recorder, perfbench::SpanKind::kPass);
      pass = RunPass(workload, Mode::kTraced);
    }
    if (!pass.ok()) return pass.status();
    PrintPass("traced", traced.size() + 1, *pass);
    perfbench::Merge(perfbench::Observations::Global().Snapshot(), totals);
    traced.push_back(*std::move(pass));
  }
  if (recorder.dropped() > 0) {
    return Status::Internal("span buffer overflowed by " +
                            std::to_string(recorder.dropped()) + " spans");
  }
  std::vector<PassResult> all = plain;
  all.insert(all.end(), traced.begin(), traced.end());
  if (Status s = CheckFingerprints(all); !s.ok()) {
    return Status(s.code(), "wrappers changed the outcome: " + s.message());
  }

  std::vector<double> plain_wall, traced_wall;
  for (const PassResult& p : plain) plain_wall.push_back(p.wall_s);
  for (const PassResult& p : traced) traced_wall.push_back(p.wall_s);
  const double overhead =
      perfbench::Median(traced_wall) / perfbench::Median(plain_wall);

  const std::string dir = o.out_dir + "/traces";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path =
      dir + "/" + o.workload + "-seed" + std::to_string(o.seed) + ".json";
  if (Status s = recorder.WriteChromeTrace(path); !s.ok()) return s;
  std::printf("info %zu spans from %zu traced passes written to %s\n",
              recorder.spans().size(), traced.size(), path.c_str());

  Outcome out;
  for (const PassResult& p : all) out.attempted += p.attempted;
  out.metrics = perfbench::LayerMetrics(recorder.spans(), totals, traced,
                                        overhead);
  return out;
}

std::string Json(const Outcome& outcome) {
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(outcome.attempted) +
                     ", \"failed\": 0, \"metrics\": {";
  char number[64];
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    std::snprintf(number, sizeof number, "%.17g", m.value);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + number +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  return json + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  auto options = ParseArgs(argc, argv);
  if (!options.ok()) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: kairos_perfbench --workload "
                 "serve_stream|serve_fleet|plan --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR] [--commit SHA] "
                 "[--source-digest SHA]\n",
                 options.status().message().c_str());
    return 2;
  }
  const Options& o = *options;
  perfbench::RegisterWrappers();
  auto workload = perfbench::MakeWorkload(o.workload, o.seed,
                                          o.out_dir + "/inputs");
  if (!workload.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 workload.status().ToString().c_str());
    return 2;
  }
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);
  std::printf("provenance nproc=%u build=%s commit=%s source_sha256=%s\n",
              std::thread::hardware_concurrency(),
              perfbench::BuildInfo().c_str(), o.commit.c_str(),
              o.source_digest.c_str());

  auto outcome = o.trace ? RunTraced(**workload, o) : RunUntraced(**workload, o);
  if (!outcome.ok()) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: FAILED: %s\n",
                 outcome.status().ToString().c_str());
    return 1;
  }
  for (const Metric& m : outcome->metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: FAILED: metric %s is not finite\n",
                   m.name.c_str());
      return 1;
    }
    std::printf("metric %s = %.17g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("%s\n", Json(*outcome).c_str());
  return 0;
}
