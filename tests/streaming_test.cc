// The determinism harness behind the million-user streaming path
// (DESIGN.md Sec. 12): chunk-size invariance for StreamingTraceReader,
// the STREAM registry contract, and the bit-identity oracle — a fleet
// serving a trace through the bounded-memory STREAM source must produce
// results field-for-field identical to the same trace materialized
// through TRACE, at every serve_threads value. Chunk sizes are pinned
// below the fleet: every size yields the same query sequence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <string>
#include <vector>

#include "core/fleet.h"
#include "workload/batch_dist.h"
#include "workload/query_source.h"
#include "workload/trace_io.h"

namespace kairos {
namespace {

using workload::Query;
using workload::QuerySourceRegistry;
using workload::QuerySourceSpec;
using workload::StreamingTraceOptions;
using workload::StreamingTraceReader;
using workload::Trace;

/// Writes a deterministic pseudo-random trace (LCG, fixed seed) to a
/// TempDir file: `n` queries, gaps in [0, 10ms), batches in [1, 8],
/// arrivals printed at full double precision so they round-trip exactly.
std::string WriteTrace(const std::string& name, std::size_t n,
                       double gap_scale = 1.0) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path);
  out << "id,arrival_s,batch\n";
  std::uint64_t state = 0x243F6A8885A308D3ull;
  double arrival = 0.0;
  out << std::setprecision(17);
  for (std::size_t i = 0; i < n; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    arrival += gap_scale * static_cast<double>((state >> 33) % 1000) / 1e5;
    const int batch = static_cast<int>((state >> 20) % 8) + 1;
    out << (i + 1) << ',' << arrival << ',' << batch << '\n';
  }
  return path;
}

std::vector<Query> ReadAllStreaming(const std::string& path,
                                    std::size_t chunk_bytes) {
  StreamingTraceOptions options;
  options.chunk_bytes = chunk_bytes;
  auto reader = StreamingTraceReader::Open(path, options);
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  std::vector<Query> queries;
  Query q;
  while (true) {
    const auto more = reader->Next(&q);
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    if (!more.ok() || !*more) break;
    queries.push_back(q);
  }
  EXPECT_EQ(reader->queries_read(), queries.size());
  return queries;
}

// --- Chunk-size invariance: the property the bounded-memory reader is
// --- allowed to exist under. Any refill size — a single byte, a prime
// --- smaller than any line, a page, or the whole file — must yield the
// --- bit-identical query sequence the materializing reader yields.

TEST(StreamingInvarianceTest, AnyChunkSizeYieldsTheMaterializedSequence) {
  const std::string path = WriteTrace("invariance_trace.csv", 500);
  const auto oracle = workload::ReadTraceCsv(path);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  ASSERT_EQ(oracle->size(), 500u);

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{4096}, std::size_t{0}}) {
    SCOPED_TRACE("chunk_bytes=" + std::to_string(chunk));
    const std::vector<Query> streamed = ReadAllStreaming(path, chunk);
    ASSERT_EQ(streamed.size(), oracle->size());
    for (std::size_t i = 0; i < streamed.size(); ++i) {
      EXPECT_EQ(streamed[i].id, oracle->queries()[i].id) << "query " << i;
      EXPECT_EQ(streamed[i].batch_size, oracle->queries()[i].batch_size)
          << "query " << i;
      // Exact bit equality, not EXPECT_NEAR: both readers share one
      // parser, so the doubles must be identical.
      EXPECT_EQ(streamed[i].arrival, oracle->queries()[i].arrival)
          << "query " << i;
    }
  }
  std::remove(path.c_str());
}

TEST(StreamingInvarianceTest, RewindReplaysTheSameSequencePerChunkSize) {
  const std::string path = WriteTrace("rewind_trace.csv", 64);
  StreamingTraceOptions options;
  options.chunk_bytes = 3;  // forces many refills across rewinds
  auto reader = StreamingTraceReader::Open(path, options);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();

  auto drain = [&reader] {
    std::vector<Query> queries;
    Query q;
    while (true) {
      const auto more = reader->Next(&q);
      EXPECT_TRUE(more.ok()) << more.status().ToString();
      if (!more.ok() || !*more) break;
      queries.push_back(q);
    }
    return queries;
  };
  const std::vector<Query> first = drain();
  ASSERT_EQ(first.size(), 64u);
  ASSERT_TRUE(reader->Rewind().ok());
  const std::vector<Query> second = drain();
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(second[i].id, first[i].id);
    EXPECT_EQ(second[i].batch_size, first[i].batch_size);
    EXPECT_EQ(second[i].arrival, first[i].arrival);
  }
  std::remove(path.c_str());
}

// --- STREAM registry contract.

TEST(StreamSourceTest, SpecWithoutPathIsInvalidArgument) {
  QuerySourceSpec spec;
  spec.source = "STREAM";
  const auto source = QuerySourceRegistry::Global().Build(spec);
  ASSERT_FALSE(source.ok());
  EXPECT_EQ(source.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(source.status().message().find("spec.path"), std::string::npos)
      << source.status().message();
}

TEST(StreamSourceTest, MissingFileIsNotFoundAtBuildTime) {
  QuerySourceSpec spec;
  spec.source = "STREAM";
  spec.path = ::testing::TempDir() + "no_such_trace.csv";
  const auto source = QuerySourceRegistry::Global().Build(spec);
  ASSERT_FALSE(source.ok());
  EXPECT_EQ(source.status().code(), StatusCode::kNotFound);
}

TEST(StreamSourceTest, EmitsExactlyWhatTraceSourceEmits) {
  const std::string path = WriteTrace("emission_trace.csv", 200);
  const auto trace = workload::ReadTraceCsv(path);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  workload::TraceSource oracle(*trace);

  QuerySourceSpec spec;
  spec.source = "STREAM";
  spec.path = path;
  spec.chunk_bytes = 11;
  auto streamed = QuerySourceRegistry::Global().Build(spec);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();

  // Emission-for-emission identity twice over (Reset must rewind the
  // underlying reader, not just the first pass).
  Rng rng(3);
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE("pass=" + std::to_string(pass));
    while (true) {
      const auto want = oracle.Next(rng);
      const auto got = (*streamed)->Next(rng);
      ASSERT_EQ(got.has_value(), want.has_value());
      if (!want.has_value()) break;
      EXPECT_EQ(got->gap, want->gap);
      EXPECT_EQ(got->batch, want->batch);
    }
    oracle.Reset();
    (*streamed)->Reset();
  }
  std::remove(path.c_str());
}

// --- Fleet-level bit-identity: STREAM vs the materialized TRACE oracle,
// --- across serve_threads. The whole point of the streaming path is
// --- that nothing observable changes.

core::Fleet MakeTraceFleet(const std::string& trace_kind,
                           const std::string& path) {
  static const cloud::Catalog catalog = cloud::Catalog::PaperPool();
  core::FleetOptions options;
  options.budget_per_hour = 2.0;
  auto fleet = core::Fleet::Create(
      catalog,
      {core::FleetModelOptions{
          .model = "NCF", .trace = trace_kind, .trace_path = path}},
      options);
  EXPECT_TRUE(fleet.ok()) << fleet.status().ToString();
  fleet->ObserveMixAll(workload::LogNormalBatches::Production());
  return *std::move(fleet);
}

/// Every observable field of a single-model serve result, compared
/// exactly. Doubles use EXPECT_EQ on purpose: the claim is determinism,
/// not approximation.
void ExpectSameServe(const core::FleetServeResult& a,
                     const core::FleetServeResult& b) {
  ASSERT_EQ(a.models.size(), b.models.size());
  for (std::size_t m = 0; m < a.models.size(); ++m) {
    SCOPED_TRACE("model " + a.models[m].model);
    const serving::RunResult& ta = a.models[m].totals;
    const serving::RunResult& tb = b.models[m].totals;
    EXPECT_EQ(ta.offered, tb.offered);
    EXPECT_EQ(ta.served, tb.served);
    EXPECT_EQ(ta.violations, tb.violations);
    EXPECT_EQ(ta.rejected, tb.rejected);
    EXPECT_EQ(ta.shed, tb.shed);
    EXPECT_EQ(ta.aborted, tb.aborted);
    EXPECT_EQ(ta.p99_ms, tb.p99_ms);
    EXPECT_EQ(ta.mean_ms, tb.mean_ms);
    EXPECT_EQ(ta.makespan, tb.makespan);
    EXPECT_EQ(ta.throughput_qps, tb.throughput_qps);
    EXPECT_EQ(ta.latencies_ms, tb.latencies_ms);
    EXPECT_EQ(ta.per_type_served, tb.per_type_served);
    EXPECT_EQ(ta.per_type_busy, tb.per_type_busy);
    EXPECT_EQ(a.models[m].qps, b.models[m].qps);
    ASSERT_EQ(a.models[m].windows.size(), b.models[m].windows.size());
    for (std::size_t w = 0; w < a.models[m].windows.size(); ++w) {
      SCOPED_TRACE("window " + std::to_string(w));
      const serving::WindowedMetrics& wa = a.models[m].windows[w];
      const serving::WindowedMetrics& wb = b.models[m].windows[w];
      EXPECT_EQ(wa.start, wb.start);
      EXPECT_EQ(wa.end, wb.end);
      EXPECT_EQ(wa.offered, wb.offered);
      EXPECT_EQ(wa.served, wb.served);
      EXPECT_EQ(wa.violations, wb.violations);
      EXPECT_EQ(wa.rejected, wb.rejected);
      EXPECT_EQ(wa.shed, wb.shed);
      EXPECT_EQ(wa.p99_ms, wb.p99_ms);
      EXPECT_EQ(wa.mean_ms, wb.mean_ms);
      EXPECT_EQ(wa.mean_batch, wb.mean_batch);
      EXPECT_EQ(wa.reject_rate, wb.reject_rate);
      EXPECT_EQ(wa.shed_rate, wb.shed_rate);
    }
  }
  EXPECT_EQ(a.total_qps, b.total_qps);
  EXPECT_EQ(a.total_weighted_qps, b.total_weighted_qps);
  EXPECT_EQ(a.shed_actions, b.shed_actions);
}

TEST(StreamingFleetTest, StreamMatchesTraceOracleAcrossThreads) {
  const std::string path = WriteTrace("fleet_trace.csv", 1500);
  core::FleetServeOptions serve;
  serve.duration_s = 10.0;
  serve.base_rate_qps = 15.0;
  serve.window_s = 2.5;

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4},
                                    std::size_t{8}}) {
    SCOPED_TRACE("serve_threads=" + std::to_string(threads));
    serve.serve_threads = threads;

    const core::Fleet oracle = MakeTraceFleet("TRACE", path);
    const auto oracle_plan = oracle.PlanAll();
    ASSERT_TRUE(oracle_plan.ok()) << oracle_plan.status().ToString();
    const auto want = oracle.ServeAll(*oracle_plan, serve);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_GT(want->models[0].totals.offered, 0u);
    // Zero-shed regime: admission defaults are all-zero, so nothing may
    // be rejected or shed — the identity below is over full service.
    EXPECT_EQ(want->models[0].totals.rejected, 0u);
    EXPECT_EQ(want->models[0].totals.shed, 0u);

    const core::Fleet fleet = MakeTraceFleet("STREAM", path);
    const auto plan = fleet.PlanAll();
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const auto got = fleet.ServeAll(*plan, serve);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSameServe(*got, *want);
  }
  std::remove(path.c_str());
}

TEST(StreamingFleetTest, SheddingUnderOverloadIsDeterministicAcrossThreads) {
  // Tight gaps (100x compressed, ~20k q/s) overload the small NCF
  // config; the
  // admission deadline makes the engine shed. The shed set must be a
  // pure function of the trace — identical for every serve_threads and
  // identical to the TRACE oracle under the same admission regime.
  const std::string path = WriteTrace("overload_trace.csv", 1200, 0.01);
  core::FleetServeOptions serve;
  serve.duration_s = 4.0;
  serve.base_rate_qps = 15.0;
  serve.window_s = 1.0;
  serve.admission.deadline_s = 0.05;
  serve.admission.max_queue = 256;

  std::vector<core::FleetServeResult> results;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4},
                                    std::size_t{8}}) {
    SCOPED_TRACE("serve_threads=" + std::to_string(threads));
    serve.serve_threads = threads;
    const core::Fleet fleet = MakeTraceFleet("STREAM", path);
    const auto plan = fleet.PlanAll();
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    auto result = fleet.ServeAll(*plan, serve);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    results.push_back(*std::move(result));
  }
  const serving::RunResult& totals = results[0].models[0].totals;
  EXPECT_GT(totals.offered, 0u);
  EXPECT_GT(totals.shed + totals.rejected, 0u)
      << "overload regime failed to trigger admission control";
  // Conservation: every offered query is served, queued at the horizon,
  // rejected, or shed — never double-counted, never lost.
  EXPECT_LE(totals.served + totals.shed + totals.rejected, totals.offered);
  for (std::size_t i = 1; i < results.size(); ++i) {
    SCOPED_TRACE("vs serve_threads variant " + std::to_string(i));
    ExpectSameServe(results[i], results[0]);
  }

  // The materialized oracle sheds the identical set.
  serve.serve_threads = 1;
  const core::Fleet oracle = MakeTraceFleet("TRACE", path);
  const auto plan = oracle.PlanAll();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const auto want = oracle.ServeAll(*plan, serve);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ExpectSameServe(results[0], *want);
  std::remove(path.c_str());
}

TEST(StreamingFleetTest, FileBackedTraceWithoutPathIsRejectedAtCreate) {
  static const cloud::Catalog catalog = cloud::Catalog::PaperPool();
  for (const char* kind : {"STREAM", "TRACE"}) {
    SCOPED_TRACE(kind);
    const auto fleet = core::Fleet::Create(
        catalog, {core::FleetModelOptions{.model = "NCF", .trace = kind}});
    ASSERT_FALSE(fleet.ok());
    EXPECT_EQ(fleet.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(fleet.status().message().find("trace_path"), std::string::npos)
        << fleet.status().message();
  }
}

TEST(StreamingFleetTest, NegativeAdmissionKnobsAreRejected) {
  const std::string path = WriteTrace("knob_trace.csv", 8);
  const core::Fleet fleet = MakeTraceFleet("STREAM", path);
  const auto plan = fleet.PlanAll();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  core::FleetServeOptions serve;
  serve.duration_s = 1.0;
  serve.admission.deadline_s = -0.5;
  const auto result = fleet.ServeAll(*plan, serve);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace kairos
