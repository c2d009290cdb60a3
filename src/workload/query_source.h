// Streaming query sources for the online serving engine (DESIGN.md
// Sec. 8): one pull-based interface unifying the two ways this repo
// produces queries — materialized traces (workload/trace.h) and live
// arrival processes (workload/arrival.h + workload/batch_dist.h). The
// engine pulls one emission at a time, so sources may be unbounded and
// the engine can stretch inter-arrival gaps mid-run (load changes,
// Fig. 12) without re-materializing anything.
//
// Sources are built by name through the QuerySourceRegistry (TRACE,
// STREAM, POISSON, UNIFORM, GAUSSIAN, PRODUCTION) with Status-based
// errors, the common/registry.h contract every strategy plane shares;
// programmatic injection goes through serving::Engine::Submit instead.
// STREAM is the million-user scale path: it pulls queries from a trace CSV
// on disk in bounded-memory chunks (DESIGN.md Sec. 12) instead of
// materializing the trace like TRACE does.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "common/registry.h"
#include "common/rng.h"
#include "workload/trace.h"
#include "workload/trace_io.h"

namespace kairos::workload {

/// One pending emission: the gap (seconds) since the source's previous
/// emission, and the batch size of the query to inject.
struct Emission {
  Time gap = 0.0;
  int batch = 1;
};

/// Pull-based stream of queries. Implementations must be deterministic
/// given the Rng the caller threads through Next().
class QuerySource {
 public:
  virtual ~QuerySource() = default;

  /// The next emission, or nullopt when the source is exhausted. The
  /// caller owns arrival-time bookkeeping (and may stretch gaps).
  virtual std::optional<Emission> Next(Rng& rng) = 0;

  /// Mean emission rate in queries/second at gap scale 1; 0 when unknown.
  virtual double Rate() const = 0;

  /// Short human-readable name for reports ("trace", "poisson", ...).
  virtual std::string Name() const = 0;

  /// Rewinds to the beginning (meaningful for trace replay); stochastic
  /// sources are memoryless and default to a no-op.
  virtual void Reset() {}
};

/// Replays a materialized trace: gaps are the consecutive arrival-time
/// differences (the first gap is the first query's arrival time), batches
/// and their order are preserved exactly.
class TraceSource final : public QuerySource {
 public:
  explicit TraceSource(Trace trace);

  std::optional<Emission> Next(Rng& rng) override;
  double Rate() const override { return trace_.OfferedRate(); }
  std::string Name() const override { return "trace"; }
  void Reset() override { next_ = 0; }

 private:
  Trace trace_;
  std::size_t next_ = 0;
};

/// Draws gaps from an ArrivalProcess and batches from a
/// BatchDistribution; optionally stops after `limit` emissions
/// (0 = unbounded).
class ProcessSource final : public QuerySource {
 public:
  /// Both pointers must be non-null.
  ProcessSource(std::unique_ptr<ArrivalProcess> arrivals,
                std::unique_ptr<BatchDistribution> batches,
                std::size_t limit = 0);

  std::optional<Emission> Next(Rng& rng) override;
  double Rate() const override { return arrivals_->Rate(); }
  std::string Name() const override;
  void Reset() override { emitted_ = 0; }

 private:
  std::unique_ptr<ArrivalProcess> arrivals_;
  std::unique_ptr<BatchDistribution> batches_;
  std::size_t limit_;
  std::size_t emitted_ = 0;
};

/// Replays a trace CSV straight from disk through a StreamingTraceReader:
/// same gap semantics as TraceSource (field-by-field identical emissions
/// for the same file) at O(chunk) resident memory instead of O(trace).
/// A read/parse error mid-stream ends the source (Next -> nullopt) and is
/// reported through status().
class StreamingTraceSource final : public QuerySource {
 public:
  explicit StreamingTraceSource(StreamingTraceReader reader);

  std::optional<Emission> Next(Rng& rng) override;
  /// Unknown without a full scan; callers needing a rate must supply it.
  double Rate() const override { return 0.0; }
  std::string Name() const override;
  void Reset() override;

  /// OK while streaming is healthy; the first read/parse/rewind error
  /// otherwise (sticky, mirrors StreamingTraceReader).
  const Status& status() const { return status_; }

 private:
  StreamingTraceReader reader_;
  double last_arrival_ = 0.0;
  Status status_;
};

/// Registry build request: which named source, and its parameters. The
/// unnamed-parameter style mirrors serving::EvalOptions — named sources
/// read the fields they need and ignore the rest.
struct QuerySourceSpec {
  /// Registry name, case-insensitive: "TRACE", "STREAM", "POISSON",
  /// "UNIFORM", "GAUSSIAN", "PRODUCTION".
  std::string source;
  /// Mean arrival rate for process-backed sources, queries/second.
  double rate_qps = 100.0;
  /// Emissions before the source reports exhaustion; 0 = unbounded
  /// (process-backed sources only; TRACE always ends with its trace).
  std::size_t limit = 0;
  /// Constant batch size for POISSON / UNIFORM (their arrival process is
  /// the point; <=0 means batch 1).
  int batch = 1;
  /// The trace to replay; required non-empty for "TRACE".
  Trace trace;
  /// Trace CSV file to stream; required non-empty for "STREAM" (".gz"
  /// accepted when zlib is built in).
  std::string path;
  /// STREAM refill size in bytes; 0 reads the whole file in one chunk.
  /// Any value produces the identical query sequence.
  std::size_t chunk_bytes = 65536;
};

/// Process-wide name -> source-builder table (common/registry.h): static
/// registrars populate it and lookup is case-insensitive. The builder
/// receives the whole spec, untouched.
class QuerySourceRegistry : public Registry<QuerySource, QuerySourceSpec> {
 public:
  static QuerySourceRegistry& Global() {
    static QuerySourceRegistry* registry = new QuerySourceRegistry();
    return *registry;
  }

  /// Builds the source spec.source names. kNotFound for an unknown name
  /// (listing the registered names), kInvalidArgument for bad parameters
  /// (rate <= 0, empty TRACE trace).
  StatusOr<std::unique_ptr<QuerySource>> Build(
      const QuerySourceSpec& spec) const {
    return Registry::Build(spec.source, spec);
  }

 private:
  QuerySourceRegistry() : Registry("query source") {}
};

using QuerySourceBuilder = QuerySourceRegistry::Builder;
using QuerySourceRegistrar = Registrar<QuerySourceRegistry>;

}  // namespace kairos::workload

namespace kairos {
/// Part of the top-level public API surface, like the other registries.
using workload::QuerySourceRegistry;
}  // namespace kairos
