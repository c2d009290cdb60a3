#include "workload/query_source.h"

#include <utility>

namespace kairos::workload {
namespace {

/// Fixed batch size for the pure-arrival-process sources.
class FixedBatches final : public BatchDistribution {
 public:
  explicit FixedBatches(int batch) : batch_(batch < 1 ? 1 : batch) {}

  int Sample(Rng&) const override { return batch_; }
  double Cdf(int b) const override { return b >= batch_ ? 1.0 : 0.0; }
  std::string Name() const override {
    return "fixed(" + std::to_string(batch_) + ")";
  }

 private:
  int batch_;
};

Status BadRate(const std::string& source, double rate) {
  return Status::InvalidArgument(source + " source: rate_qps must be positive, got " +
                                 std::to_string(rate));
}

StatusOr<std::unique_ptr<QuerySource>> BuildProcess(
    const QuerySourceSpec& spec, std::unique_ptr<ArrivalProcess> arrivals,
    std::unique_ptr<BatchDistribution> batches) {
  return std::unique_ptr<QuerySource>(std::make_unique<ProcessSource>(
      std::move(arrivals), std::move(batches), spec.limit));
}

const QuerySourceRegistrar kTraceSource(
    "TRACE", "replay a materialized workload::Trace exactly",
    [](const QuerySourceSpec& spec) -> StatusOr<std::unique_ptr<QuerySource>> {
      if (spec.trace.empty()) {
        return Status::InvalidArgument(
            "TRACE source: spec.trace must be a non-empty trace");
      }
      return std::unique_ptr<QuerySource>(
          std::make_unique<TraceSource>(spec.trace));
    });

const QuerySourceRegistrar kStreamSource(
    "STREAM",
    "stream a trace CSV from disk in bounded-memory chunks (.gz with zlib)",
    [](const QuerySourceSpec& spec) -> StatusOr<std::unique_ptr<QuerySource>> {
      if (spec.path.empty()) {
        return Status::InvalidArgument(
            "STREAM source: spec.path must name a trace CSV file");
      }
      StreamingTraceOptions options;
      options.chunk_bytes = spec.chunk_bytes;
      auto reader = StreamingTraceReader::Open(spec.path, options);
      if (!reader.ok()) return reader.status();
      return std::unique_ptr<QuerySource>(
          std::make_unique<StreamingTraceSource>(*std::move(reader)));
    });

const QuerySourceRegistrar kPoissonSource(
    "POISSON", "Poisson arrivals at rate_qps with a fixed batch size",
    [](const QuerySourceSpec& spec) -> StatusOr<std::unique_ptr<QuerySource>> {
      if (spec.rate_qps <= 0.0) return BadRate("POISSON", spec.rate_qps);
      return BuildProcess(spec,
                          std::make_unique<PoissonArrivals>(spec.rate_qps),
                          std::make_unique<FixedBatches>(spec.batch));
    });

const QuerySourceRegistrar kUniformSource(
    "UNIFORM", "fixed-gap arrivals at rate_qps with a fixed batch size",
    [](const QuerySourceSpec& spec) -> StatusOr<std::unique_ptr<QuerySource>> {
      if (spec.rate_qps <= 0.0) return BadRate("UNIFORM", spec.rate_qps);
      return BuildProcess(spec,
                          std::make_unique<UniformArrivals>(spec.rate_qps),
                          std::make_unique<FixedBatches>(spec.batch));
    });

const QuerySourceRegistrar kGaussianSource(
    "GAUSSIAN", "Poisson arrivals with the Gaussian sensitivity batch mix",
    [](const QuerySourceSpec& spec) -> StatusOr<std::unique_ptr<QuerySource>> {
      if (spec.rate_qps <= 0.0) return BadRate("GAUSSIAN", spec.rate_qps);
      return BuildProcess(spec,
                          std::make_unique<PoissonArrivals>(spec.rate_qps),
                          std::make_unique<GaussianBatches>(
                              GaussianBatches::Default()));
    });

const QuerySourceRegistrar kProductionSource(
    "PRODUCTION",
    "Poisson arrivals with the production log-normal batch mix",
    [](const QuerySourceSpec& spec) -> StatusOr<std::unique_ptr<QuerySource>> {
      if (spec.rate_qps <= 0.0) return BadRate("PRODUCTION", spec.rate_qps);
      return BuildProcess(spec,
                          std::make_unique<PoissonArrivals>(spec.rate_qps),
                          std::make_unique<LogNormalBatches>(
                              LogNormalBatches::Production()));
    });

}  // namespace

TraceSource::TraceSource(Trace trace) : trace_(std::move(trace)) {}

std::optional<Emission> TraceSource::Next(Rng&) {
  if (next_ >= trace_.size()) return std::nullopt;
  const std::vector<workload::Query>& queries = trace_.queries();
  const Time previous = next_ == 0 ? 0.0 : queries[next_ - 1].arrival;
  Emission emission;
  emission.gap = queries[next_].arrival - previous;
  emission.batch = queries[next_].batch_size;
  ++next_;
  return emission;
}

ProcessSource::ProcessSource(std::unique_ptr<ArrivalProcess> arrivals,
                             std::unique_ptr<BatchDistribution> batches,
                             std::size_t limit)
    : arrivals_(std::move(arrivals)),
      batches_(std::move(batches)),
      limit_(limit) {}

std::optional<Emission> ProcessSource::Next(Rng& rng) {
  if (limit_ > 0 && emitted_ >= limit_) return std::nullopt;
  ++emitted_;
  Emission emission;
  emission.gap = arrivals_->NextGap(rng);
  emission.batch = batches_->Sample(rng);
  return emission;
}

std::string ProcessSource::Name() const {
  return arrivals_->Name() + "/" + batches_->Name();
}

StreamingTraceSource::StreamingTraceSource(StreamingTraceReader reader)
    : reader_(std::move(reader)) {}

std::optional<Emission> StreamingTraceSource::Next(Rng&) {
  if (!status_.ok()) return std::nullopt;
  Query q;
  const StatusOr<bool> got = reader_.Next(&q);
  if (!got.ok()) {
    status_ = got.status();
    return std::nullopt;
  }
  if (!*got) return std::nullopt;
  Emission emission;
  emission.gap = q.arrival - last_arrival_;
  emission.batch = q.batch_size;
  last_arrival_ = q.arrival;
  return emission;
}

std::string StreamingTraceSource::Name() const {
  return "stream(" + reader_.path() + ")";
}

void StreamingTraceSource::Reset() {
  const Status rewound = reader_.Rewind();
  status_ = rewound;  // clears a sticky parse error on a successful rewind
  last_arrival_ = 0.0;
}

}  // namespace kairos::workload
