// Runs the miniature *real* inference engine (embedding tables + MLP
// towers on a thread pool) for each Table-3 model, measures wall-clock
// latency across batch sizes, and verifies the two facts the simulator's
// latency surfaces encode:
//   1. latency grows linearly with batch size (Pearson > 0.99, Sec. 5.1);
//   2. the relative cost structure differs by model class (embedding-heavy
//      RM2 vs. tower-heavy MT-WND).
//
//   ./infer_engine_demo [THREADS]
#include <iostream>
#include <string>

#include "common/stats.h"
#include "common/table.h"
#include "infer/rec_models.h"

int main(int argc, char** argv) {
  using namespace kairos;
  const std::size_t threads =
      argc > 1 ? static_cast<std::size_t>(std::stoul(argv[1])) : 0;
  ThreadPool pool(threads);
  std::cout << "thread pool: " << pool.thread_count() << " worker(s)\n";

  const std::vector<std::size_t> batches = {8, 32, 64, 128, 256, 512};
  TextTable table({"model", "lat@8 (ms)", "lat@64", "lat@256", "lat@512",
                   "Pearson(batch, latency)", "ms per item (slope)"});
  for (const std::string name : {"NCF", "RM2", "WND", "MT-WND", "DIEN"}) {
    const auto model = infer::BuildRecModel(name);
    const std::vector<double> lat =
        infer::MeasureLatencyMs(*model, batches, pool, 3);
    std::vector<double> xs(batches.begin(), batches.end());
    const double r = PearsonCorrelation(xs, lat);
    // Least-squares slope as the per-item marginal cost.
    const double mx = Mean(xs), my = Mean(lat);
    double sxy = 0.0, sxx = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      sxy += (xs[i] - mx) * (lat[i] - my);
      sxx += (xs[i] - mx) * (xs[i] - mx);
    }
    table.AddRow({name, TextTable::Num(lat[0], 3), TextTable::Num(lat[2], 3),
                  TextTable::Num(lat[4], 3), TextTable::Num(lat[5], 3),
                  TextTable::Num(r, 4), TextTable::Num(sxy / sxx, 5)});
  }
  table.Print(std::cout,
              "miniature inference engine: latency vs batch size (real "
              "computation, not simulated)");
  std::cout << "The near-1 Pearson correlations are the Sec. 5.1 property "
               "that makes Kairos's latency prediction trivial.\n";
  return 0;
}
