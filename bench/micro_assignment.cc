// Sec. 6 controller-overhead claims, measured with google-benchmark:
//  * a 20-query x 20-instance Jonker–Volgenant matching plus the network
//    round trip stays within 0.05 ms;
//  * even hundreds of concurrent queries match well within 1 ms.
// BM_JvKairosShaped adds the saturated serving round's own matrices, whose
// long augmenting paths the i.i.d. cases never produce.
#include <benchmark/benchmark.h>

#include <vector>

#include "assign/jv.h"
#include "common/rng.h"
#include "rpc/netem.h"

namespace {

// I.i.d. costs: mostly small latencies, some 10x-penalty-sized entries.
// Optimal matchings here are found in a few augmenting steps per row.
kairos::Matrix RandomCost(std::size_t m, std::size_t n, kairos::Rng& rng) {
  kairos::Matrix cost(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      cost(i, j) = rng.Bernoulli(0.15) ? rng.Uniform(3.0, 3.5)
                                       : rng.Uniform(0.01, 0.35);
    }
  }
  return cost;
}

// Kairos-shaped costs (Eq. 2 + Eq. 8) as a saturated serving round builds
// them: instance j of type t(j) busy for b_j more seconds, query i serving
// in s_t(i) seconds (affine in its batch), cost C_t * (b_j + s_t(i)), or
// C_t * 10 * QoS on ~7% of pairs. Within one type the unpenalized cost is
// additive, so nearly every matching inside a type block is a near-tie;
// at 33x42 a row search runs ~16 steps (~17 in recorded serve_stream
// rounds) against a few for the i.i.d. costs above.
kairos::Matrix KairosCost(std::size_t m, std::size_t n, kairos::Rng& rng) {
  constexpr double kCoeff[] = {1.0, 0.62, 0.35};
  constexpr double kBaseMs[] = {4.0, 9.0, 15.0};
  constexpr double kPerItemMs[] = {0.02, 0.06, 0.11};
  constexpr double kQosSec = 0.1;
  std::vector<std::size_t> type(n);
  std::vector<double> busy(n);
  for (std::size_t j = 0; j < n; ++j) {
    type[j] = static_cast<std::size_t>(rng.UniformInt(0, 2));
    busy[j] = rng.Bernoulli(0.03) ? 0.0 : rng.Uniform(0.0, 0.05);
  }
  kairos::Matrix cost(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    const auto batch = static_cast<double>(rng.UniformInt(1, 1000));
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t t = type[j];
      const double l =
          rng.Bernoulli(0.07)
              ? 10.0 * kQosSec
              : busy[j] + (kBaseMs[t] + kPerItemMs[t] * batch) * 1e-3;
      cost(i, j) = kCoeff[t] * l;
    }
  }
  return cost;
}

void BM_JvMatching(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  kairos::Rng rng(42);
  const kairos::Matrix cost = RandomCost(m, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kairos::assign::SolveJv(cost));
  }
  state.SetLabel(std::to_string(m) + "x" + std::to_string(n));
}
BENCHMARK(BM_JvMatching)
    ->Args({5, 10})
    ->Args({20, 20})   // the paper's 20-query-20-instance case
    ->Args({100, 20})
    ->Args({200, 20})  // "hundreds of queries arriving concurrently"
    ->Args({64, 64});

// The policy's steady state: one reused workspace, a fresh Kairos-shaped
// matrix per solve (cycled from a pool so generation stays untimed).
void BM_JvKairosShaped(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  kairos::Rng rng(42);
  std::vector<kairos::Matrix> pool;
  for (int k = 0; k < 64; ++k) pool.push_back(KairosCost(m, n, rng));
  kairos::assign::JvWorkspace ws;
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kairos::assign::SolveJv(pool[next++ % pool.size()], ws));
  }
  state.SetLabel(std::to_string(m) + "x" + std::to_string(n));
}
BENCHMARK(BM_JvKairosShaped)
    ->Args({33, 42})   // a saturated serve_stream round: 33 waiting, 42 up
    ->Args({64, 42});  // the matcher window full

// One full controller decision: matching + two simulated network hops.
void BM_ControllerRoundTrip(benchmark::State& state) {
  kairos::Rng rng(42);
  const kairos::Matrix cost = RandomCost(20, 20, rng);
  const kairos::rpc::NetworkModel net(20.0, 0.1);
  kairos::Rng net_rng(7);
  double accumulated_network = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kairos::assign::SolveJv(cost));
    accumulated_network +=
        net.SampleDelay(net_rng) + net.SampleDelay(net_rng);
  }
  // Report the simulated network time alongside the measured CPU time so
  // the 0.05 ms Sec. 6 budget can be checked end to end.
  state.counters["sim_network_us_per_call"] = benchmark::Counter(
      accumulated_network * 1e6 / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_ControllerRoundTrip);

}  // namespace

BENCHMARK_MAIN();
