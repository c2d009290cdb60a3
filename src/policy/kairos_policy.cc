#include "policy/kairos_policy.h"

#include <algorithm>
#include <limits>

#include "latency/latency_model.h"
#include "policy/registry.h"

namespace kairos::policy {
namespace {

const PolicyRegistrar kRegistrar(
    PolicyInfo{"KAIROS",
               "min-cost bipartite matching with QoS-penalized costs and "
               "heterogeneity coefficients (Sec. 5.1)",
               {{"xi", 0.98},
                {"penalty_factor", 10.0},
                {"heterogeneity", 1.0}}},
    [](const KnobMap& knobs) -> StatusOr<std::unique_ptr<Policy>> {
      KairosPolicyOptions options;
      options.xi = knobs.at("xi");
      options.penalty_factor = knobs.at("penalty_factor");
      options.use_heterogeneity_coefficient = knobs.at("heterogeneity") != 0.0;
      return std::unique_ptr<Policy>(std::make_unique<KairosPolicy>(options));
    });

}  // namespace

KairosPolicy::KairosPolicy(KairosPolicyOptions options) : options_(options) {}

void KairosPolicy::Distribute(const RoundContext& ctx,
                              std::vector<Assignment>& out) {
  out.clear();
  const std::size_t m = ctx.waiting.size();
  const std::size_t n = ctx.instances.size();
  if (m == 0 || n == 0) return;

  // Everything a column contributes depends only on its instance: the
  // type, the remaining busy time and the coefficient, all gathered once
  // here instead of once per (query, instance) pair.
  cloud::TypeId max_type = 0;
  col_type_.resize(n);
  col_busy_.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    const serving::InstanceView& inst = ctx.instances[j];
    col_type_[j] = inst.type;
    col_busy_[j] = std::max(0.0, inst.available_at - ctx.now);
    max_type = std::max(max_type, inst.type);
  }
  const std::size_t num_types = max_type + 1;
  type_present_.assign(num_types, 0);
  for (std::size_t j = 0; j < n; ++j) type_present_[col_type_[j]] = 1;

  // Heterogeneity coefficients (Definition 1): C_j = latency ratio of the
  // largest servable query between the fastest type and type j, so the base
  // normalizes to 1 and slower types weigh in (0, 1). C_j depends on j's
  // type alone, so each present type is priced once.
  col_coeff_.assign(n, 1.0);
  if (options_.use_heterogeneity_coefficient) {
    double best_ms = std::numeric_limits<double>::infinity();
    type_largest_ms_.resize(num_types);
    for (std::size_t t = 0; t < num_types; ++t) {
      if (!type_present_[t]) continue;
      type_largest_ms_[t] = ctx.predictor->PredictMsNoiseless(
          static_cast<cloud::TypeId>(t), latency::kMaxBatchSize);
      best_ms = std::min(best_ms, type_largest_ms_[t]);
    }
    for (std::size_t j = 0; j < n; ++j) {
      const double largest_ms = type_largest_ms_[col_type_[j]];
      col_coeff_[j] = largest_ms > 0.0 ? best_ms / largest_ms : 1.0;
    }
  }

  // Serve-time predictions. A noise-free predictor never draws from the
  // RNG, so the whole waiting frontier can be priced with one batched
  // call per instance *type* instead of one virtual-ish call per (i, j)
  // pair — this loop dominates EvaluateConfig, which evaluates it
  // once per trial per round. serve_sec_ holds row i's seconds on type t
  // at [i * num_types + t]. A noisy predictor falls back to per-pair
  // calls in the legacy (i, j) order so its noise stream is unchanged.
  const bool batched = ctx.predictor->IsDeterministic();
  if (batched) {
    batch_scratch_.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
      batch_scratch_[i] = ctx.waiting[i].batch_size;
    }
    serve_sec_.resize(m * num_types);
    for (std::size_t t = 0; t < num_types; ++t) {
      if (!type_present_[t]) continue;
      ctx.predictor->PredictMsNoiselessBatch(static_cast<cloud::TypeId>(t),
                                             batch_scratch_, type_ms_);
      for (std::size_t i = 0; i < m; ++i) {
        serve_sec_[i * num_types + t] = MsToSec(type_ms_[i]);
      }
    }
  }

  // Build the penalized cost matrix (Eq. 2 + Eq. 8).
  cost_.Reshape(m, n);
  const double penalty_sec = options_.penalty_factor * ctx.qos_sec;
  const double deadline_sec = options_.xi * ctx.qos_sec;
  for (std::size_t i = 0; i < m; ++i) {
    const workload::Query& q = ctx.waiting[i];
    const Time wait = ctx.now - q.arrival;  // W_i
    const double* serve_row = batched ? &serve_sec_[i * num_types] : nullptr;
    double* cost_row = &cost_.data()[i * n];
    for (std::size_t j = 0; j < n; ++j) {
      const Time serve =
          batched ? serve_row[col_type_[j]]
                  : ctx.predictor->Predict(col_type_[j], q.batch_size);
      Time l = col_busy_[j] + serve;  // L_{i,j}
      if (l + wait > deadline_sec) {
        l = penalty_sec;  // Eq. 8: fold constraint Eq. 5 into the objective
      }
      cost_row[j] = col_coeff_[j] * l;
    }
  }

  const assign::AssignmentResult& match = assign::SolveJv(cost_, jv_ws_);
  out.reserve(static_cast<std::size_t>(match.matched));
  for (std::size_t i = 0; i < m; ++i) {
    const int j = match.col_for_row[i];
    if (j >= 0) {
      out.push_back(Assignment{i, static_cast<std::size_t>(j)});
    }
  }
}

}  // namespace kairos::policy
