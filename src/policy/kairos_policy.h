// The Kairos query-distribution mechanism (Sec. 5.1): min-cost bipartite
// matching between waiting queries and instances with
//   cost(i, j) = C_j * L~(i, j)
// where L(i,j) = remaining busy time of instance j + predicted serving
// latency, C_j is the heterogeneity coefficient (Definition 1), and L~ is
// the QoS-penalized rewrite (Eq. 8) that folds constraint Eq. 5 into the
// objective. Solved with the Jonker–Volgenant algorithm each round.
#pragma once

#include "assign/jv.h"
#include "policy/policy.h"

namespace kairos::policy {

/// Tunables; defaults follow the paper exactly.
struct KairosPolicyOptions {
  /// ξ safeguard: completion within ξ..1 of T_qos already counts as a
  /// violation during planning (Sec. 5.1, ξ = 0.98).
  double xi = 0.98;

  /// Penalty multiplier for QoS-violating pairs: L becomes
  /// penalty_factor * T_qos (Eq. 8 uses 10x).
  double penalty_factor = 10.0;

  /// Use heterogeneity coefficients C_j (Definition 1). Disabling them is
  /// the ablation studied in bench/ablation_kairos_knobs.
  bool use_heterogeneity_coefficient = true;
};

/// Late-binding matching policy.
class KairosPolicy final : public Policy {
 public:
  explicit KairosPolicy(KairosPolicyOptions options = {});

  std::string Name() const override { return "KAIROS"; }
  using Policy::Distribute;
  void Distribute(const RoundContext& ctx,
                  std::vector<Assignment>& out) override;

  /// The penalized cost matrix the last Distribute solved (queries x
  /// instances); empty before the first non-trivial round.
  const Matrix& LastCostMatrix() const { return cost_; }

 private:
  KairosPolicyOptions options_;

  // Per-round scratch, reused across rounds so the steady-state serving
  // loop allocates nothing here once high-water sizes are reached.
  Matrix cost_;
  assign::JvWorkspace jv_ws_;
  std::vector<cloud::TypeId> col_type_;  ///< per instance: its type
  std::vector<Time> col_busy_;           ///< per instance: busy remaining
  std::vector<double> col_coeff_;        ///< per instance: C_j
  std::vector<char> type_present_;       ///< per type: has an instance
  std::vector<double> type_largest_ms_;  ///< per type: kMaxBatchSize latency
  std::vector<int> batch_scratch_;       ///< waiting batch sizes
  std::vector<double> type_ms_;          ///< one type's batched predictions
  /// Noiseless serve seconds, row-major [waiting][type] (deterministic
  /// predictor only; entries of absent types are never read).
  std::vector<double> serve_sec_;
};

}  // namespace kairos::policy
