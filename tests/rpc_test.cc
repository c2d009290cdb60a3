#include <gtest/gtest.h>

#include <algorithm>

#include "rpc/netem.h"

namespace kairos::rpc {
namespace {

TEST(NetworkModelTest, DeterministicWithoutJitter) {
  const NetworkModel net(50.0, 0.0);
  Rng rng(1);
  EXPECT_DOUBLE_EQ(net.SampleDelay(rng), 50e-6);
  EXPECT_DOUBLE_EQ(net.SampleDelay(rng), 50e-6);
}

TEST(NetworkModelTest, JitterIsMultiplicativeAndPositive) {
  const NetworkModel net(50.0, 0.3);
  Rng rng(2);
  double sum = 0.0;
  for (int i = 0; i < 5000; ++i) {
    const Time d = net.SampleDelay(rng);
    EXPECT_GT(d, 0.0);
    sum += d;
  }
  // Log-normal multiplicative jitter has mean exp(sigma^2/2) ~ 1.046.
  EXPECT_NEAR(sum / 5000.0, 50e-6 * 1.046, 5e-6);
}

TEST(NetworkModelTest, NegativeParametersThrow) {
  EXPECT_THROW(NetworkModel(-1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(NetworkModel(1.0, -0.5), std::invalid_argument);
  EXPECT_THROW(NetworkModel(1.0, 0.0, -0.1), std::invalid_argument);
  EXPECT_THROW(NetworkModel(1.0, 0.0, 1.0), std::invalid_argument);
}

TEST(NetworkModelTest, ValidateReturnsStatusForKnobDerivedParameters) {
  EXPECT_TRUE(NetworkModel::Validate(20.0, 0.3, 0.05).ok());
  EXPECT_TRUE(NetworkModel::Validate(0.0, 0.0, 0.0).ok());
  EXPECT_EQ(NetworkModel::Validate(-1.0, 0.0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(NetworkModel::Validate(1.0, -0.5).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(NetworkModel::Validate(1.0, 0.0, -0.1).code(),
            StatusCode::kInvalidArgument);
  // loss_prob 1 would retransmit forever: the valid range is [0, 1).
  EXPECT_EQ(NetworkModel::Validate(1.0, 0.0, 1.0).code(),
            StatusCode::kInvalidArgument);
}

TEST(NetworkModelTest, SameSeedReplaysIdenticalDelayAndLossSequences) {
  const NetworkModel net(100.0, 0.4, 0.3);
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_DOUBLE_EQ(net.SampleDelay(a), net.SampleDelay(b));
  }
}

TEST(NetworkModelTest, LossFreeModelDrawsNothingForLoss) {
  // Adding the loss knob must not perturb pre-existing RNG streams: a
  // loss_prob-0 model consumes exactly the draws the two-parameter model
  // always did, so both replay the same jitter sequence.
  const NetworkModel legacy(50.0, 0.3);
  const NetworkModel lossless(50.0, 0.3, 0.0);
  Rng a(2);
  Rng b(2);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_DOUBLE_EQ(legacy.SampleDelay(a), lossless.SampleDelay(b));
  }
}

TEST(NetworkModelTest, LossAddsRetransmissionPenalties) {
  const NetworkModel clean(100.0, 0.0, 0.0);
  const NetworkModel lossy(100.0, 0.0, 0.5);
  Rng rng(11);
  double clean_sum = 0.0, lossy_sum = 0.0;
  Time lossy_max = 0.0;
  for (int i = 0; i < 4000; ++i) {
    clean_sum += clean.SampleDelay(rng);
    const Time d = lossy.SampleDelay(rng);
    EXPECT_GE(d, 0.99 * 100e-6);  // never faster than the lossless hop
    lossy_sum += d;
    lossy_max = std::max(lossy_max, d);
  }
  // At 50% loss the expected retransmission count is 1 per delivery, each
  // costing a 4x-base timeout: mean ~ base * (1 + 1 * 4) = 5x base.
  EXPECT_NEAR(lossy_sum / 4000.0, 5.0 * 100e-6, 1.0 * 100e-6);
  EXPECT_GT(lossy_sum, 2.0 * clean_sum);
  EXPECT_GT(lossy_max, 4.0 * 100e-6);  // at least one retransmitted sample
}

}  // namespace
}  // namespace kairos::rpc
