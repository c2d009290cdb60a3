#include <gtest/gtest.h>

#include <set>

#include "cloud/config.h"
#include "cloud/config_space.h"
#include "cloud/instance_type.h"

namespace kairos::cloud {
namespace {

TEST(CatalogTest, PaperPoolMatchesTable4) {
  const Catalog c = Catalog::PaperPool();
  ASSERT_EQ(c.size(), 4u);
  EXPECT_EQ(c[0].name, "g4dn.xlarge");
  EXPECT_DOUBLE_EQ(c[0].price_per_hour, 0.526);
  EXPECT_TRUE(c[0].is_base);
  EXPECT_EQ(c[1].name, "c5n.2xlarge");
  EXPECT_DOUBLE_EQ(c[1].price_per_hour, 0.432);
  EXPECT_EQ(c[2].name, "r5n.large");
  EXPECT_DOUBLE_EQ(c[2].price_per_hour, 0.149);
  EXPECT_EQ(c[3].name, "t3.xlarge");
  EXPECT_DOUBLE_EQ(c[3].price_per_hour, 0.1664);
}

TEST(CatalogTest, BaseAndAuxiliaryPartition) {
  const Catalog c = Catalog::PaperPool();
  EXPECT_EQ(c.BaseType(), 0u);
  const auto aux = c.AuxiliaryTypes();
  EXPECT_EQ(aux, (std::vector<TypeId>{1, 2, 3}));
}

TEST(CatalogTest, FindShortName) {
  const Catalog c = Catalog::PaperPool();
  EXPECT_EQ(c.FindShortName("C2"), 2u);
  EXPECT_THROW(c.FindShortName("ZZ"), std::out_of_range);
}

TEST(CatalogTest, NoBaseTypeThrows) {
  Catalog c;
  c.Add({"x", "X", InstanceClass::kGeneralPurposeCpu, 1.0, false});
  EXPECT_THROW(c.BaseType(), std::logic_error);
}

TEST(CatalogTest, MultipleBaseTypesThrow) {
  Catalog c;
  c.Add({"x", "X", InstanceClass::kGpuAccelerated, 1.0, true});
  c.Add({"y", "Y", InstanceClass::kGpuAccelerated, 1.0, true});
  EXPECT_THROW(c.BaseType(), std::logic_error);
}

TEST(ConfigTest, CostMatchesPaperExample) {
  // Fig. 1's (3, 1, 3) over G1/C1/C2 costs 3*0.526 + 0.432 + 3*0.149.
  const Catalog c = Catalog::MotivationPool();
  const Config config({3, 1, 3});
  EXPECT_NEAR(config.CostPerHour(c), 2.457, 1e-9);
  EXPECT_EQ(config.TotalInstances(), 7);
  EXPECT_EQ(config.ToString(), "(3, 1, 3)");
}

TEST(ConfigTest, NegativeCountThrows) {
  EXPECT_THROW(Config({1, -1}), std::invalid_argument);
}

TEST(ConfigTest, SubConfigRelation) {
  const Config small({1, 0, 2});
  const Config big({2, 0, 2});
  EXPECT_TRUE(small.IsSubConfigOf(big));
  EXPECT_FALSE(big.IsSubConfigOf(small));
  EXPECT_FALSE(small.IsSubConfigOf(small));  // strict
  const Config incomparable({0, 5, 0});
  EXPECT_FALSE(incomparable.IsSubConfigOf(big));
  EXPECT_FALSE(big.IsSubConfigOf(incomparable));
}

TEST(ConfigTest, SquaredDistance) {
  const Config a({1, 2, 3});
  const Config b({2, 2, 1});
  EXPECT_DOUBLE_EQ(a.SquaredDistance(b), 1.0 + 0.0 + 4.0);
  EXPECT_DOUBLE_EQ(a.SquaredDistance(a), 0.0);
}

TEST(ConfigSpaceTest, AllWithinBudgetAndBaseRule) {
  const Catalog c = Catalog::PaperPool();
  ConfigSpaceOptions opt;
  opt.budget_per_hour = 2.5;
  const auto configs = EnumerateConfigs(c, opt);
  ASSERT_FALSE(configs.empty());
  for (const Config& cfg : configs) {
    EXPECT_LE(cfg.CostPerHour(c), 2.5 + 1e-9) << cfg.ToString();
    EXPECT_GE(cfg.Count(c.BaseType()), 1) << cfg.ToString();
  }
}

TEST(ConfigSpaceTest, NoDuplicates) {
  const Catalog c = Catalog::PaperPool();
  const auto configs = EnumerateConfigs(c, {.budget_per_hour = 2.5});
  std::set<Config> unique(configs.begin(), configs.end());
  EXPECT_EQ(unique.size(), configs.size());
}

TEST(ConfigSpaceTest, SpaceSizeHasPaperOrderOfMagnitude) {
  // Sec. 5.2 describes "an order of 1000-configuration search space".
  const Catalog c = Catalog::PaperPool();
  const auto at_default = EnumerateConfigs(c, {.budget_per_hour = 2.5});
  EXPECT_GT(at_default.size(), 100u);
  EXPECT_LT(at_default.size(), 2000u);
  // 4x budget (Fig. 15a) must expand the space substantially.
  const auto at_4x = EnumerateConfigs(c, {.budget_per_hour = 10.0});
  EXPECT_GT(at_4x.size(), 10u * at_default.size());
}

TEST(ConfigSpaceTest, BudgetGrowthIsMonotone) {
  const Catalog c = Catalog::PaperPool();
  std::size_t prev = 0;
  for (double budget : {1.0, 1.5, 2.0, 2.5, 3.0}) {
    const auto configs = EnumerateConfigs(c, {.budget_per_hour = budget});
    EXPECT_GE(configs.size(), prev);
    prev = configs.size();
  }
}

TEST(ConfigSpaceTest, MinBaseInstancesRespected) {
  const Catalog c = Catalog::PaperPool();
  ConfigSpaceOptions opt;
  opt.budget_per_hour = 2.5;
  opt.min_base_instances = 2;
  for (const Config& cfg : EnumerateConfigs(c, opt)) {
    EXPECT_GE(cfg.Count(0), 2);
  }
}

TEST(BestHomogeneousTest, MaxBaseNodesUnderBudget) {
  const Catalog c = Catalog::PaperPool();
  const Config homo = BestHomogeneous(c, 2.5);
  EXPECT_EQ(homo.Count(0), 4);  // 4 * 0.526 = 2.104 <= 2.5 < 5 * 0.526
  EXPECT_EQ(homo.Count(1), 0);
  EXPECT_EQ(homo.Count(2), 0);
  EXPECT_EQ(homo.Count(3), 0);
}

TEST(BestHomogeneousTest, TinyBudgetThrows) {
  const Catalog c = Catalog::PaperPool();
  EXPECT_THROW(BestHomogeneous(c, 0.1), std::invalid_argument);
}

TEST(BudgetSlackTest, HomogeneousSlackMatchesPaper) {
  // Sec. 4: (4, 0, 0) leaves ~70% of one G1 unused at the $2.5 budget.
  const Catalog c = Catalog::PaperPool();
  const Config homo = BestHomogeneous(c, 2.5);
  const double slack = BudgetSlack(c, homo, 2.5);
  EXPECT_NEAR(slack * 2.5 / 0.526, 0.7529, 1e-3);
}

}  // namespace
}  // namespace kairos::cloud
