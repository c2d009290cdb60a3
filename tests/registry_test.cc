// The registry contract every strategy plane shares (common/registry.h),
// tested once on local registries of dummy products so no process-wide
// table is touched: registration checks, case-insensitive lookup, the
// NOT_FOUND and unknown-knob texts, knob merging, pass-through requests,
// MakeFactory, and the aborting Registrar.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/registry.h"

namespace kairos {
namespace {

/// The dummy product: remembers the knob map its builder received.
struct Widget {
  KnobMap knobs;
};

using WidgetRegistry = Registry<Widget>;

/// A builder that keeps its knobs, and rejects a non-positive "teeth".
WidgetRegistry::Builder KeepKnobs() {
  return [](const KnobMap& knobs) -> StatusOr<std::unique_ptr<Widget>> {
    const auto teeth = knobs.find("teeth");
    if (teeth != knobs.end() && teeth->second <= 0.0) {
      return Status::InvalidArgument("teeth must be positive");
    }
    return std::make_unique<Widget>(Widget{knobs});
  };
}

TEST(RegistryTest, RejectsEmptyNameNullBuilderAndNullFactory) {
  WidgetRegistry registry("widget");

  const Status empty = registry.Register(RegistryInfo{"", "s", {}}, KeepKnobs());
  EXPECT_EQ(empty.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(empty.message(), "widget registration with empty name");

  const Status null_builder =
      registry.Register("gear", "s", WidgetRegistry::Builder());
  EXPECT_EQ(null_builder.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(null_builder.message(), "widget GEAR registered without a builder");

  const Status null_factory =
      registry.Register("gear", "s", WidgetRegistry::Factory());
  EXPECT_EQ(null_factory.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(null_factory.message(), "widget GEAR registered without a builder");

  EXPECT_TRUE(registry.ListNames().empty());
  EXPECT_FALSE(registry.Contains("gear"));
}

TEST(RegistryTest, DuplicateDifferingOnlyByCaseKeepsTheFirstEntry) {
  WidgetRegistry registry("widget");
  ASSERT_TRUE(
      registry.Register(RegistryInfo{"Gear", "first", {}}, KeepKnobs()).ok());

  const Status duplicate =
      registry.Register(RegistryInfo{"gEAR", "second", {}}, KeepKnobs());
  EXPECT_EQ(duplicate.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(duplicate.message(), "widget GEAR registered twice");

  EXPECT_EQ(registry.ListNames(), std::vector<std::string>{"GEAR"});
  const auto info = registry.Info("gear");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->name, "GEAR");
  EXPECT_EQ(info->summary, "first");
}

TEST(RegistryTest, ListNamesIsSortedAndLookupIgnoresCase) {
  WidgetRegistry registry("widget");
  for (const char* name : {"zeta", "Alpha", "MID"}) {
    ASSERT_TRUE(registry.Register(name, "s", KeepKnobs()).ok()) << name;
  }
  EXPECT_EQ(registry.ListNames(),
            (std::vector<std::string>{"ALPHA", "MID", "ZETA"}));
  for (const char* name : {"alpha", "ALPHA", "zEtA", "mid"}) {
    EXPECT_TRUE(registry.Contains(name)) << name;
    EXPECT_TRUE(registry.Build(name).ok()) << name;
  }
  EXPECT_FALSE(registry.Contains("beta"));
}

TEST(RegistryTest, UnknownNameIsNotFoundNamingEveryEntry) {
  WidgetRegistry registry("widget");
  ASSERT_TRUE(registry.Register("GEAR", "s", KeepKnobs()).ok());
  ASSERT_TRUE(registry.Register("ALPHA", "s", KeepKnobs()).ok());

  const std::string expected =
      "unknown widget \"bolt\"; registered widgets: ALPHA, GEAR";
  const auto built = registry.Build("bolt");
  EXPECT_EQ(built.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(built.status().message(), expected);
  EXPECT_EQ(registry.Info("bolt").status().message(), expected);
  EXPECT_EQ(registry.MakeFactory("bolt").status().message(), expected);
}

TEST(RegistryTest, BuilderReceivesTheCompleteMergedKnobMap) {
  WidgetRegistry registry("widget");
  ASSERT_TRUE(registry
                  .Register(RegistryInfo{"GEAR", "s",
                                         {{"teeth", 12.0}, {"width", 3.0}}},
                            KeepKnobs())
                  .ok());

  const auto defaults = registry.Build("GEAR");
  ASSERT_TRUE(defaults.ok()) << defaults.status().ToString();
  EXPECT_EQ((*defaults)->knobs, (KnobMap{{"teeth", 12.0}, {"width", 3.0}}));

  const auto overridden = registry.Build("gear", {{"width", 5.0}});
  ASSERT_TRUE(overridden.ok()) << overridden.status().ToString();
  EXPECT_EQ((*overridden)->knobs, (KnobMap{{"teeth", 12.0}, {"width", 5.0}}));
}

TEST(RegistryTest, UndeclaredKnobNamesTheKnobAndTheDeclaredList) {
  WidgetRegistry registry("widget");
  ASSERT_TRUE(registry
                  .Register(RegistryInfo{"GEAR", "s",
                                         {{"teeth", 12.0}, {"width", 3.0}}},
                            KeepKnobs())
                  .ok());
  ASSERT_TRUE(registry.Register("PLAIN", "s", KeepKnobs()).ok());

  const auto declared = registry.Build("GEAR", {{"pitch", 1.0}});
  EXPECT_EQ(declared.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(declared.status().message(),
            "widget GEAR has no knob \"pitch\"; declared knobs: teeth, width");
  EXPECT_EQ(registry.MakeFactory("GEAR", {{"pitch", 1.0}}).status(),
            declared.status());

  const auto none = registry.Build("plain", {{"pitch", 1.0}});
  EXPECT_EQ(none.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(none.status().message(),
            "widget PLAIN has no knob \"pitch\"; declared knobs: (none)");
}

/// A request that is not a KnobMap, and the product that records it.
struct Order {
  std::string label;
  std::vector<int> sizes;
};

struct Parcel {
  const Order* seen = nullptr;
  Order copy;
};

TEST(RegistryTest, NonKnobRequestReachesTheBuilderUnchanged) {
  Registry<Parcel, Order> registry("parcel");
  ASSERT_TRUE(registry
                  .Register("BOX", "s",
                            [](const Order& order)
                                -> StatusOr<std::unique_ptr<Parcel>> {
                              return std::make_unique<Parcel>(
                                  Parcel{&order, order});
                            })
                  .ok());

  const Order order{"fragile", {3, 1, 2}};
  const auto parcel = registry.Build("box", order);
  ASSERT_TRUE(parcel.ok()) << parcel.status().ToString();
  EXPECT_EQ((*parcel)->seen, &order);  // by const reference, no copy
  EXPECT_EQ((*parcel)->copy.label, "fragile");
  EXPECT_EQ((*parcel)->copy.sizes, (std::vector<int>{3, 1, 2}));
}

TEST(RegistryTest, MakeFactoryReturnsTheBuildersErrorAndFreshInstances) {
  WidgetRegistry registry("widget");
  ASSERT_TRUE(
      registry
          .Register(RegistryInfo{"GEAR", "s", {{"teeth", 12.0}}}, KeepKnobs())
          .ok());

  const auto rejected = registry.MakeFactory("GEAR", {{"teeth", 0.0}});
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(rejected.status().message(), "teeth must be positive");

  const auto factory = registry.MakeFactory("gear", {{"teeth", 8.0}});
  ASSERT_TRUE(factory.ok()) << factory.status().ToString();
  const auto a = (*factory)();
  const auto b = (*factory)();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(a->knobs, (KnobMap{{"teeth", 8.0}}));
  EXPECT_EQ(b->knobs, a->knobs);
}

TEST(RegistryTest, ZeroArgumentFactoryRegistersAnEntryWithoutKnobs) {
  WidgetRegistry registry("widget");
  ASSERT_TRUE(registry
                  .Register("SPROCKET", "made by a factory",
                            [] { return std::make_unique<Widget>(); })
                  .ok());
  const auto info = registry.Info("sprocket");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->summary, "made by a factory");
  EXPECT_TRUE(info->knobs.empty());
  const auto built = registry.Build("SPROCKET");
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_NE(*built, nullptr);
}

/// Registrar needs a Global() table; this one serves only the tests below.
class GadgetRegistry : public Registry<Widget> {
 public:
  static GadgetRegistry& Global() {
    static GadgetRegistry* registry = new GadgetRegistry();
    return *registry;
  }

 private:
  GadgetRegistry() : Registry("gadget") {}
};

TEST(RegistrarTest, RegistersIntoTheGlobalTable) {
  const Registrar<GadgetRegistry> registrar("lever", "s", KeepKnobs());
  EXPECT_TRUE(GadgetRegistry::Global().Contains("LEVER"));
}

TEST(RegistrarDeathTest, RejectedRegistrationAborts) {
  EXPECT_DEATH(Registrar<GadgetRegistry>("", "s", KeepKnobs()),
               "gadget registration with empty name");
}

}  // namespace
}  // namespace kairos
