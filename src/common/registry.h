// The one name -> builder table behind every pluggable strategy in the
// library: distribution schemes (PolicyRegistry), planners
// (PlannerRegistry), budget allocators (AllocatorRegistry), query sources
// (QuerySourceRegistry), fleet controllers (ControllerRegistry) and chaos
// injectors (ChaosRegistry). Each plane is a thin subclass that holds its
// Global() table and the noun its errors print; the contract lives here
// once:
//
//   * names are canonical upper-case ASCII and looked up
//     case-insensitively ("kairos+" finds "KAIROS+");
//   * registration rejects an empty name, a null builder, and a name
//     already taken (the first entry stays);
//   * an unknown name is kNotFound listing every registered name;
//   * when Request is KnobMap, the caller's overrides are merged onto the
//     entry's declared defaults and the builder sees the complete map; an
//     undeclared knob is kInvalidArgument naming the declared ones. Any
//     other Request reaches the builder by const reference, untouched.
//
// Entries register during static initialization (Registrar) and are never
// removed, so lookups afterwards are read-only and safe from any thread.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/strings.h"

namespace kairos {

/// Named numeric tunables. Booleans are encoded as 0.0 / 1.0, integers as
/// their exact double value — one scalar type keeps knob plumbing (CLI
/// flags, sweep configs) trivial.
using KnobMap = std::map<std::string, double>;

/// Registration-time description of one entry.
struct RegistryInfo {
  std::string name;     ///< canonical name, e.g. "KAIROS" (upper-cased)
  std::string summary;  ///< one-line description for listings
  KnobMap knobs;        ///< declared knob names with their defaults
};

template <class Product, class Request = KnobMap>
class Registry {
 public:
  /// Builds one product. A KnobMap builder receives the *complete* knob
  /// map (every declared knob present, no others). An out-of-range value
  /// is kInvalidArgument — builders must not throw or silently clamp.
  using Builder =
      std::function<StatusOr<std::unique_ptr<Product>>(const Request&)>;
  /// A fresh product per call (one per rate trial, say); cannot fail.
  using Factory = std::function<std::unique_ptr<Product>()>;

  /// `noun` names the entries in every error ("scheme", "planner", ...).
  explicit Registry(std::string noun) : noun_(std::move(noun)) {}

  /// Registers `builder` under the canonical form of info.name.
  /// kInvalidArgument for an empty name, a null builder, or a name
  /// already registered.
  Status Register(RegistryInfo info, Builder builder) {
    info.name = CanonicalName(info.name);
    if (info.name.empty()) {
      return Status::InvalidArgument(noun_ + " registration with empty name");
    }
    if (builder == nullptr) {
      return Status::InvalidArgument(noun_ + " " + info.name +
                                     " registered without a builder");
    }
    if (entries_.count(info.name) > 0) {
      return Status::InvalidArgument(noun_ + " " + info.name +
                                     " registered twice");
    }
    std::string key = info.name;  // read before info is moved from
    entries_.emplace(std::move(key), Entry{std::move(info), std::move(builder)});
    return Status::Ok();
  }

  /// An entry that declares no knobs.
  Status Register(std::string name, std::string summary, Builder builder) {
    return Register(RegistryInfo{std::move(name), std::move(summary), {}},
                    std::move(builder));
  }

  /// An entry built by a zero-argument factory, which cannot fail.
  Status Register(std::string name, std::string summary, Factory make) {
    Builder builder;
    if (make != nullptr) {
      builder = [make = std::move(make)](const Request&)
          -> StatusOr<std::unique_ptr<Product>> { return make(); };
    }
    return Register(std::move(name), std::move(summary), std::move(builder));
  }

  /// Canonical names of every entry, sorted.
  std::vector<std::string> ListNames() const {
    std::vector<std::string> names;
    names.reserve(entries_.size());
    for (const auto& [name, entry] : entries_) names.push_back(name);
    return names;  // std::map iterates in sorted key order
  }

  bool Contains(const std::string& name) const {
    return entries_.count(CanonicalName(name)) > 0;
  }

  /// Registration info: canonical name, summary and declared knobs.
  StatusOr<RegistryInfo> Info(const std::string& name) const {
    auto entry = Find(name);
    if (!entry.ok()) return entry.status();
    return (*entry)->info;
  }

  /// Builds one product by name. A KnobMap `request` may override any
  /// subset of the declared knobs.
  StatusOr<std::unique_ptr<Product>> Build(const std::string& name,
                                           const Request& request = {}) const {
    auto entry = Find(name);
    if (!entry.ok()) return entry.status();
    if constexpr (kMergesKnobs) {
      auto knobs = MergeKnobs(**entry, request);
      if (!knobs.ok()) return knobs.status();
      return (*entry)->builder(*knobs);
    } else {
      return (*entry)->builder(request);
    }
  }

  /// Build()'s resolution packaged as a reusable factory. One trial build
  /// runs here, so a builder's error comes back now and the factory
  /// itself cannot fail.
  StatusOr<Factory> MakeFactory(const std::string& name,
                                const Request& request = {}) const {
    auto entry = Find(name);
    if (!entry.ok()) return entry.status();
    Request resolved = request;
    if constexpr (kMergesKnobs) {
      auto knobs = MergeKnobs(**entry, request);
      if (!knobs.ok()) return knobs.status();
      resolved = *std::move(knobs);
    }
    auto trial = (*entry)->builder(resolved);
    if (!trial.ok()) return trial.status();
    return Factory([builder = (*entry)->builder,
                    resolved = std::move(resolved)] {
      // The trial build validated this request; a builder whose
      // validation is not deterministic aborts via value().
      return builder(resolved).value();
    });
  }

 private:
  static constexpr bool kMergesKnobs = std::is_same_v<Request, KnobMap>;

  struct Entry {
    RegistryInfo info;
    Builder builder;
  };

  /// The entry (never invalidated: entries are never erased), or
  /// kNotFound naming the alternatives.
  StatusOr<const Entry*> Find(const std::string& name) const {
    const auto it = entries_.find(CanonicalName(name));
    if (it == entries_.end()) {
      return Status::NotFound("unknown " + noun_ + " \"" + name +
                              "\"; registered " + noun_ +
                              "s: " + JoinComma(ListNames()));
    }
    return &it->second;
  }

  /// The declared defaults overlaid with `overrides`.
  StatusOr<KnobMap> MergeKnobs(const Entry& entry,
                               const KnobMap& overrides) const {
    KnobMap knobs = entry.info.knobs;
    for (const auto& [knob, value] : overrides) {
      const auto it = knobs.find(knob);
      if (it == knobs.end()) {
        std::vector<std::string> declared;
        for (const auto& [k, v] : entry.info.knobs) declared.push_back(k);
        return Status::InvalidArgument(
            noun_ + " " + entry.info.name + " has no knob \"" + knob +
            "\"; declared knobs: " +
            (declared.empty() ? "(none)" : JoinComma(declared)));
      }
      it->second = value;
    }
    return knobs;
  }

  std::string noun_;
  std::map<std::string, Entry> entries_;  ///< keyed by canonical name
};

/// Static-initialization helper: each strategy .cc defines one at
/// namespace scope to self-register into R::Global(), with any of
/// R::Register's argument lists. A rejected registration is a programming
/// error, so it aborts at startup instead of shadowing an entry.
template <class R>
class Registrar {
 public:
  template <class... Args>
  explicit Registrar(Args&&... args) {
    const Status status = R::Global().Register(std::forward<Args>(args)...);
    if (!status.ok()) {
      std::fprintf(stderr, "Registrar: %s\n", status.ToString().c_str());
      std::abort();
    }
  }
};

}  // namespace kairos
