// The chaos subsystem (DESIGN.md Sec. 11): seeded, deterministic fault
// injectors for the fleet co-simulation. ROADMAP's "chaos and failure
// scenarios" item — the cost-efficiency story only matters if it survives
// what production actually does: spot reclamation, instance death,
// degraded networks. Injectors are selected by name from a
// common/registry.h Registry, like every other strategy in the repo:
//
//   * SPOT_PREEMPTION — a preemptible market (cloud::SpotMarket): Poisson
//                       reclamation timelines with a notice window and a
//                       spot discount on the model's billed spend;
//   * INSTANCE_DEATH  — abrupt Poisson kills, no notice, no discount;
//   * NET_DEGRADE     — swap a degraded rpc::NetworkModel (base/jitter/
//                       loss) under the dispatcher<->instance fabric for
//                       a time window;
//   * DOMAIN_OUTAGE   — correlated loss: one sampled rack/AZ failure
//                       domain reclaimed whole in a single fault;
//   * COMPOSITE       — schedule any of the above together on one
//                       timeline (scripted timelines go through
//                       MakeScriptedChaos, chaos/injectors.h).
//
// Determinism contract: Arm() precomputes the whole fault timeline from
// the schedule seed (forked per injector and per model — never shared
// with workload or policy streams); FaultTimes() turns the timeline into
// co-simulation barriers; Apply() runs on the driving thread with every
// shard quiesced at the barrier and must be a pure function of the armed
// state. Fault application is therefore bit-identical for every
// serve_threads value, and a run with no injector (or an injector armed
// at rate 0) is bit-identical to a chaos-free build (tests/chaos_test.cc).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cloud/billing.h"  // SpotMarket
#include "common/registry.h"
#include "common/time.h"

namespace kairos::rpc {
class NetworkModel;  // rpc/netem.h
}  // namespace kairos::rpc

namespace kairos::chaos {

/// Named numeric tunables, booleans encoded as 0.0 / 1.0.
using kairos::KnobMap;

/// Injector "model" target meaning "every served model".
inline constexpr std::size_t kAllModels =
    std::numeric_limits<std::size_t>::max();

/// What one applied fault was (FleetServeResult::chaos_log).
enum class ChaosEventKind {
  kPreemptionNotice,  ///< spot reclamation notice; the hard kill follows
  kPreemption,        ///< the reclamation's hard kill
  kInstanceDeath,     ///< abrupt kill, no notice
  kNetDegrade,        ///< degraded fabric installed
  kNetRestore,        ///< pristine fabric restored
  kDomainOutage,      ///< correlated loss of one whole failure domain
};

/// Human-readable event name ("PREEMPTION_NOTICE", ...).
const char* ChaosEventName(ChaosEventKind kind);

/// One fault the chaos plane applied.
struct ChaosEvent {
  Time time = 0.0;            ///< when the fault landed
  ChaosEventKind kind = ChaosEventKind::kInstanceDeath;
  std::size_t model = 0;      ///< served-plan model index
  std::size_t instances = 0;  ///< instances noticed / killed (0 for net)
  std::string detail;         ///< human-readable specifics
};

/// The shape of one ServeAll run, handed to Arm().
struct ChaosSchedule {
  double duration_s = 0.0;
  double window_s = 0.0;
  std::uint64_t seed = 0;      ///< the fleet seed; injectors fork from it
  std::size_t num_models = 0;  ///< served-plan model count
};

/// The fleet surface a firing injector mutates. Implemented inside
/// Fleet::ServeAll over the live shard engines; every call happens at a
/// barrier, on the driving thread, with all shards quiesced.
class ChaosTarget {
 public:
  virtual ~ChaosTarget() = default;

  virtual std::size_t NumModels() const = 0;
  virtual const std::string& ModelName(std::size_t model) const = 0;

  /// Assignable (live, non-retiring) instances of `model` right now.
  virtual std::size_t LiveInstances(std::size_t model) const = 0;

  /// Issues `count` spot reclamation notices: each target stops taking
  /// work immediately and is hard-killed notice_s seconds later unless it
  /// drained first. Returns notices actually issued (the engine spares
  /// its last assignable instance).
  virtual std::size_t Preempt(std::size_t model, std::size_t count,
                              double notice_s) = 0;

  /// Hard-kills `count` instances right now; same survivor guarantee.
  /// Returns the kills applied.
  virtual std::size_t Kill(std::size_t model, std::size_t count) = 0;

  /// Failure domains `model`'s instances are spread over (>= 1). The
  /// default (1) models a target without placement metadata; correlated
  /// injectors degrade gracefully to single-instance faults against it.
  virtual std::size_t NumDomains(std::size_t model) const {
    (void)model;
    return 1;
  }

  /// Issues reclamation notices to every assignable instance of `model`
  /// in failure domain `domain` (one survivor spared when the domain is
  /// the whole deployment). Default: one plain Preempt, so targets
  /// without domain support still see a fault.
  virtual std::size_t PreemptDomain(std::size_t model, std::size_t domain,
                                    double notice_s) {
    (void)domain;
    return Preempt(model, 1, notice_s);
  }

  /// Hard-kills every assignable instance of `model` in `domain` (same
  /// survivor rule). Default: one plain Kill.
  virtual std::size_t KillDomain(std::size_t model, std::size_t domain) {
    (void)domain;
    return Kill(model, 1);
  }

  /// Installs a copy of `net` as `model`'s dispatcher<->instance fabric.
  virtual void DegradeNetwork(std::size_t model,
                              const rpc::NetworkModel& net) = 0;

  /// Restores `model`'s pristine zero-delay fabric.
  virtual void RestoreNetwork(std::size_t model) = 0;
};

/// A fault-injection strategy. Implementations must uphold the
/// determinism contract in the header comment.
class ChaosInjector {
 public:
  virtual ~ChaosInjector() = default;

  /// Canonical injector name ("SPOT_PREEMPTION", ...).
  virtual std::string Name() const = 0;

  /// Called once per ServeAll run, before serving starts. Must *fully*
  /// reset per-run state (a programmatic injector may be reused across
  /// runs) and precompute the seeded fault timeline. kInvalidArgument for
  /// a target model index outside [0, num_models) or invalid parameters.
  virtual Status Arm(const ChaosSchedule& schedule) = 0;

  /// Times (inside [0, duration)) where armed faults are due; the fleet
  /// merges them into its barrier grid. May be empty (rate 0).
  virtual std::vector<Time> FaultTimes() const = 0;

  /// Applies every armed fault with time <= now that has not fired yet;
  /// returns what was done. Hard kills triggered by an earlier notice are
  /// *not* reported here — they fire on the shard clock and surface
  /// through serving::Engine::Faults().
  virtual std::vector<ChaosEvent> Apply(Time now, ChaosTarget& target) = 0;

  /// The spot market covering `model`; nullptr when the model rents on
  /// demand. Fleet::ServeAll prices each model's billed spend with this.
  virtual const cloud::SpotMarket* Market(std::size_t model) const {
    (void)model;
    return nullptr;
  }
};

/// Process-wide name -> injector table (common/registry.h): static
/// registrars populate it, lookup is case-insensitive, and a builder
/// receives the complete knob map. kInvalidArgument for an out-of-range
/// knob value.
class ChaosRegistry : public Registry<ChaosInjector> {
 public:
  static ChaosRegistry& Global() {
    static ChaosRegistry* registry = new ChaosRegistry();
    return *registry;
  }

 private:
  ChaosRegistry() : Registry("chaos injector") {}
};

using ChaosInfo = RegistryInfo;
using ChaosRegistrar = Registrar<ChaosRegistry>;

}  // namespace kairos::chaos

namespace kairos {
using chaos::ChaosInjector;
using chaos::ChaosRegistry;
}  // namespace kairos
