// The distribution-scheme registry: every policy registers itself (a
// static PolicyRegistrar in its .cc) under a canonical upper-case name
// with a knob map of tunables, and callers build policies by name —
// case-insensitively — without including any concrete policy header.
// Unknown names and unknown knobs come back as kairos::Status errors that
// list the valid alternatives, never as exceptions (common/registry.h).
#pragma once

#include "common/registry.h"
#include "policy/policy.h"

namespace kairos::policy {

using kairos::KnobMap;
using PolicyInfo = RegistryInfo;

/// Process-wide name -> builder table for distribution schemes.
class PolicyRegistry : public Registry<Policy> {
 public:
  static PolicyRegistry& Global() {
    static PolicyRegistry* registry = new PolicyRegistry();
    return *registry;
  }

 private:
  PolicyRegistry() : Registry("scheme") {}
};

using PolicyRegistrar = Registrar<PolicyRegistry>;

}  // namespace kairos::policy

namespace kairos {
/// The registry is part of the top-level public API surface.
using policy::PolicyRegistry;
}  // namespace kairos
