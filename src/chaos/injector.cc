#include "chaos/injector.h"

namespace kairos::chaos {

const char* ChaosEventName(ChaosEventKind kind) {
  switch (kind) {
    case ChaosEventKind::kPreemptionNotice: return "PREEMPTION_NOTICE";
    case ChaosEventKind::kPreemption: return "PREEMPTION";
    case ChaosEventKind::kInstanceDeath: return "INSTANCE_DEATH";
    case ChaosEventKind::kNetDegrade: return "NET_DEGRADE";
    case ChaosEventKind::kNetRestore: return "NET_RESTORE";
    case ChaosEventKind::kDomainOutage: return "DOMAIN_OUTAGE";
  }
  return "UNKNOWN";
}

}  // namespace kairos::chaos
