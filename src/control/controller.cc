#include "control/controller.h"

namespace kairos::control {

const char* ControlActionName(ControlActionKind kind) {
  switch (kind) {
    case ControlActionKind::kReallocate: return "REALLOCATE";
    case ControlActionKind::kResetMonitor: return "RESET_MONITOR";
    case ControlActionKind::kRespread: return "RESPREAD";
    case ControlActionKind::kFailover: return "FAILOVER";
    case ControlActionKind::kSetShed: return "SET_SHED";
    case ControlActionKind::kBorrowBudget: return "BORROW_BUDGET";
  }
  return "UNKNOWN";
}

}  // namespace kairos::control
