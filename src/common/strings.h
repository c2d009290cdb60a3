// Tiny string-formatting helpers shared by the error messages the public
// API surfaces (registries, planner backends, the Fleet facade).
#pragma once

#include <ios>
#include <sstream>
#include <string>
#include <vector>

namespace kairos {

/// "KAIROS, RIBBON, DRS" — the alternatives list every lookup error ends
/// with.
inline std::string JoinComma(const std::vector<std::string>& items) {
  std::string joined;
  for (const std::string& item : items) {
    if (!joined.empty()) joined += ", ";
    joined += item;
  }
  return joined;
}

/// Upper-cases ASCII — the canonical form every registry keys on
/// ("kairos" -> "KAIROS").
inline std::string CanonicalName(const std::string& name) {
  std::string canonical = name;
  for (char& c : canonical) {
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
  }
  return canonical;
}

/// "$2.49/hr" with 3 significant digits, the budget formatting used in
/// infeasibility messages.
inline std::string FormatDollarsPerHour(double dollars) {
  std::ostringstream out;
  out.precision(3);
  out << "$" << dollars << "/hr";
  return out.str();
}

/// "7.5" with 3 significant digits, falling back to fixed notation for
/// large magnitudes (control-log reasons must read "1183ms", never
/// "1.18e+03ms"). The cutoff is 999.5 — where 3-significant-digit
/// default notation itself rounds up and switches to scientific.
inline std::string FormatNumber(double value) {
  std::ostringstream out;
  if (value >= 999.5 || value <= -999.5) {
    out.precision(0);
    out << std::fixed << value;
  } else {
    out.precision(3);
    out << value;
  }
  return out.str();
}

/// "7.5s" with 3 significant digits — simulated-time formatting for
/// control-plane reasons and error messages.
inline std::string FormatSeconds(double seconds) {
  return FormatNumber(seconds) + "s";
}

}  // namespace kairos
