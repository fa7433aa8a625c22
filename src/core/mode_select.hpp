// Per-output-bit operating-mode selection for the reconfigurable
// architectures (Sec. IV-A / IV-B2).
#pragma once

#include "core/setting.hpp"

namespace dalut::core {

/// Which modes the target architecture supports, and the selection factors.
struct ModePolicy {
  bool allow_bto = false;
  bool allow_nd = false;
  /// BssaParams::validate checks only that both are finite and >= 0; the
  /// paper's 0 < delta < delta' < 1 is not enforced.
  double delta = 0.01;        ///< delta
  double delta_prime = 0.1;   ///< delta'

  static ModePolicy normal_only() { return {}; }
  static ModePolicy bto_normal(double delta = 0.01) {
    return {true, false, delta, 0.1};
  }
  static ModePolicy bto_normal_nd(double delta = 0.01,
                                  double delta_prime = 0.1) {
    return {true, true, delta, delta_prime};
  }
};

/// Applies the paper's selection rule to the best settings of each mode
/// (invalid settings are treated as "mode unavailable"):
///   BTO-Normal     : BTO if E_BTO < (1+delta) E, else normal.
///   BTO-Normal-ND  : BTO if E_BTO < (1+delta) E and E_ND > (1-delta') E;
///                    else ND if E_ND < (1-delta) E; else normal.
/// Returns the chosen setting (by value).
Setting select_mode(const Setting& normal, const Setting& bto,
                    const Setting& nd, const ModePolicy& policy);

}  // namespace dalut::core
