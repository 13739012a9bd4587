// Protocol parameters, exactly as constrained by the paper.
//
// §2:   f = (1/3 − ε)n with max{3/(8 ln n), 0.109} + 1/(8 ln n) < ε < 1/3.
// §5.1: λ = 8 ln n;  max{1/λ, 0.0362} < d < ε/3 − 1/(3λ);
//       W = ⌈(2/3 + 3d)λ⌉  (wait threshold),
//       B = ⌊(1/3 − d)λ⌋  (max Byzantine per committee, whp).
//
// Also provides the paper's analytic bounds as plain functions so the
// benches can print "paper bound vs measured" side by side:
//   Lemma 4.8    shared-coin success rate  (18ε² + 24ε − 1) / (6(1+6ε))
//   Lemma B.7    WHP-coin success rate     (18d² + 27d − 1) / (3(5+6d)(1−d)(1+9d))
//   Claim 1      Chernoff failure bounds for S1–S4.
#pragma once

#include <cstddef>
#include <string>

namespace coincidence::committee {

/// An open interval (lo, hi); empty/infeasible when lo >= hi.
struct Window {
  double lo = 0.0;
  double hi = 0.0;
  bool feasible() const { return lo < hi; }
  double midpoint() const { return (lo + hi) / 2.0; }
  bool contains(double x) const { return lo < x && x < hi; }
};

/// The admissible ε interval for a given n (§2).
Window epsilon_window(std::size_t n);

/// The admissible d interval for a given n and ε (§5.1).
Window d_window(std::size_t n, double epsilon);

/// Smallest n for which both windows are non-empty when ε and d are taken
/// at their window midpoints.
std::size_t min_feasible_n();

struct Params {
  std::size_t n = 0;
  std::size_t f = 0;  // ⌊(1/3 − ε)n⌋
  double epsilon = 0.0;
  double lambda = 0.0;  // 8 ln n
  double d = 0.0;
  std::size_t W = 0;  // committee wait threshold
  std::size_t B = 0;  // committee Byzantine bound

  /// Per-process committee election probability λ/n.
  double sample_prob() const;

  /// Builds parameters, validating the paper's windows. With
  /// strict=false the lower-bound constants (0.109 / 0.0362) are waived —
  /// used only by clearly-labelled small-n exploration benches; W/B are
  /// still computed from the same formulas.
  static Params derive(std::size_t n, double epsilon, double d,
                       bool strict = true);

  /// Chooses ε and d at their window midpoints (strict mode only; throws
  /// ConfigError when n is below min_feasible_n()).
  static Params derive_auto(std::size_t n);

  std::string describe() const;

  /// Throws ConfigError when W > n − silent: with `silent` processes
  /// never speaking, no committee gathers W live members, so no quorum
  /// forms and a run could only spin until its delivery budget ran out.
  void require_reachable_quorum(std::size_t silent) const;
};

/// Lemma 4.8: lower bound on the full-participation coin's success rate.
double coin_success_lower_bound(double epsilon);

/// Lemma B.7: lower bound on the committee coin's success rate (whp).
double whp_coin_success_lower_bound(double d);

/// Claim 1 Chernoff failure-probability upper bounds (per committee).
double s1_failure_bound(double lambda, double d);
double s2_failure_bound(double lambda, double d);
double s3_failure_bound(double lambda, double d, double epsilon);
double s4_failure_bound(double lambda, double d, double epsilon);

}  // namespace coincidence::committee
