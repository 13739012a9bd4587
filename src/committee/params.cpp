#include "committee/params.h"

#include <cmath>
#include <sstream>

#include "common/errors.h"

namespace coincidence::committee {

namespace {
double lambda_of(std::size_t n) { return 8.0 * std::log(static_cast<double>(n)); }
}  // namespace

Window epsilon_window(std::size_t n) {
  if (n < 2) return {0.0, 0.0};
  double ln_n = std::log(static_cast<double>(n));
  double lo = std::max(3.0 / (8.0 * ln_n), 0.109) + 1.0 / (8.0 * ln_n);
  return {lo, 1.0 / 3.0};
}

Window d_window(std::size_t n, double epsilon) {
  if (n < 2) return {0.0, 0.0};
  double lambda = lambda_of(n);
  double lo = std::max(1.0 / lambda, 0.0362);
  double hi = epsilon / 3.0 - 1.0 / (3.0 * lambda);
  return {lo, hi};
}

std::size_t min_feasible_n() {
  static const std::size_t cached = [] {
    for (std::size_t n = 2; n < 1000000; ++n) {
      Window ew = epsilon_window(n);
      if (!ew.feasible()) continue;
      Window dw = d_window(n, ew.midpoint());
      if (dw.feasible()) return n;
    }
    return std::size_t{0};
  }();
  return cached;
}

double Params::sample_prob() const {
  return std::min(1.0, lambda / static_cast<double>(n));
}

Params Params::derive(std::size_t n, double epsilon, double d, bool strict) {
  if (n < 2) throw ConfigError("Params: n must be at least 2");
  if (!(epsilon > 0.0 && epsilon < 1.0 / 3.0))
    throw ConfigError("Params: epsilon must lie in (0, 1/3)");

  Params p;
  p.n = n;
  p.epsilon = epsilon;
  p.lambda = lambda_of(n);
  p.d = d;
  p.f = static_cast<std::size_t>(
      std::floor((1.0 / 3.0 - epsilon) * static_cast<double>(n)));
  p.W = static_cast<std::size_t>(std::ceil((2.0 / 3.0 + 3.0 * d) * p.lambda));
  p.B = static_cast<std::size_t>(std::floor((1.0 / 3.0 - d) * p.lambda));

  if (strict) {
    Window ew = epsilon_window(n);
    if (!ew.contains(epsilon)) {
      std::ostringstream os;
      os << "Params: epsilon=" << epsilon << " outside the paper window ("
         << ew.lo << ", " << ew.hi << ") for n=" << n;
      throw ConfigError(os.str());
    }
    Window dw = d_window(n, epsilon);
    if (!dw.contains(d)) {
      std::ostringstream os;
      os << "Params: d=" << d << " outside the paper window (" << dw.lo
         << ", " << dw.hi << ") for n=" << n << ", epsilon=" << epsilon;
      throw ConfigError(os.str());
    }
  } else {
    // Relaxed mode still requires basic sanity: thresholds must be
    // satisfiable and d positive.
    if (!(d > 0.0 && d < 1.0 / 3.0))
      throw ConfigError("Params: d must lie in (0, 1/3)");
  }
  return p;
}

Params Params::derive_auto(std::size_t n) {
  Window ew = epsilon_window(n);
  if (!ew.feasible())
    throw ConfigError("Params: epsilon window empty for n=" +
                      std::to_string(n));
  double eps = ew.midpoint();
  Window dw = d_window(n, eps);
  if (!dw.feasible())
    throw ConfigError("Params: d window empty for n=" + std::to_string(n));
  return derive(n, eps, dw.midpoint(), /*strict=*/true);
}

std::string Params::describe() const {
  std::ostringstream os;
  os << "n=" << n << " f=" << f << " eps=" << epsilon << " lambda=" << lambda
     << " d=" << d << " W=" << W << " B=" << B;
  return os.str();
}

void Params::require_reachable_quorum(std::size_t silent) const {
  if (W + silent <= n) return;
  std::ostringstream os;
  os << "Params: no committee can reach its quorum: W=" << W
     << " exceeds n - silent = " << n << " - " << silent << " (d=" << d
     << ")";
  throw ConfigError(os.str());
}

double coin_success_lower_bound(double epsilon) {
  return (18.0 * epsilon * epsilon + 24.0 * epsilon - 1.0) /
         (6.0 * (1.0 + 6.0 * epsilon));
}

double whp_coin_success_lower_bound(double d) {
  return (18.0 * d * d + 27.0 * d - 1.0) /
         (3.0 * (5.0 + 6.0 * d) * (1.0 - d) * (1.0 + 9.0 * d));
}

double s1_failure_bound(double lambda, double d) {
  return std::exp(-d * d * lambda / (2.0 + d));
}

double s2_failure_bound(double lambda, double d) {
  return std::exp(-d * d * lambda / 2.0);
}

double s3_failure_bound(double lambda, double d, double epsilon) {
  // Appendix A, Lemma S3: X ~ Bin((2/3+ε)n, λ/n); δ = 1 − (2/3+d')/(2/3+ε)
  // with d' = 3d + 1/λ; bound exp(−δ² E[X] / 2).
  double dp = 3.0 * d + 1.0 / lambda;
  double delta = 1.0 - (2.0 / 3.0 + dp) / (2.0 / 3.0 + epsilon);
  if (delta < 0.0) return 1.0;  // outside the lemma's hypothesis
  double mean = (2.0 / 3.0 + epsilon) * lambda;
  return std::exp(-delta * delta * mean / 2.0);
}

double s4_failure_bound(double lambda, double d, double epsilon) {
  // Appendix A, Lemma S4: X ~ Bin((1/3−ε)n, λ/n); δ = (ε−d)/(1/3−ε);
  // bound exp(−δ² E[X] / (2+δ)).
  if (epsilon <= d) return 1.0;
  double delta = (epsilon - d) / (1.0 / 3.0 - epsilon);
  double mean = (1.0 / 3.0 - epsilon) * lambda;
  return std::exp(-delta * delta * mean / (2.0 + delta));
}

}  // namespace coincidence::committee
