#include "reference.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

double ReferenceValue(const std::string& agg, const GroupStats& s) {
  const long double n = static_cast<long double>(s.n);
  const long double mean = s.sum / n;
  const long double var = s.m2 / n;
  if (agg == "count") return static_cast<double>(s.n);
  if (agg == "sum") return static_cast<double>(s.sum);
  if (agg == "min") return s.min;
  if (agg == "max") return s.max;
  if (agg == "avg") return static_cast<double>(mean);
  if (agg == "var") return static_cast<double>(var);
  if (agg == "stddev") return static_cast<double>(std::sqrt(var));
  if (agg == "qm") return static_cast<double>(std::sqrt(var + mean * mean));
  if (agg == "cm") {
    // E[x^3] = (m3 + 3·mean·m2)/n + mean^3, since Σ(x - mean) = 0.
    return static_cast<double>(
        std::cbrt((s.m3 + 3 * mean * s.m2) / n + mean * mean * mean));
  }
  if (agg == "hm") return static_cast<double>(n / s.sum_inv);
  if (agg == "gm") return static_cast<double>(std::exp(s.sum_ln / n));
  if (agg == "skewness") {
    return static_cast<double>((s.m3 / n) / std::pow(var, 1.5L));
  }
  if (agg == "kurtosis") return static_cast<double>((s.m4 / n) / (var * var));
  return std::numeric_limits<double>::quiet_NaN();
}

bool Matches(const std::string& agg, const GroupStats& s, double got) {
  const double want = ReferenceValue(agg, s);
  if (agg == "count" || agg == "min" || agg == "max") return got == want;
  if ((agg == "skewness" || agg == "kurtosis") && s.m2 == 0) return true;
  if (!std::isfinite(got) || !std::isfinite(want)) return false;
  return std::fabs(got - want) <= kRelTol * std::max(1.0, std::fabs(want));
}

double RankError(const std::vector<double>& sorted, double estimate,
                 double phi) {
  if (sorted.empty() || !std::isfinite(estimate)) return 1.0;
  const auto lo = std::lower_bound(sorted.begin(), sorted.end(), estimate);
  const auto hi = std::upper_bound(sorted.begin(), sorted.end(), estimate);
  const double below = static_cast<double>(lo - sorted.begin());
  const double at = static_cast<double>(hi - lo);
  const double rank = (below + 0.5 * at) / static_cast<double>(sorted.size());
  return std::fabs(rank - phi);
}

}  // namespace perfbench
