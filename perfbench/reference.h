#ifndef SUDAF_PERFBENCH_REFERENCE_H_
#define SUDAF_PERFBENCH_REFERENCE_H_

// Independent answers the benchmark checks the program against. Nothing
// here calls into the library: group statistics are exact counts, sums,
// minimums and maximums plus two-pass central moments accumulated in long
// double, and quantiles are exact order statistics.

#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

struct GroupStats {
  int64_t n = 0;
  long double sum = 0;
  double min = 0;
  double max = 0;
  long double sum_inv = 0;  // Σ 1/x
  long double sum_ln = 0;   // Σ ln x
  long double m2 = 0;       // Σ (x - mean)^2
  long double m3 = 0;
  long double m4 = 0;
};

// Two-pass statistics of the rows r in [0, num_rows) with keep(r), grouped
// by group(r) in [0, num_groups), over value(r). Rows are split over
// `threads` workers; the partial sums merge in worker order.
template <typename Keep, typename Group, typename Value>
std::vector<GroupStats> ComputeGroupStats(int64_t num_rows, int32_t num_groups,
                                          int threads, Keep keep, Group group,
                                          Value value);

// The reference value of aggregate `agg` (a library UDAF or built-in name:
// count, sum, min, max, avg, var, stddev, qm, cm, hm, gm, skewness,
// kurtosis) for one group, using the library's population definitions.
double ReferenceValue(const std::string& agg, const GroupStats& s);

// Whether `got` matches `want` for aggregate `agg`: count, min and max
// exactly; everything else within kRelTol relative error (absolute below
// magnitude 1). Standardized moments of a group with zero spread are
// undefined and accept any value.
constexpr double kRelTol = 1e-6;
bool Matches(const std::string& agg, const GroupStats& s, double got);

// |F(estimate) - phi|, where F is the mid-rank empirical CDF of `sorted`
// (ascending): the rank error of an approximate phi-quantile.
double RankError(const std::vector<double>& sorted, double estimate,
                 double phi);
// The largest rank error the moments-sketch quantiles may show.
constexpr double kMaxRankError = 0.1;

// ---------------------------------------------------------------------------

template <typename Keep, typename Group, typename Value>
std::vector<GroupStats> ComputeGroupStats(int64_t num_rows, int32_t num_groups,
                                          int threads, Keep keep, Group group,
                                          Value value) {
  if (threads < 1) threads = 1;
  std::vector<std::vector<GroupStats>> parts(
      threads, std::vector<GroupStats>(num_groups));
  auto range = [&](int t) {
    return std::pair<int64_t, int64_t>(num_rows * t / threads,
                                       num_rows * (t + 1) / threads);
  };
  auto run = [&](auto&& body) {
    std::vector<std::thread> workers;
    for (int t = 1; t < threads; ++t) workers.emplace_back(body, t);
    body(0);
    for (std::thread& w : workers) w.join();
  };
  // Pass 1: count, sum, extrema, reciprocal and log sums.
  run([&](int t) {
    auto [lo, hi] = range(t);
    std::vector<GroupStats>& g = parts[t];
    for (int64_t r = lo; r < hi; ++r) {
      if (!keep(r)) continue;
      GroupStats& s = g[group(r)];
      const double x = value(r);
      if (s.n == 0 || x < s.min) s.min = x;
      if (s.n == 0 || x > s.max) s.max = x;
      ++s.n;
      s.sum += x;
      s.sum_inv += 1.0L / x;
      s.sum_ln += std::log(static_cast<long double>(x));
    }
  });
  std::vector<GroupStats> out(num_groups);
  for (int t = 0; t < threads; ++t) {
    for (int32_t i = 0; i < num_groups; ++i) {
      const GroupStats& p = parts[t][i];
      if (p.n == 0) continue;
      GroupStats& s = out[i];
      if (s.n == 0 || p.min < s.min) s.min = p.min;
      if (s.n == 0 || p.max > s.max) s.max = p.max;
      s.n += p.n;
      s.sum += p.sum;
      s.sum_inv += p.sum_inv;
      s.sum_ln += p.sum_ln;
    }
  }
  std::vector<long double> mean(num_groups, 0);
  for (int32_t i = 0; i < num_groups; ++i) {
    if (out[i].n > 0) mean[i] = out[i].sum / out[i].n;
  }
  // Pass 2: central moments about the exact group mean.
  run([&](int t) {
    auto [lo, hi] = range(t);
    std::vector<GroupStats>& g = parts[t];
    for (int32_t i = 0; i < num_groups; ++i) g[i].m2 = g[i].m3 = g[i].m4 = 0;
    for (int64_t r = lo; r < hi; ++r) {
      if (!keep(r)) continue;
      const int32_t gi = group(r);
      const long double d = value(r) - mean[gi];
      const long double d2 = d * d;
      GroupStats& s = g[gi];
      s.m2 += d2;
      s.m3 += d2 * d;
      s.m4 += d2 * d2;
    }
  });
  for (int t = 0; t < threads; ++t) {
    for (int32_t i = 0; i < num_groups; ++i) {
      out[i].m2 += parts[t][i].m2;
      out[i].m3 += parts[t][i].m3;
      out[i].m4 += parts[t][i].m4;
    }
  }
  return out;
}

}  // namespace perfbench

#endif  // SUDAF_PERFBENCH_REFERENCE_H_
