#ifndef SUDAF_PERFBENCH_HARNESS_H_
#define SUDAF_PERFBENCH_HARNESS_H_

// Measurement plumbing shared by the benchmark workloads: clocks, process
// resource readings, percentiles, result fingerprints, the seeded input
// generator, and the result line the benchmark prints last.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "storage/table.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch_dir;  // where the append workload keeps its store
};

// Monotonic wall clock in milliseconds.
double NowMs();
// User + system CPU seconds this process has used so far.
double CpuSeconds();
// Resident-set high-water mark of this process, in MB (10^6 bytes).
double PeakRssMb();

// The q-quantile (0 <= q <= 1) of `v` by linear interpolation between
// closest ranks. `v` need not be sorted. 0 for an empty vector.
double Quantile(std::vector<double> v, double q);

// Bit-level fingerprint of a result table (schema, row count and every
// cell's bit pattern). Equal fingerprints mean bitwise-equal answers.
uint64_t Fingerprint(const sudaf::Table& table);

// SplitMix64: the benchmark's own seeded generator for data and query
// streams, independent of the library's helpers.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  uint64_t Below(uint64_t n) { return Next() % n; }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  double Normal();  // Box-Muller
  double LogNormal(double mu, double sigma);
  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[Below(i)]);
    }
  }

 private:
  uint64_t state_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What one run reports. `correct` speaks of the operations that did not
// fail; an operation whose answer misses its reference is counted in
// `failed` when it is a known program fault, and clears `correct`
// otherwise.
struct Outcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

// The single-line JSON object the benchmark prints last.
std::string OutcomeJson(const Outcome& outcome);

// Thread-safe sink for answer-check diagnostics: the first 20 go to
// stderr, the rest are dropped.
class Complaints {
 public:
  void Report(const std::string& what);

 private:
  std::mutex mu_;
  int count_ = 0;
};

// Thread-safe accumulator of named per-layer samples; Mean() and Sum() of
// a name never sampled are 0.
class LayerSamples {
 public:
  void Add(const std::string& name, double v);
  double Mean(const std::string& name) const;
  double Sum(const std::string& name) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::pair<double, int64_t>> sums_;
};

}  // namespace perfbench

#endif  // SUDAF_PERFBENCH_HARNESS_H_
