#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>

namespace perfbench {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // KiB on Linux
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

namespace {

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h * 0xff51afd7ed558ccdULL;
}

uint64_t HashString(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ULL;
  return h;
}

}  // namespace

uint64_t Fingerprint(const sudaf::Table& table) {
  uint64_t h = Mix(0, static_cast<uint64_t>(table.num_rows()));
  for (int c = 0; c < table.num_columns(); ++c) {
    const sudaf::Column& col = table.column(c);
    h = Mix(h, HashString(table.schema().field(c).name));
    h = Mix(h, static_cast<uint64_t>(col.type()));
    for (int64_t r = 0; r < table.num_rows(); ++r) {
      switch (col.type()) {
        case sudaf::DataType::kInt64:
          h = Mix(h, static_cast<uint64_t>(col.GetInt64(r)));
          break;
        case sudaf::DataType::kFloat64: {
          double d = col.GetFloat64(r);
          uint64_t bits;
          std::memcpy(&bits, &d, sizeof bits);
          h = Mix(h, bits);
          break;
        }
        case sudaf::DataType::kString:
          h = Mix(h, HashString(col.GetString(r)));
          break;
      }
    }
  }
  return h;
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::Normal() {
  double u1 = Uniform();
  double u2 = Uniform();
  if (u1 < 1e-300) u1 = 1e-300;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

double Rng::LogNormal(double mu, double sigma) {
  return std::exp(mu + sigma * Normal());
}

std::string OutcomeJson(const Outcome& outcome) {
  std::string out = "{\"correct\": ";
  out += outcome.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(outcome.attempted);
  out += ", \"failed\": " + std::to_string(outcome.failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

void Complaints::Report(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  if (++count_ <= 20) std::cerr << "check: " << what << "\n";
}

void LayerSamples::Add(const std::string& name, double v) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& s = sums_[name];
  s.first += v;
  s.second += 1;
}

double LayerSamples::Mean(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sums_.find(name);
  if (it == sums_.end() || it->second.second == 0) return 0;
  return it->second.first / static_cast<double>(it->second.second);
}

double LayerSamples::Sum(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sums_.find(name);
  return it == sums_.end() ? 0 : it->second.first;
}

}  // namespace perfbench
