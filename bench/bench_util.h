// Shared helpers for the paper-figure benchmark harnesses.
//
// Each harness is a standalone binary that prints the rows/series of one
// table or figure from the paper. `OPTRULES_BENCH_SCALE` (a positive
// integer, default 1) multiplies the workload sizes for users who want to
// run closer to the paper's original scale. `OPTRULES_BENCH_JSON` (set to
// anything but "0") additionally emits one machine-readable JSON object
// per harness on stdout, so benchmark trajectories (BENCH_*.json) can be
// collected without scraping the human tables.

#ifndef OPTRULES_BENCH_BENCH_UTIL_H_
#define OPTRULES_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/env.h"
#include "common/rng.h"
#include "obs/metrics.h"

namespace optrules::bench {

/// Reads OPTRULES_BENCH_SCALE through the strict env parser (a malformed
/// value such as "12x" warns and falls back to 1) and clamps it to >= 1,
/// so "0" runs at scale 1.
inline int64_t BenchScale() {
  const uint64_t value = env::ReadEnvNonNegativeInt("OPTRULES_BENCH_SCALE", 1);
  return static_cast<int64_t>(
      std::clamp<uint64_t>(value, 1, std::numeric_limits<int64_t>::max()));
}

/// True when OPTRULES_BENCH_JSON is set (and not "0").
inline bool BenchJsonEnabled() {
  const char* env = std::getenv("OPTRULES_BENCH_JSON");
  return env != nullptr && env[0] != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
}

/// Accumulates metrics for one harness and, when BenchJsonEnabled(),
/// prints them as a single-line JSON object at destruction:
///   {"bench":"<name>","scale":N,"metrics":{"k":v,...}}
/// Keys are emitted in insertion order; repeated keys are allowed (later
/// entries win for standard JSON parsers, so use distinct keys).
class JsonReporter {
 public:
  explicit JsonReporter(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  JsonReporter(const JsonReporter&) = delete;
  JsonReporter& operator=(const JsonReporter&) = delete;

  ~JsonReporter() {
    if (!BenchJsonEnabled()) return;
    std::printf("{\"bench\":\"%s\",\"scale\":%lld,\"metrics\":{",
                bench_name_.c_str(),
                static_cast<long long>(BenchScale()));
    for (size_t i = 0; i < entries_.size(); ++i) {
      std::printf("%s\"%s\":%s", i == 0 ? "" : ",",
                  entries_[i].first.c_str(), entries_[i].second.c_str());
    }
    std::printf("}}\n");
  }

  void Add(const std::string& key, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.6g", value);
    entries_.emplace_back(key, buffer);
  }
  void Add(const std::string& key, int64_t value) {
    entries_.emplace_back(key, std::to_string(value));
  }
  void Add(const std::string& key, bool value) {
    entries_.emplace_back(key, value ? "true" : "false");
  }
  void AddString(const std::string& key, const std::string& value) {
    entries_.emplace_back(key, "\"" + value + "\"");
  }

  /// Flattens a registry snapshot into the metrics object: counters and
  /// gauges by name, histograms as <name>.count / <name>.sum. Harnesses
  /// call this once at the end so the emitted JSON carries the same
  /// numbers the serve daemon would ship in a kMetricsReply.
  void AddRegistrySnapshot(const obs::MetricsSnapshot& snapshot,
                           const std::string& prefix = "registry.") {
    for (const auto& [name, value] : snapshot.counters) {
      Add(prefix + name, value);
    }
    for (const auto& [name, value] : snapshot.gauges) {
      Add(prefix + name, value);
    }
    for (const auto& [name, hist] : snapshot.histograms) {
      Add(prefix + name + ".count", hist.count);
      Add(prefix + name + ".sum", hist.sum);
    }
  }

 private:
  std::string bench_name_;
  std::vector<std::pair<std::string, std::string>> entries_;
};

/// Median of `values` (mean of the middle two for an even count; 0 when
/// empty).
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double upper = values[mid];
  return (*std::max_element(values.begin(), values.begin() + mid) + upper) /
         2.0;
}

/// Random bucket-count instance (u_i in [1, max_u], v_i in [0, u_i]).
struct BucketInstance {
  std::vector<int64_t> u;
  std::vector<int64_t> v;
  int64_t total = 0;
};

inline BucketInstance RandomBuckets(int64_t m, int64_t max_u,
                                    double hit_rate, uint64_t seed) {
  Rng rng(seed);
  BucketInstance instance;
  instance.u.resize(static_cast<size_t>(m));
  instance.v.resize(static_cast<size_t>(m));
  for (int64_t i = 0; i < m; ++i) {
    const int64_t u = rng.NextInt(1, max_u);
    int64_t v = 0;
    for (int64_t k = 0; k < u; ++k) {
      if (rng.NextBernoulli(hit_rate)) ++v;
    }
    instance.u[static_cast<size_t>(i)] = u;
    instance.v[static_cast<size_t>(i)] = v;
    instance.total += u;
  }
  return instance;
}

/// Prints a separator line sized to `width` characters.
inline void PrintRule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

}  // namespace optrules::bench

#endif  // OPTRULES_BENCH_BENCH_UTIL_H_
