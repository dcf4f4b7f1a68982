// Process-wide metrics registry: named counters, gauges, and fixed-bucket
// latency histograms.
//
// Hot-path design: instruments are created once (registry lookup under a
// mutex) and the returned pointers are stable for the registry's lifetime,
// so callsites cache them. Increments are wait-free -- counters shard
// their cells across cache lines keyed by a per-thread index so concurrent
// writers never contend, and snapshotting only performs relaxed loads, so
// it is ~free for the writers. All updates are monotone per memory
// location (counters and histogram buckets only ever fetch_add
// non-negative deltas), which makes successive snapshots monotone too.
//
// The process-wide enable switch (SetMetricsEnabled) exists for overhead
// measurement: with it off, every Add/Observe is a single relaxed load and
// branch, which is how the bench harnesses compute metrics_overhead_seconds
// and how the obs tests pin the disabled-path cost. Reads (Value,
// Snapshot) ignore the switch.

#ifndef OPTRULES_OBS_METRICS_H_
#define OPTRULES_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace optrules::obs {

/// True when instruments record updates (the default). Snapshot/Value
/// always work regardless.
bool MetricsEnabled();

/// Flips the process-wide recording switch. Used by bench harnesses to
/// measure instrumentation overhead; not meant for steady-state use.
void SetMetricsEnabled(bool enabled);

/// Monotone counter. Add() is wait-free: each thread lands on one of
/// kShards cache-line-padded cells, so concurrent increments never touch
/// the same line. Value() sums the shards with relaxed loads.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(int64_t delta = 1) {
    if (!MetricsEnabled()) return;
    shards_[ShardIndex()].value.fetch_add(delta, std::memory_order_relaxed);
  }

  int64_t Value() const {
    int64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  static constexpr int kShards = 16;

  struct alignas(64) Shard {
    std::atomic<int64_t> value{0};
  };

  /// Round-robin thread-to-shard assignment, cached per thread.
  static int ShardIndex();

  Shard shards_[kShards];
};

/// Last-value instrument (queue depths, cache occupancy). Not sharded:
/// Set() is a plain relaxed store and gauges are not hot-path.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double value) {
    if (!MetricsEnabled()) return;
    value_.store(value, std::memory_order_relaxed);
  }

  void Add(double delta) {
    if (!MetricsEnabled()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Point-in-time view of one histogram. bucket_counts has bounds.size()+1
/// entries; the last bucket counts observations above every bound.
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<int64_t> bucket_counts;
  int64_t count = 0;
  double sum = 0.0;
};

/// Fixed-bucket histogram. Observe() is wait-free: one relaxed fetch_add
/// on the bucket cell plus one on the sum. Bounds are inclusive upper
/// bounds, sorted ascending; one overflow bucket is appended implicitly.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Default bounds for operation latencies in seconds: 1-2.5-5 decades
  /// from 1 microsecond to 10 seconds.
  static const std::vector<double>& DefaultLatencyBounds();

  void Observe(double value) {
    if (!MetricsEnabled()) return;
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  HistogramSnapshot Snapshot() const;

  const std::vector<double>& bounds() const { return bounds_; }

 private:
  size_t BucketIndex(double value) const;

  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<int64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<double> sum_{0.0};
};

/// Stable-ordered (std::map) point-in-time view of a whole registry, plus
/// its two export encodings.
struct MetricsSnapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// One instrument per line, prometheus-flavoured, stable order.
  std::string ToText() const;

  /// {"counters":{...},"gauges":{...},"histograms":{name:{...}}}, stable
  /// key order (both encodings iterate the same maps).
  std::string ToJson() const;
};

/// How far counter `name` rose from `before` to `after`; a counter missing
/// from a snapshot reads 0. Tests and harnesses read the process-wide
/// registry through this, since counters are monotone and shared by every
/// server and engine in the process. A function object rather than a
/// function, so argument-dependent lookup never pulls it into an
/// unqualified CounterDelta call made in another namespace.
inline constexpr auto CounterDelta = [](const MetricsSnapshot& before,
                                        const MetricsSnapshot& after,
                                        const std::string& name) -> int64_t {
  const auto b = before.counters.find(name);
  const auto a = after.counters.find(name);
  return (a == after.counters.end() ? 0 : a->second) -
         (b == before.counters.end() ? 0 : b->second);
};

/// Named-instrument registry. Get* creates on first use and returns a
/// pointer that stays valid for the registry's lifetime -- callsites look
/// up once and cache. Lookups take a mutex; updates through the returned
/// instruments never do.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);

  /// `bounds` empty selects DefaultLatencyBounds(). Bounds are fixed at
  /// first creation; later callers get the existing instrument.
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> bounds = {});

  MetricsSnapshot Snapshot() const;

  /// The process-wide registry every subsystem reports into and every
  /// export surface (serve kMetricsReply, SIGUSR1 dump, bench JSON)
  /// reads from.
  static MetricsRegistry& Default();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace optrules::obs

#endif  // OPTRULES_OBS_METRICS_H_
