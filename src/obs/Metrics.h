//===- obs/Metrics.h - Thread-safe metrics registry -----------------------===//
//
// Part of the DreamCoder C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counters, gauges, and log-scale histograms behind a process-wide
/// registry, exported as JSON through serve::Json (tools/dc_run
/// --metrics-out). Instrument anything the paper's evaluation measures —
/// nodes expanded, solve effort, library growth, compression candidates,
/// training loss — so the numbers behind Figs 7 and 20 come out of a real
/// run machine-readably.
///
/// Concurrency model:
///   * Counter::add is a relaxed fetch_add on one of 64 cache-line-padded
///     shards picked by a thread-local shard id — writers on different
///     threads never contend; value() sums the shards.
///   * Histogram::observe touches one relaxed atomic bin plus CAS loops
///     for sum/min/max; bins are fixed powers of two so no allocation or
///     lock ever happens on the write path.
///   * Registry lookups (name → handle) take a mutex; hot paths look a
///     handle up once per phase, never per node.
///
/// Every helper is a no-op while Telemetry is disabled (obs/Telemetry.h),
/// and nothing in here is ever read back by algorithm code — telemetry is
/// write-only by contract.
///
//===----------------------------------------------------------------------===//

#ifndef DC_OBS_METRICS_H
#define DC_OBS_METRICS_H

#include "obs/Telemetry.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace dc::obs {

/// Monotone counter with per-thread sharding: add() is one relaxed
/// fetch_add on a shard no other running thread writes.
class Counter {
public:
  static constexpr unsigned NumShards = 64;

  void add(long Delta = 1) {
    Shards[shardId()].N.fetch_add(Delta, std::memory_order_relaxed);
  }

  /// Sum over shards. Concurrent adds may or may not be included (each
  /// shard is read atomically; the sum is a consistent snapshot once
  /// writers quiesce).
  long value() const {
    long Total = 0;
    for (const Shard &S : Shards)
      Total += S.N.load(std::memory_order_relaxed);
    return Total;
  }

private:
  struct alignas(64) Shard {
    std::atomic<long> N{0};
  };

  /// Threads get round-robin shard ids; 64 shards cover far more workers
  /// than the pool ever runs, so collisions are rare and harmless.
  static unsigned shardId() {
    static std::atomic<unsigned> Next{0};
    thread_local unsigned Id =
        Next.fetch_add(1, std::memory_order_relaxed) % NumShards;
    return Id;
  }

  std::array<Shard, NumShards> Shards;
};

/// Last-write-wins point-in-time value.
class Gauge {
public:
  void set(double Value) { V.store(Value, std::memory_order_relaxed); }
  double value() const { return V.load(std::memory_order_relaxed); }

private:
  std::atomic<double> V{0.0};
};

/// Histogram over fixed log-scale (power-of-two) bins: bin 0 counts
/// values < 1, bin i counts [2^(i-1), 2^i), the last bin is unbounded.
/// Suited to the long-tailed count/latency distributions this system
/// produces (solve effort, version-space sizes, task latencies).
class Histogram {
public:
  static constexpr int NumBins = 48;

  void observe(double Value);

  long count() const { return N.load(std::memory_order_relaxed); }
  double sum() const { return Sum.load(std::memory_order_relaxed); }
  double min() const;
  double max() const;
  long binCount(int Bin) const {
    return Bins[Bin].load(std::memory_order_relaxed);
  }
  /// Inclusive upper bound of \p Bin ("le" in the JSON export);
  /// +infinity for the last bin.
  static double binUpperBound(int Bin);

private:
  std::array<std::atomic<long>, NumBins> Bins{};
  std::atomic<long> N{0};
  std::atomic<double> Sum{0.0};
  std::atomic<double> Min{0.0}, Max{0.0}; ///< valid only when N > 0
};

/// Name → metric store. Handles are stable for the registry's lifetime;
/// instrumented code holds a reference across a phase instead of paying
/// the map lookup per event.
class MetricsRegistry {
public:
  /// The process-wide registry (same never-destroyed idiom as
  /// ThreadPool::shared()).
  static MetricsRegistry &global();

  Counter &counter(std::string_view Name);
  Gauge &gauge(std::string_view Name);
  Histogram &histogram(std::string_view Name);

  /// Drops every metric (tests; dc_run calls it before a run so the
  /// export describes exactly one run).
  void reset();

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}}, one line.
  /// Histograms export count/sum/min/max plus the non-empty bins as
  /// [{"le": bound, "count": n}, ...]; the last bin's bound is null.
  std::string toJson() const;

  size_t counterCount() const;
  size_t gaugeCount() const;
  size_t histogramCount() const;

private:
  mutable std::mutex Mutex;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> Counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> Gauges;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> Histograms;
};

//===----------------------------------------------------------------------===//
// One-line instrumentation helpers (no-ops while telemetry is disabled)
//===----------------------------------------------------------------------===//

inline void countAdd(std::string_view Name, long Delta = 1) {
  if (Telemetry::enabled())
    MetricsRegistry::global().counter(Name).add(Delta);
}

inline void gaugeSet(std::string_view Name, double Value) {
  if (Telemetry::enabled())
    MetricsRegistry::global().gauge(Name).set(Value);
}

inline void observe(std::string_view Name, double Value) {
  if (Telemetry::enabled())
    MetricsRegistry::global().histogram(Name).observe(Value);
}

} // namespace dc::obs

#endif // DC_OBS_METRICS_H
