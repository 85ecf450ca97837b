//===- obs/Telemetry.h - Telemetry kill switch ----------------------------===//
//
// Part of the DreamCoder C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The on/off switch shared by the whole observability subsystem
/// (obs/Metrics.h, obs/Trace.h): a process-wide relaxed atomic, default
/// OFF. An un-instrumented run pays one relaxed load + branch per guarded
/// site (the sites themselves sit at phase granularity, not inside
/// per-node loops).
///
/// Determinism contract: telemetry is write-only. Algorithm code may
/// *emit* metrics and spans but must never read telemetry state to make a
/// decision, so results are bit-identical with telemetry on or off at any
/// thread count (asserted by WakeSleepTest.ResultsIdenticalWithTelemetry).
///
//===----------------------------------------------------------------------===//

#ifndef DC_OBS_TELEMETRY_H
#define DC_OBS_TELEMETRY_H

#include <atomic>

namespace dc::obs {

class Telemetry {
public:
  /// The fast path every instrumentation site guards on.
  static bool enabled() { return Runtime.load(std::memory_order_relaxed); }
  static void setEnabled(bool On) {
    Runtime.store(On, std::memory_order_relaxed);
  }
  static bool disabled() { return !enabled(); }

private:
  static std::atomic<bool> Runtime;
};

/// RAII scope that enables telemetry on entry and restores the previous
/// state on exit (tests, and dc_run's flag handling).
class TelemetryScope {
public:
  explicit TelemetryScope(bool On) : Prev(Telemetry::enabled()) {
    Telemetry::setEnabled(On);
  }
  ~TelemetryScope() { Telemetry::setEnabled(Prev); }
  TelemetryScope(const TelemetryScope &) = delete;
  TelemetryScope &operator=(const TelemetryScope &) = delete;

private:
  bool Prev;
};

} // namespace dc::obs

#endif // DC_OBS_TELEMETRY_H
