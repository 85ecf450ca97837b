//===- obs/Trace.h - Tracing spans in chrome://tracing format -------------===//
//
// Part of the DreamCoder C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wall-clock spans for the wake-sleep loop, exported in the chrome
/// "trace event" JSON format (a flat array of complete events, "ph":"X")
/// that chrome://tracing and Perfetto load directly — one cycle renders
/// as wake / abstraction / dreaming bars per thread.
///
/// Recording is buffered per thread: each thread appends to its own
/// buffer (guarded by a mutex only that thread and the end-of-run
/// exporter ever touch, so the hot path never contends on a shared
/// lock). Buffers outlive their threads — the global collector keeps
/// them alive so pool workers and short-lived test threads both export.
///
/// Use the RAII ScopedSpan for block-shaped phases and
/// Tracer::begin()/Tracer::end() when open and close live in different
/// scopes. All of it is a no-op while Telemetry is disabled; span
/// emission never feeds back into algorithm decisions (determinism
/// contract, see obs/Telemetry.h).
///
//===----------------------------------------------------------------------===//

#ifndef DC_OBS_TRACE_H
#define DC_OBS_TRACE_H

#include "obs/Telemetry.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dc::obs {

/// One complete ("ph":"X") trace event.
struct TraceEvent {
  std::string Name;
  int64_t TsMicros = 0;  ///< start, microseconds since the tracer epoch
  int64_t DurMicros = 0; ///< duration in microseconds
  uint32_t Tid = 0;      ///< small stable per-thread id, not the OS tid
};

/// Process-wide span collector.
class Tracer {
public:
  /// Never-destroyed singleton (same idiom as ThreadPool::shared()).
  static Tracer &global();

  /// Microseconds since the tracer epoch (process start), monotonic.
  int64_t nowMicros() const;

  /// Records a complete event ending now; no-op while telemetry is off.
  void completeEvent(std::string Name, int64_t StartMicros);

  /// Explicit begin/end pair for spans that cross scope boundaries:
  ///   int64_t T = Tracer::global().begin();
  ///   ... work ...
  ///   Tracer::global().end("phase-name", T);
  int64_t begin() const { return nowMicros(); }
  void end(std::string Name, int64_t StartMicros) {
    completeEvent(std::move(Name), StartMicros);
  }

  /// Total events currently buffered (diagnostics, dc_run summary).
  size_t eventCount() const;

  /// Drops all buffered events (tests; dc_run before a run).
  void clear();

  /// Every buffered event as a chrome trace-event JSON array, one event
  /// per line.
  std::string toJson() const;

private:
  Tracer();

  struct Buffer {
    std::mutex M;
    std::vector<TraceEvent> Events;
    uint32_t Tid = 0;
  };

  /// This thread's buffer, registered with the collector on first use.
  Buffer &localBuffer();

  mutable std::mutex Mutex; ///< guards the buffer list, not the buffers
  std::vector<std::shared_ptr<Buffer>> Buffers;
  std::int64_t EpochNanos = 0;
};

/// RAII span: records one complete event from construction to
/// destruction. Captures nothing and touches no clock when telemetry is
/// disabled at construction time.
class ScopedSpan {
public:
  explicit ScopedSpan(std::string Name) {
    if (Telemetry::enabled()) {
      this->Name = std::move(Name);
      Start = Tracer::global().nowMicros();
      Active = true;
    }
  }
  ~ScopedSpan() {
    if (Active)
      Tracer::global().completeEvent(std::move(Name), Start);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  std::string Name;
  int64_t Start = 0;
  bool Active = false;
};

} // namespace dc::obs

#endif // DC_OBS_TRACE_H
