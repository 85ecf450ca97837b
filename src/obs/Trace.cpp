//===- obs/Trace.cpp - Tracing spans in chrome://tracing format -----------===//

#include "obs/Trace.h"

#include "serve/Json.h"

#include <atomic>
#include <chrono>

using namespace dc;
using namespace dc::obs;
using dc::serve::Json;

Tracer &Tracer::global() {
  static Tracer *T = new Tracer();
  return *T;
}

Tracer::Tracer() {
  EpochNanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
                   .count();
}

int64_t Tracer::nowMicros() const {
  int64_t Nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count();
  return (Nanos - EpochNanos) / 1000;
}

Tracer::Buffer &Tracer::localBuffer() {
  // The shared_ptr is co-owned by this thread and the collector's list,
  // so events recorded by threads that have since exited (test threads;
  // this never happens for the immortal pool workers) still export.
  static std::atomic<uint32_t> NextTid{0};
  thread_local std::shared_ptr<Buffer> Local = [this] {
    auto B = std::make_shared<Buffer>();
    B->Tid = NextTid.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> Lock(Mutex);
    Buffers.push_back(B);
    return B;
  }();
  return *Local;
}

void Tracer::completeEvent(std::string Name, int64_t StartMicros) {
  if (Telemetry::disabled())
    return;
  int64_t Dur = nowMicros() - StartMicros;
  Buffer &B = localBuffer();
  // Uncontended in steady state: only this thread and the end-of-run
  // exporter ever take a buffer's mutex.
  std::lock_guard<std::mutex> Lock(B.M);
  B.Events.push_back(
      {std::move(Name), StartMicros, Dur < 0 ? 0 : Dur, B.Tid});
}

size_t Tracer::eventCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  size_t N = 0;
  for (const auto &B : Buffers) {
    std::lock_guard<std::mutex> BLock(B->M);
    N += B->Events.size();
  }
  return N;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (const auto &B : Buffers) {
    std::lock_guard<std::mutex> BLock(B->M);
    B->Events.clear();
  }
}

std::string Tracer::toJson() const {
  // Copy under the locks, then format: keeps buffer mutex hold times
  // bounded if workers are still tracing while we export.
  std::vector<TraceEvent> All;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    for (const auto &B : Buffers) {
      std::lock_guard<std::mutex> BLock(B->M);
      All.insert(All.end(), B->Events.begin(), B->Events.end());
    }
  }
  // One small object per event, appended as text: the export never holds
  // a second, tree-shaped copy of the whole trace.
  std::string Out = "[";
  for (size_t I = 0; I < All.size(); ++I) {
    const TraceEvent &E = All[I];
    Json Event = Json::object();
    Event.set("name", Json::string(E.Name));
    Event.set("ph", Json::string("X"));
    Event.set("ts", Json::integer(E.TsMicros));
    Event.set("dur", Json::integer(E.DurMicros));
    Event.set("pid", Json::integer(1));
    Event.set("tid", Json::integer(E.Tid));
    Out += I ? ",\n " : "\n ";
    Out += Event.dump();
  }
  Out += All.empty() ? "]\n" : "\n]\n";
  return Out;
}
