//===- obs/Metrics.cpp - Thread-safe metrics registry ---------------------===//

#include "obs/Metrics.h"

#include "serve/Json.h"

#include <cmath>
#include <limits>

using namespace dc;
using namespace dc::obs;
using dc::serve::Json;

namespace {

int binIndex(double Value) {
  if (!(Value >= 1.0))
    return 0; // negatives, NaN, and [0, 1) all land in the first bin
  int Bin = 1 + static_cast<int>(std::floor(std::log2(Value)));
  return Bin >= Histogram::NumBins ? Histogram::NumBins - 1 : Bin;
}

/// CAS-loop fetch-add / min / max for pre-C++20-atomic-double toolchains.
void atomicAdd(std::atomic<double> &A, double Delta) {
  double Cur = A.load(std::memory_order_relaxed);
  while (!A.compare_exchange_weak(Cur, Cur + Delta,
                                  std::memory_order_relaxed))
    ;
}

void atomicMin(std::atomic<double> &A, double V) {
  double Cur = A.load(std::memory_order_relaxed);
  while (V < Cur &&
         !A.compare_exchange_weak(Cur, V, std::memory_order_relaxed))
    ;
}

void atomicMax(std::atomic<double> &A, double V) {
  double Cur = A.load(std::memory_order_relaxed);
  while (V > Cur &&
         !A.compare_exchange_weak(Cur, V, std::memory_order_relaxed))
    ;
}

} // namespace

void Histogram::observe(double Value) {
  Bins[binIndex(Value)].fetch_add(1, std::memory_order_relaxed);
  atomicAdd(Sum, Value);
  // First observation seeds min/max; the race between the seed and a
  // concurrent observe resolves through the CAS loops (both orders leave
  // min <= every observed value <= max).
  if (N.fetch_add(1, std::memory_order_relaxed) == 0) {
    Min.store(Value, std::memory_order_relaxed);
    Max.store(Value, std::memory_order_relaxed);
  }
  atomicMin(Min, Value);
  atomicMax(Max, Value);
}

double Histogram::min() const {
  return count() == 0 ? 0.0 : Min.load(std::memory_order_relaxed);
}

double Histogram::max() const {
  return count() == 0 ? 0.0 : Max.load(std::memory_order_relaxed);
}

double Histogram::binUpperBound(int Bin) {
  if (Bin <= 0)
    return 1.0;
  if (Bin >= NumBins - 1)
    return std::numeric_limits<double>::infinity();
  return std::ldexp(1.0, Bin); // 2^Bin
}

MetricsRegistry &MetricsRegistry::global() {
  static MetricsRegistry *Registry = new MetricsRegistry();
  return *Registry;
}

Counter &MetricsRegistry::counter(std::string_view Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Counters.find(Name);
  if (It == Counters.end())
    It = Counters.emplace(std::string(Name), std::make_unique<Counter>())
             .first;
  return *It->second;
}

Gauge &MetricsRegistry::gauge(std::string_view Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Gauges.find(Name);
  if (It == Gauges.end())
    It = Gauges.emplace(std::string(Name), std::make_unique<Gauge>()).first;
  return *It->second;
}

Histogram &MetricsRegistry::histogram(std::string_view Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Histograms.find(Name);
  if (It == Histograms.end())
    It = Histograms.emplace(std::string(Name),
                            std::make_unique<Histogram>())
             .first;
  return *It->second;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Counters.clear();
  Gauges.clear();
  Histograms.clear();
}

size_t MetricsRegistry::counterCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Counters.size();
}

size_t MetricsRegistry::gaugeCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Gauges.size();
}

size_t MetricsRegistry::histogramCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Histograms.size();
}

std::string MetricsRegistry::toJson() const {
  Json CountersOut = Json::object(), GaugesOut = Json::object(),
       HistogramsOut = Json::object();
  std::lock_guard<std::mutex> Lock(Mutex);
  for (const auto &[Name, C] : Counters)
    CountersOut.set(Name, Json::integer(C->value()));
  for (const auto &[Name, G] : Gauges)
    GaugesOut.set(Name, Json::number(G->value()));
  for (const auto &[Name, H] : Histograms) {
    Json Bins = Json::array();
    for (int B = 0; B < Histogram::NumBins; ++B)
      if (long BinN = H->binCount(B)) {
        Json Bin = Json::object();
        Bin.set("le", Json::number(Histogram::binUpperBound(B)));
        Bin.set("count", Json::integer(BinN));
        Bins.push(std::move(Bin));
      }
    Json Out = Json::object();
    Out.set("count", Json::integer(H->count()));
    Out.set("sum", Json::number(H->sum()));
    Out.set("min", Json::number(H->min()));
    Out.set("max", Json::number(H->max()));
    Out.set("bins", std::move(Bins));
    HistogramsOut.set(Name, std::move(Out));
  }
  Json Out = Json::object();
  Out.set("counters", std::move(CountersOut));
  Out.set("gauges", std::move(GaugesOut));
  Out.set("histograms", std::move(HistogramsOut));
  return Out.dump() + "\n";
}
