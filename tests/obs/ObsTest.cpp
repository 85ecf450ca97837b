//===- tests/obs/ObsTest.cpp - Telemetry subsystem tests ------------------===//
//
// The metrics registry under concurrent hammering, histogram binning,
// both exports read back with serve::Json's parser and checked value by
// value, and the kill switch's no-op guarantee.
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"
#include "obs/Telemetry.h"
#include "obs/Trace.h"
#include "serve/Json.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

using namespace dc::obs;
using dc::serve::Json;

namespace {

/// Parses an export; a parse failure fails the test and yields null.
Json parseExport(const std::string &Text) {
  std::string Err;
  std::optional<Json> J = Json::parse(Text, &Err);
  EXPECT_TRUE(J) << Err << "\n" << Text;
  return J ? *J : Json::null();
}

/// Member \p Key of \p J; a missing member fails the test and yields null.
const Json &member(const Json &J, std::string_view Key) {
  static const Json Null;
  const Json *M = J.find(Key);
  EXPECT_TRUE(M) << "no \"" << Key << "\" in " << J.dump();
  return M ? *M : Null;
}

} // namespace

TEST(Metrics, CounterConcurrentAddsSumExactly) {
  TelemetryScope On(true);
  MetricsRegistry::global().reset();
  constexpr int NumThreads = 8;
  constexpr long PerThread = 20000;
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([] {
      for (long I = 0; I < PerThread; ++I) {
        countAdd("test.hammer");
        if (I % 4 == 0)
          countAdd("test.hammer4", 2);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  MetricsRegistry &R = MetricsRegistry::global();
  EXPECT_EQ(R.counter("test.hammer").value(), NumThreads * PerThread);
  EXPECT_EQ(R.counter("test.hammer4").value(), NumThreads * PerThread / 2);
}

TEST(Metrics, HistogramConcurrentObservesSumExactly) {
  TelemetryScope On(true);
  MetricsRegistry::global().reset();
  constexpr int NumThreads = 8;
  constexpr int PerThread = 5000;
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([T] {
      for (int I = 0; I < PerThread; ++I)
        observe("test.hist", static_cast<double>(T * PerThread + I));
    });
  for (std::thread &T : Threads)
    T.join();
  Histogram &H = MetricsRegistry::global().histogram("test.hist");
  const long N = static_cast<long>(NumThreads) * PerThread;
  EXPECT_EQ(H.count(), N);
  EXPECT_DOUBLE_EQ(H.sum(), static_cast<double>(N) * (N - 1) / 2);
  EXPECT_DOUBLE_EQ(H.min(), 0.0);
  EXPECT_DOUBLE_EQ(H.max(), static_cast<double>(N - 1));
  long BinTotal = 0;
  for (int B = 0; B < Histogram::NumBins; ++B)
    BinTotal += H.binCount(B);
  EXPECT_EQ(BinTotal, N);
}

TEST(Metrics, HistogramBinBoundaries) {
  TelemetryScope On(true);
  MetricsRegistry::global().reset();
  Histogram &H = MetricsRegistry::global().histogram("test.bins");
  // Bin 0 is [0,1); bin i is [2^(i-1), 2^i).
  H.observe(0.0);
  H.observe(0.99);
  EXPECT_EQ(H.binCount(0), 2);
  H.observe(1.0);
  H.observe(1.5);
  EXPECT_EQ(H.binCount(1), 2);
  H.observe(2.0);
  H.observe(3.0);
  EXPECT_EQ(H.binCount(2), 2);
  H.observe(4.0);
  EXPECT_EQ(H.binCount(3), 1);
  EXPECT_DOUBLE_EQ(Histogram::binUpperBound(0), 1.0);
  EXPECT_DOUBLE_EQ(Histogram::binUpperBound(1), 2.0);
  EXPECT_DOUBLE_EQ(Histogram::binUpperBound(2), 4.0);
  EXPECT_TRUE(std::isinf(Histogram::binUpperBound(Histogram::NumBins - 1)));
}

TEST(Metrics, GaugeLastWriteWins) {
  TelemetryScope On(true);
  MetricsRegistry::global().reset();
  gaugeSet("test.gauge", 1.5);
  gaugeSet("test.gauge", -2.75);
  EXPECT_DOUBLE_EQ(MetricsRegistry::global().gauge("test.gauge").value(),
                   -2.75);
}

TEST(Metrics, JsonExportIsWellFormed) {
  TelemetryScope On(true);
  MetricsRegistry::global().reset();
  const std::string Escaped = "json.gauge \"quoted\\name\"\n";
  countAdd("json.counter", 7);
  gaugeSet(Escaped, 0.25);
  gaugeSet("json.nan", std::nan(""));
  observe("json.hist", 3.0);
  observe("json.hist", 1e12);
  observe("json.huge", 1e300);
  Json J = parseExport(MetricsRegistry::global().toJson());
  ASSERT_TRUE(J.isObject());
  ASSERT_EQ(J.members().size(), 3u);
  EXPECT_EQ(J.members()[0].first, "counters");
  EXPECT_EQ(J.members()[1].first, "gauges");
  EXPECT_EQ(J.members()[2].first, "histograms");

  const Json &Counter = member(member(J, "counters"), "json.counter");
  EXPECT_TRUE(Counter.isInteger());
  EXPECT_EQ(Counter.asInteger(), 7);
  const Json &Gauges = member(J, "gauges");
  EXPECT_EQ(member(Gauges, Escaped).asNumber(), 0.25);
  EXPECT_TRUE(member(Gauges, "json.nan").isNull()); // JSON has no NaN

  const Json &H = member(member(J, "histograms"), "json.hist");
  EXPECT_EQ(member(H, "count").asInteger(), 2);
  EXPECT_EQ(member(H, "sum").asNumber(), 3.0 + 1e12);
  EXPECT_EQ(member(H, "min").asNumber(), 3.0);
  EXPECT_EQ(member(H, "max").asNumber(), 1e12);
  // Only the non-empty bins: 3 in [2, 4) and 1e12 in [2^39, 2^40).
  const std::vector<Json> &Bins = member(H, "bins").items();
  ASSERT_EQ(Bins.size(), 2u);
  EXPECT_EQ(member(Bins[0], "le").asNumber(), 4.0);
  EXPECT_EQ(member(Bins[0], "count").asInteger(), 1);
  EXPECT_EQ(member(Bins[1], "le").asNumber(), std::ldexp(1.0, 40));
  EXPECT_EQ(member(Bins[1], "count").asInteger(), 1);
  // The last bin is unbounded; JSON has no infinity.
  const Json &Huge = member(member(J, "histograms"), "json.huge");
  ASSERT_EQ(member(Huge, "bins").items().size(), 1u);
  EXPECT_TRUE(member(member(Huge, "bins").items()[0], "le").isNull());
}

TEST(Metrics, ResetDropsEverything) {
  TelemetryScope On(true);
  MetricsRegistry &R = MetricsRegistry::global();
  R.reset();
  countAdd("reset.c");
  gaugeSet("reset.g", 1);
  observe("reset.h", 1);
  EXPECT_GE(R.counterCount(), 1u);
  R.reset();
  EXPECT_EQ(R.counterCount(), 0u);
  EXPECT_EQ(R.gaugeCount(), 0u);
  EXPECT_EQ(R.histogramCount(), 0u);
  EXPECT_EQ(R.toJson(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}\n");
}

TEST(Metrics, KillSwitchMakesHelpersNoOps) {
  TelemetryScope Off(false);
  MetricsRegistry::global().reset();
  countAdd("dead.counter");
  gaugeSet("dead.gauge", 3.0);
  observe("dead.hist", 3.0);
  EXPECT_EQ(MetricsRegistry::global().counterCount(), 0u);
  EXPECT_EQ(MetricsRegistry::global().gaugeCount(), 0u);
  EXPECT_EQ(MetricsRegistry::global().histogramCount(), 0u);
}

TEST(Trace, SpansRecordAndExportValidJson) {
  TelemetryScope On(true);
  Tracer &T = Tracer::global();
  T.clear();
  {
    ScopedSpan Outer("outer \"span\"");
    ScopedSpan Inner("inner");
  }
  int64_t Start = T.begin();
  T.end("explicit", Start);
  std::thread([&] { ScopedSpan S("from-other-thread"); }).join();
  EXPECT_EQ(T.eventCount(), 4u);
  Json J = parseExport(T.toJson());
  ASSERT_TRUE(J.isArray());
  ASSERT_EQ(J.items().size(), 4u);
  std::vector<std::string> Names;
  for (const Json &E : J.items()) {
    Names.push_back(member(E, "name").asString());
    EXPECT_EQ(member(E, "ph").asString(), "X");
    EXPECT_GE(member(E, "ts").asInteger(), 0);
    EXPECT_GE(member(E, "dur").asInteger(), 0);
    EXPECT_EQ(member(E, "pid").asInteger(), 1);
    EXPECT_TRUE(member(E, "tid").isInteger());
  }
  std::sort(Names.begin(), Names.end());
  EXPECT_EQ(Names, (std::vector<std::string>{"explicit", "from-other-thread",
                                             "inner", "outer \"span\""}));
  T.clear();
  EXPECT_EQ(T.eventCount(), 0u);
  EXPECT_EQ(T.toJson(), "[]\n");
}

TEST(Trace, DisabledSpansRecordNothing) {
  Tracer &T = Tracer::global();
  T.clear();
  {
    TelemetryScope Off(false);
    ScopedSpan S("invisible");
    T.end("also-invisible", 0);
  }
  EXPECT_EQ(T.eventCount(), 0u);
}

TEST(Trace, SpanDisabledAtConstructionStaysInert) {
  // A span constructed while telemetry is off captures nothing, and stays
  // inert even if the switch flips on before it closes.
  Tracer &T = Tracer::global();
  T.clear();
  {
    TelemetryScope Off(false);
    ScopedSpan S("never");
    Telemetry::setEnabled(true);
  }
  Telemetry::setEnabled(false);
  EXPECT_EQ(T.eventCount(), 0u);
}

TEST(Telemetry, ScopeRestoresPreviousState) {
  const bool Before = Telemetry::enabled();
  {
    TelemetryScope On(true);
    EXPECT_TRUE(Telemetry::enabled());
    {
      TelemetryScope Off(false);
      EXPECT_FALSE(Telemetry::enabled());
    }
    EXPECT_TRUE(Telemetry::enabled());
  }
  EXPECT_EQ(Telemetry::enabled(), Before);
}
