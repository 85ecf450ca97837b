//===- tools/dc_run.cpp - Command-line wake-sleep driver ------------------===//
//
// Runs any domain × system-variant combination from the command line and
// optionally writes a checkpoint (learned grammar + beams) that future
// runs can resume from.
//
//   dc_run --domain list --variant full --iterations 4 --seed 1
//          --checkpoint out.ckpt --verbose
//
// Domains:  see domains/DomainTable.cpp
// Variants: full no-rec no-abs memorize memorize-rec ec ec2 enumerate
//
//===----------------------------------------------------------------------===//

#include "Flags.h"
#include "core/Serialization.h"
#include "core/WakeSleep.h"
#include "obs/Metrics.h"
#include "obs/Telemetry.h"
#include "obs/Trace.h"
#include "domains/DomainTable.h"

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

using namespace dc;

namespace {

void usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--domain NAME] [--variant NAME] [--iterations N]\n"
      "          [--minibatch N] [--seed N] [--node-budget N]\n"
      "          [--threads N] [--wake-timeout SEC] [--checkpoint PATH]\n"
      "          [--resume PATH] [--metrics-out PATH] [--trace-out PATH]\n"
      "          [--compression-backend vs|topdown] [--no-vs-cache]\n"
      "          [--verbose]\n"
      "--threads: 0 = one per core (default), 1 = serial, N = at most N;\n"
      "           covers wake search, compression sleep, and dreaming —\n"
      "           results are identical at every setting\n"
      "--wake-timeout: wall-clock bound in seconds on each wake-phase\n"
      "           search (per guided task / per shared-grammar batch).\n"
      "           Trades determinism for latency: the default (off)\n"
      "           keeps results bit-identical across machines; any\n"
      "           positive value makes which windows finish depend on\n"
      "           machine speed\n"
      "--compression-backend: candidate engine for abstraction sleep.\n"
      "               vs (default) materializes β-inversion version\n"
      "               spaces; topdown grows corpus-guided patterns\n"
      "               hole-by-hole — much cheaper on closure-heavy\n"
      "               corpora, same scoring and adoption machinery\n"
      "               (DESIGN.md §10)\n"
      "--no-vs-cache: disable the version-space shard cache and rewrite\n"
      "               memo in abstraction sleep (escape hatch; results are\n"
      "               bit-identical either way, only wall-clock changes)\n"
      "--metrics-out: write counters/gauges/histograms as JSON after the\n"
      "               run (enables telemetry; results are unchanged)\n"
      "--trace-out:   write chrome://tracing trace-event JSON (load via\n"
      "               about:tracing or https://ui.perfetto.dev)\n"
      "domains:  %s\n"
      "variants: full no-rec no-abs memorize memorize-rec ec ec2 "
      "enumerate\n",
      Argv0, domainNames().c_str());
}

std::optional<SystemVariant> variantByName(const std::string &Name) {
  if (Name == "full")
    return SystemVariant::Full;
  if (Name == "no-rec")
    return SystemVariant::NoRecognition;
  if (Name == "no-abs")
    return SystemVariant::NoAbstraction;
  if (Name == "memorize")
    return SystemVariant::MemorizeNoRec;
  if (Name == "memorize-rec")
    return SystemVariant::MemorizeRec;
  if (Name == "ec")
    return SystemVariant::Ec;
  if (Name == "ec2")
    return SystemVariant::Ec2;
  if (Name == "enumerate")
    return SystemVariant::EnumerationOnly;
  return std::nullopt;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string DomainName = "list";
  std::string VariantName = "full";
  std::string CheckpointPath, ResumePath;
  std::string MetricsPath, TracePath;
  WakeSleepConfig Config;
  Config.Iterations = 3;
  Config.EvaluateTestEachCycle = false;
  long NodeBudget = 0;
  unsigned Seed = 0;

  for (int I = 1; I < Argc; ++I) {
    auto Next = [&]() -> const char * {
      if (I + 1 >= Argc) {
        usage(Argv[0]);
        std::exit(2);
      }
      return Argv[++I];
    };
    auto NextInt = [&](long long Min, long long Max) {
      std::optional<long long> V = flags::parseInt(Next(), Min, Max);
      if (!V) {
        usage(Argv[0]);
        std::exit(2);
      }
      return *V;
    };
    auto NextSeconds = [&] {
      std::optional<double> V = flags::parseSeconds(Next());
      if (!V) {
        usage(Argv[0]);
        std::exit(2);
      }
      return *V;
    };
    if (!std::strcmp(Argv[I], "--domain"))
      DomainName = Next();
    else if (!std::strcmp(Argv[I], "--variant"))
      VariantName = Next();
    else if (!std::strcmp(Argv[I], "--iterations"))
      Config.Iterations = NextInt(0, INT_MAX);
    else if (!std::strcmp(Argv[I], "--minibatch"))
      Config.MinibatchSize = NextInt(0, INT_MAX);
    else if (!std::strcmp(Argv[I], "--seed"))
      Seed = NextInt(0, UINT_MAX);
    else if (!std::strcmp(Argv[I], "--node-budget"))
      NodeBudget = NextInt(0, LONG_MAX);
    else if (!std::strcmp(Argv[I], "--threads"))
      Config.NumThreads = NextInt(0, INT_MAX);
    else if (!std::strcmp(Argv[I], "--wake-timeout"))
      Config.WakeTimeoutSeconds = NextSeconds();
    else if (!std::strcmp(Argv[I], "--checkpoint"))
      CheckpointPath = Next();
    else if (!std::strcmp(Argv[I], "--resume"))
      ResumePath = Next();
    else if (!std::strcmp(Argv[I], "--metrics-out"))
      MetricsPath = Next();
    else if (!std::strcmp(Argv[I], "--trace-out"))
      TracePath = Next();
    else if (!std::strcmp(Argv[I], "--compression-backend")) {
      std::string Backend = Next();
      if (Backend == "vs")
        Config.Compress.Backend = CompressionBackend::VersionSpace;
      else if (Backend == "topdown")
        Config.Compress.Backend = CompressionBackend::TopDown;
      else {
        std::fprintf(stderr, "error: unknown compression backend '%s'\n",
                     Backend.c_str());
        usage(Argv[0]);
        return 2;
      }
    } else if (!std::strcmp(Argv[I], "--no-vs-cache"))
      Config.Compress.UseVsCache = false;
    else if (!std::strcmp(Argv[I], "--verbose"))
      Config.Verbose = true;
    else {
      usage(Argv[0]);
      return 2;
    }
  }

  const DomainEntry *Entry = findDomain(DomainName);
  if (!Entry) {
    std::fprintf(stderr, "error: unknown domain '%s'\n",
                 DomainName.c_str());
    usage(Argv[0]);
    return 2;
  }
  auto Variant = variantByName(VariantName);
  if (!Variant) {
    std::fprintf(stderr, "error: unknown variant '%s'\n",
                 VariantName.c_str());
    usage(Argv[0]);
    return 2;
  }
  Config.Variant = *Variant;
  Config.Seed = Seed;
  // A fixed corpus (logo, tower) ignores the seed; the wake-sleep loop
  // still takes it.
  DomainSpec Domain = Entry->build(Seed);
  if (NodeBudget > 0)
    Domain.Search.NodeBudget = NodeBudget;

  std::printf("domain %s: %zu train, %zu test tasks; variant %s\n",
              Domain.Name.c_str(), Domain.TrainTasks.size(),
              Domain.TestTasks.size(), variantName(Config.Variant));

  // Note: --resume restores a learned library as the *base* language of a
  // fresh run (warm start), matching how checkpointed libraries are used.
  if (!ResumePath.empty()) {
    Grammar Restored;
    std::vector<Frontier> Ignore;
    std::string Err;
    if (!loadCheckpoint(ResumePath, Restored, Ignore, &Err)) {
      std::fprintf(stderr, "error: cannot resume from %s: %s\n",
                   ResumePath.c_str(), Err.c_str());
      return 1;
    }
    Domain.BasePrimitives.clear();
    for (const Production &P : Restored.productions())
      Domain.BasePrimitives.push_back(P.Program);
    std::printf("resumed %zu productions from %s\n",
                Restored.productions().size(), ResumePath.c_str());
  }

  // Telemetry is write-only by contract: enabling it here changes what
  // gets recorded, never what gets computed (see DESIGN.md).
  const bool WantTelemetry =
      !MetricsPath.empty() || !TracePath.empty() || Config.Verbose;
  if (WantTelemetry) {
    obs::Telemetry::setEnabled(true);
    obs::MetricsRegistry::global().reset();
    obs::Tracer::global().clear();
  }

  WakeSleepResult R = runWakeSleep(Domain, Config);

  std::printf("\nper-cycle metrics:\n");
  std::printf("  %-6s %10s %10s %10s %10s\n", "cycle", "train", "test",
              "lib size", "lib depth");
  for (const CycleMetrics &M : R.Cycles)
    std::printf("  %-6d %10d %10d %10d %10d\n", M.Cycle,
                M.TrainSolvedCumulative, M.TestSolved, M.LibrarySize,
                M.LibraryDepth);

  std::printf("\nlearned library:\n");
  for (const Production &P : R.FinalGrammar.productions())
    if (P.Program->isInvented())
      std::printf("  %s : %s\n", P.Program->show().c_str(),
                  P.Ty->show().c_str());
  std::printf("\nfinal: train %d/%zu, test %d/%d\n", R.trainSolved(),
              Domain.TrainTasks.size(), R.FinalTestSolved,
              R.TestTaskCount);

  if (!CheckpointPath.empty()) {
    if (saveCheckpoint(CheckpointPath, R.FinalGrammar, R.TrainFrontiers))
      std::printf("checkpoint written to %s\n", CheckpointPath.c_str());
    else {
      std::fprintf(stderr, "error: cannot write %s\n",
                   CheckpointPath.c_str());
      return 1;
    }
  }

  if (WantTelemetry && Config.Verbose) {
    obs::MetricsRegistry &Reg = obs::MetricsRegistry::global();
    std::fprintf(stderr,
                 "telemetry: %zu counters, %zu gauges, %zu histograms, "
                 "%zu trace events; wake nodes expanded: %ld\n",
                 Reg.counterCount(), Reg.gaugeCount(),
                 Reg.histogramCount(), obs::Tracer::global().eventCount(),
                 Reg.counter("wake.nodes_expanded").value());
    double DreamSeconds = 0;
    for (const CycleMetrics &M : R.Cycles)
      DreamSeconds += Reg.gauge("wakesleep.cycle." +
                                std::to_string(M.Cycle) +
                                ".dreaming_seconds")
                          .value();
    std::fprintf(stderr, "telemetry: dream phase %.2fs wall\n",
                 DreamSeconds);
  }
  if (!MetricsPath.empty()) {
    std::ofstream Out(MetricsPath);
    if (!Out || !(Out << obs::MetricsRegistry::global().toJson())) {
      std::fprintf(stderr, "error: cannot write %s\n", MetricsPath.c_str());
      return 1;
    }
    std::printf("metrics written to %s\n", MetricsPath.c_str());
  }
  if (!TracePath.empty()) {
    std::ofstream Out(TracePath);
    if (!Out || !(Out << obs::Tracer::global().toJson())) {
      std::fprintf(stderr, "error: cannot write %s\n", TracePath.c_str());
      return 1;
    }
    std::printf("trace written to %s\n", TracePath.c_str());
  }
  return 0;
}
