//===- tests/core/WakeSleepTest.cpp - Wake-sleep integration tests --------===//
//
// End-to-end behavior of the full loop at miniature scale: each variant
// runs, solves something, and produces internally consistent results
// (frontier programs actually solve their tasks; rewritten libraries stay
// sound).
//
//===----------------------------------------------------------------------===//

#include "core/WakeSleep.h"
#include "domains/ListDomain.h"
#include "obs/Telemetry.h"

#include <gtest/gtest.h>

using namespace dc;

namespace {

/// A miniature list domain so every variant runs in seconds: only task
/// families with short base-language solutions.
DomainSpec miniDomain() {
  DomainSpec D = makeListDomain(1);
  D.Search.NodeBudget = 100000;
  D.Search.MaxBudget = 12.0;
  std::vector<TaskPtr> All = D.TrainTasks;
  All.insert(All.end(), D.TestTasks.begin(), D.TestTasks.end());
  auto Pick = [&](std::initializer_list<const char *> Names) {
    std::vector<TaskPtr> Out;
    for (const char *N : Names)
      for (const TaskPtr &T : All)
        if (T->name() == N)
          Out.push_back(T);
    return Out;
  };
  D.TrainTasks = Pick({"identity", "length", "head", "drop-first",
                       "singleton-head", "length-plus-one"});
  D.TestTasks = Pick({"last", "prepend-zero"});
  return D;
}

WakeSleepConfig miniConfig(SystemVariant V) {
  WakeSleepConfig C;
  C.Variant = V;
  C.Iterations = 2;
  C.EvaluateTestEachCycle = false;
  C.Recog.TrainingSteps = 300;
  C.Recog.FantasyCount = 30;
  C.Seed = 12;
  return C;
}

/// Flattens everything determinism covers — learned library, every
/// frontier program, and all per-cycle metrics — into one comparable
/// string.
std::string resultSignature(const WakeSleepResult &R) {
  std::string Sig;
  for (const Production &P : R.FinalGrammar.productions())
    Sig += P.Program->show() + ";";
  for (const Frontier &F : R.TrainFrontiers) {
    Sig += "[";
    for (const FrontierEntry &E : F.entries()) {
      Sig += E.Program->show();
      Sig += ',';
    }
    Sig += "]";
  }
  for (const CycleMetrics &M : R.Cycles) {
    Sig += '|';
    Sig += std::to_string(M.TrainSolvedCumulative);
    Sig += ',';
    Sig += std::to_string(M.LibrarySize);
    Sig += ',';
    Sig += std::to_string(M.WakeNodesExpanded);
    for (long E : M.SolveEffort) {
      Sig += ',';
      Sig += std::to_string(E);
    }
  }
  return Sig;
}

} // namespace

TEST(WakeSleep, FullVariantRunsAndSolves) {
  DomainSpec D = miniDomain();
  WakeSleepResult R = runWakeSleep(D, miniConfig(SystemVariant::Full));
  EXPECT_GT(R.trainSolved(), 0);
  EXPECT_EQ(R.Cycles.size(), 2u);
  EXPECT_EQ(R.TrainFrontiers.size(), D.TrainTasks.size());
  // Every recorded program must actually solve its task.
  for (const Frontier &F : R.TrainFrontiers)
    for (const FrontierEntry &E : F.entries())
      EXPECT_EQ(F.task()->logLikelihood(E.Program), 0.0)
          << F.task()->name() << ": " << E.Program->show();
}

TEST(WakeSleep, AllVariantsRun) {
  DomainSpec D = miniDomain();
  for (SystemVariant V :
       {SystemVariant::NoRecognition, SystemVariant::NoAbstraction,
        SystemVariant::MemorizeNoRec, SystemVariant::MemorizeRec,
        SystemVariant::Ec, SystemVariant::Ec2,
        SystemVariant::EnumerationOnly}) {
    WakeSleepResult R = runWakeSleep(D, miniConfig(V));
    EXPECT_GT(R.trainSolved(), 0) << variantName(V);
  }
}

TEST(WakeSleep, MemorizeGrowsLibraryWithWholeSolutions) {
  DomainSpec D = miniDomain();
  WakeSleepResult R =
      runWakeSleep(D, miniConfig(SystemVariant::MemorizeNoRec));
  EXPECT_GE(R.FinalGrammar.inventionCount(), R.trainSolved() - 1);
}

TEST(WakeSleep, EnumerationOnlyNeverChangesLibrary) {
  DomainSpec D = miniDomain();
  WakeSleepResult R =
      runWakeSleep(D, miniConfig(SystemVariant::EnumerationOnly));
  EXPECT_EQ(R.FinalGrammar.inventionCount(), 0);
  EXPECT_EQ(R.FinalGrammar.productions().size(), D.BasePrimitives.size());
}

TEST(WakeSleep, MinibatchRestrictsWakeWork) {
  DomainSpec D = miniDomain();
  WakeSleepConfig C = miniConfig(SystemVariant::NoRecognition);
  C.MinibatchSize = 2;
  C.Iterations = 1;
  WakeSleepResult R = runWakeSleep(D, C);
  // At most the two minibatch tasks can be solved after one cycle.
  EXPECT_LE(R.trainSolved(), 2);
}

TEST(WakeSleep, MetricsAreMonotoneAndConsistent) {
  DomainSpec D = miniDomain();
  WakeSleepConfig C = miniConfig(SystemVariant::NoRecognition);
  C.Iterations = 3;
  WakeSleepResult R = runWakeSleep(D, C);
  int Prev = 0;
  for (const CycleMetrics &M : R.Cycles) {
    EXPECT_GE(M.TrainSolvedCumulative, Prev)
        << "cumulative solving cannot regress";
    Prev = M.TrainSolvedCumulative;
    EXPECT_GE(M.LibrarySize,
              static_cast<int>(D.BasePrimitives.size()));
  }
  EXPECT_EQ(R.Cycles.back().TrainSolvedCumulative, R.trainSolved());
}

TEST(WakeSleep, ResultsIdenticalAcrossThreadCounts) {
  // End-to-end determinism: the full loop (guided + fallback wake search,
  // compression, dreamed recognition training) produces identical results
  // whether the thread pool is off or saturated.
  auto Run = [&](int Threads) {
    DomainSpec D = miniDomain();
    WakeSleepConfig C = miniConfig(SystemVariant::Full);
    C.NumThreads = Threads;
    return resultSignature(runWakeSleep(D, C));
  };
  const std::string Serial = Run(1);
  EXPECT_EQ(Run(8), Serial);
}

TEST(WakeSleep, ResultsIdenticalWithTelemetry) {
  // The determinism contract from obs/Telemetry.h: telemetry is
  // write-only, so flipping it on changes what gets *recorded*, never
  // what gets *computed* — at any thread count.
  auto Run = [&](int Threads, bool Telemetry) {
    dc::obs::TelemetryScope Scope(Telemetry);
    DomainSpec D = miniDomain();
    WakeSleepConfig C = miniConfig(SystemVariant::Full);
    C.NumThreads = Threads;
    return resultSignature(runWakeSleep(D, C));
  };
  for (int Threads : {1, 4}) {
    const std::string Off = Run(Threads, false);
    EXPECT_EQ(Run(Threads, true), Off) << "threads=" << Threads;
  }
}

TEST(WakeSleep, VariantNamesAreStable) {
  EXPECT_STREQ(variantName(SystemVariant::Full), "DreamCoder");
  EXPECT_STREQ(variantName(SystemVariant::Ec2), "EC2 (batched)");
  EXPECT_STREQ(variantName(SystemVariant::EnumerationOnly), "Enumeration");
}
