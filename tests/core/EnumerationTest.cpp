//===- tests/core/EnumerationTest.cpp - Enumerative search unit tests -----===//

#include "core/Enumeration.h"
#include "core/Primitives.h"
#include "core/ThreadPool.h"
#include "core/ProgramParser.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <random>
#include <set>

using namespace dc;

namespace {

class EnumerationTest : public ::testing::Test {
protected:
  void SetUp() override {
    std::vector<ExprPtr> Core = prims::functionalCore();
    std::vector<ExprPtr> Extra = prims::arithmeticExtras();
    Core.insert(Core.end(), Extra.begin(), Extra.end());
    G = Grammar::uniform(Core);
  }

  /// Builds an int-list to int-list task from a lambda over longs.
  TaskPtr listTask(const std::string &Name,
                   const std::function<std::vector<long>(
                       const std::vector<long> &)> &F) {
    std::vector<std::vector<long>> Ins = {
        {1, 2, 3}, {4, 0, 7, 2}, {5}, {9, 9}, {}};
    std::vector<Example> Ex;
    for (const auto &In : Ins) {
      std::vector<ValuePtr> Xs, Ys;
      for (long V : In)
        Xs.push_back(Value::makeInt(V));
      for (long V : F(In))
        Ys.push_back(Value::makeInt(V));
      Ex.push_back({{Value::makeList(Xs)}, Value::makeList(Ys)});
    }
    return std::make_shared<Task>(
        Name, Type::arrow(tList(tInt()), tList(tInt())), Ex);
  }

  /// A focused grammar, as the wake phase would have after learning
  /// weights: search under it is orders of magnitude cheaper than under
  /// the full uniform base language.
  Grammar focusedGrammar() {
    std::vector<ExprPtr> Prims;
    for (const char *Name : {"map", "+", "cons", "car", "cdr", "nil", "1"})
      Prims.push_back(lookupPrimitive(Name));
    return Grammar::uniform(Prims);
  }

  Grammar G;
};

} // namespace

TEST_F(EnumerationTest, WindowEnumeratesUniquePrograms) {
  long Nodes = 1000000;
  std::set<ExprPtr> Seen;
  enumerateWindow(G, Type::arrow(tInt(), tInt()), 0, 7.0, Nodes,
                  [&](ExprPtr P, double) {
                    EXPECT_TRUE(Seen.insert(P).second)
                        << "duplicate program " << P->show();
                    return true;
                  });
  EXPECT_GT(Seen.size(), 5u);
}

TEST_F(EnumerationTest, WindowsPartitionTheSpace) {
  // [0, 8) must equal [0, 4) ∪ [4, 8) exactly.
  auto Collect = [&](double Lo, double Hi) {
    long Nodes = 4000000;
    std::set<ExprPtr> Out;
    enumerateWindow(G, Type::arrow(tInt(), tInt()), Lo, Hi, Nodes,
                    [&](ExprPtr P, double) {
                      Out.insert(P);
                      return true;
                    });
    return Out;
  };
  std::set<ExprPtr> Whole = Collect(0, 8);
  std::set<ExprPtr> Low = Collect(0, 4);
  std::set<ExprPtr> High = Collect(4, 8);
  std::set<ExprPtr> Unioned = Low;
  Unioned.insert(High.begin(), High.end());
  EXPECT_EQ(Whole, Unioned);
  for (ExprPtr P : Low)
    EXPECT_EQ(High.count(P), 0u) << P->show();
}

TEST_F(EnumerationTest, ReportedPriorsMatchGrammarLikelihood) {
  long Nodes = 500000;
  TypePtr Req = Type::arrow(tInt(), tInt());
  int Checked = 0;
  enumerateWindow(G, Req, 0, 6.5, Nodes, [&](ExprPtr P, double LogPrior) {
    EXPECT_NEAR(LogPrior, G.logLikelihood(Req, P), 1e-6) << P->show();
    return ++Checked < 200;
  });
  EXPECT_GT(Checked, 3);
}

TEST_F(EnumerationTest, EnumeratedProgramsAreWellTyped) {
  long Nodes = 500000;
  TypePtr Req = Type::arrow(tList(tInt()), tInt());
  int Checked = 0;
  enumerateWindow(G, Req, 0, 7.0, Nodes, [&](ExprPtr P, double) {
    TypePtr T = P->inferType();
    EXPECT_NE(T, nullptr) << P->show();
    if (T) {
      TypeContext Ctx;
      EXPECT_TRUE(Ctx.unify(Ctx.instantiate(T), Ctx.instantiate(Req)))
          << P->show() << " : " << T->show();
    }
    return ++Checked < 300;
  });
  EXPECT_GT(Checked, 3);
}

TEST_F(EnumerationTest, NodeBudgetIsRespected) {
  long Nodes = 50;
  int Count = 0;
  enumerateWindow(G, Type::arrow(tInt(), tInt()), 0, 20.0, Nodes,
                  [&](ExprPtr, double) {
                    ++Count;
                    return true;
                  });
  EXPECT_LE(Nodes, 0l);
  EXPECT_LT(Count, 100);
}

TEST_F(EnumerationTest, SolvesIdentityTask) {
  TaskPtr T = listTask("identity", [](const std::vector<long> &In) {
    return In;
  });
  EnumerationParams Params;
  Frontier F = solveTask(G, T, Params);
  ASSERT_FALSE(F.empty());
  EXPECT_EQ(T->logLikelihood(F.best()->Program), 0.0);
}

TEST_F(EnumerationTest, SolvesDoubleEachTask) {
  TaskPtr T = listTask("double", [](const std::vector<long> &In) {
    std::vector<long> Out;
    for (long V : In)
      Out.push_back(2 * V);
    return Out;
  });
  Grammar Focused = focusedGrammar();
  EnumerationParams Params;
  Params.MaxBudget = 16;
  Params.NodeBudget = 2000000;
  EnumerationStats Stats;
  Frontier F = solveTask(Focused, T, Params, &Stats);
  ASSERT_FALSE(F.empty()) << "budget reached " << Stats.BudgetReached;
  EXPECT_EQ(T->logLikelihood(F.best()->Program), 0.0)
      << F.best()->Program->show();
}

TEST_F(EnumerationTest, FrontierOrderedByPosterior) {
  TaskPtr T = listTask("identity", [](const std::vector<long> &In) {
    return In;
  });
  EnumerationParams Params;
  Params.ExtraWindowsAfterSolution = 2;
  Frontier F = solveTask(G, T, Params);
  ASSERT_GE(F.entries().size(), 2u);
  for (size_t I = 1; I < F.entries().size(); ++I)
    EXPECT_GE(F.entries()[I - 1].logPosterior(),
              F.entries()[I].logPosterior());
}

TEST_F(EnumerationTest, SharedGrammarSolverGroupsByType) {
  std::vector<TaskPtr> Tasks = {
      listTask("identity", [](const std::vector<long> &In) { return In; }),
      listTask("increment-each",
               [](const std::vector<long> &In) {
                 std::vector<long> Out;
                 for (long V : In)
                   Out.push_back(V + 1);
                 return Out;
               }),
  };
  Grammar Focused = focusedGrammar();
  EnumerationParams Params;
  Params.NodeBudget = 1000000;
  EnumerationStats Stats;
  auto Frontiers = solveTasks(Focused, Tasks, Params, &Stats);
  ASSERT_EQ(Frontiers.size(), 2u);
  EXPECT_FALSE(Frontiers[0].empty());
  EXPECT_FALSE(Frontiers[1].empty());
  EXPECT_EQ(Stats.EffortToSolve.size(), 2u);
}

TEST_F(EnumerationTest, ImpossibleTaskYieldsEmptyFrontier) {
  // Output length exceeds anything expressible cheaply: require outputs
  // unrelated to inputs so exact match fails for every small program.
  std::vector<Example> Ex = {
      {{Value::makeList({Value::makeInt(1)})},
       Value::makeList({Value::makeInt(77), Value::makeInt(-3)})},
      {{Value::makeList({Value::makeInt(2)})},
       Value::makeList({Value::makeInt(12), Value::makeInt(99)})},
  };
  auto T = std::make_shared<Task>(
      "impossible", Type::arrow(tList(tInt()), tList(tInt())), Ex);
  EnumerationParams Params;
  Params.MaxBudget = 7.0;
  Params.NodeBudget = 100000;
  Frontier F = solveTask(G, T, Params);
  EXPECT_TRUE(F.empty());
}

TEST_F(EnumerationTest, BigramGuidanceFindsSolutionFaster) {
  // Boost the productions used by the target; guided search should find the
  // solution with less effort.
  TaskPtr T = listTask("double", [](const std::vector<long> &In) {
    std::vector<long> Out;
    for (long V : In)
      Out.push_back(2 * V);
    return Out;
  });
  Grammar Focused = focusedGrammar();
  EnumerationParams Params;
  Params.MaxBudget = 16;
  Params.NodeBudget = 2000000;

  EnumerationStats Neutral;
  solveTask(Focused, T, Params, &Neutral);

  Grammar Boosted = Focused;
  for (const char *Name : {"map", "+"})
    Boosted.productions()[Boosted.productionIndex(lookupPrimitive(Name))]
        .LogWeight = 2.0;
  EnumerationStats Guided;
  Frontier F = solveTask(Boosted, T, Params, &Guided);
  ASSERT_FALSE(F.empty());
  ASSERT_FALSE(Neutral.EffortToSolve.empty());
  ASSERT_FALSE(Guided.EffortToSolve.empty());
  if (Neutral.EffortToSolve[0] > 0 && Guided.EffortToSolve[0] > 0) {
    EXPECT_LE(Guided.EffortToSolve[0], Neutral.EffortToSolve[0]);
  }
}

namespace {

/// Everything observable about a search result, as a comparable string:
/// frontier programs with scores (in order) plus the full stats block.
std::string searchFingerprint(const std::vector<Frontier> &Fs,
                              const EnumerationStats &Stats) {
  std::string Sig;
  for (const Frontier &F : Fs) {
    Sig += "[";
    for (const FrontierEntry &E : F.entries()) {
      char Buf[64];
      std::snprintf(Buf, sizeof(Buf), "|%.12g|%.12g;", E.LogPrior,
                    E.LogLikelihood);
      Sig += E.Program->show();
      Sig += Buf;
    }
    Sig += "]";
  }
  char Buf[128];
  std::snprintf(Buf, sizeof(Buf), " nodes=%ld progs=%ld budget=%.12g",
                Stats.NodesExpanded, Stats.ProgramsEnumerated,
                Stats.BudgetReached);
  Sig += Buf;
  for (long E : Stats.EffortToSolve) {
    Sig += ' ';
    Sig += std::to_string(E);
  }
  return Sig;
}

} // namespace

TEST_F(EnumerationTest, SolveTasksIdenticalAcrossThreadCounts) {
  // The tentpole determinism guarantee: frontiers AND stats from the
  // parallel wake phase are bit-identical to the serial path at any
  // thread count (list-domain fixture, single shared request type).
  std::vector<TaskPtr> Tasks = {
      listTask("identity", [](const std::vector<long> &In) { return In; }),
      listTask("increment-each",
               [](const std::vector<long> &In) {
                 std::vector<long> Out;
                 for (long V : In)
                   Out.push_back(V + 1);
                 return Out;
               }),
      listTask("double",
               [](const std::vector<long> &In) {
                 std::vector<long> Out;
                 for (long V : In)
                   Out.push_back(2 * V);
                 return Out;
               }),
  };
  Grammar Focused = focusedGrammar();
  EnumerationParams Params;
  Params.MaxBudget = 14;
  Params.NodeBudget = 500000;

  std::string Baseline;
  for (int Threads : {1, 2, 8}) {
    Params.NumThreads = Threads;
    EnumerationStats Stats;
    auto Fs = solveTasks(Focused, Tasks, Params, &Stats);
    ASSERT_EQ(Stats.EffortToSolve.size(), Tasks.size());
    std::string Sig = searchFingerprint(Fs, Stats);
    if (Threads == 1)
      Baseline = Sig;
    else
      EXPECT_EQ(Sig, Baseline) << "NumThreads=" << Threads
                               << " diverged from the serial path";
  }
  EXPECT_FALSE(Baseline.empty());
}

TEST_F(EnumerationTest, SolveTaskIdenticalAcrossThreadCounts) {
  TaskPtr T = listTask("double", [](const std::vector<long> &In) {
    std::vector<long> Out;
    for (long V : In)
      Out.push_back(2 * V);
    return Out;
  });
  Grammar Focused = focusedGrammar();
  EnumerationParams Params;
  Params.MaxBudget = 16;
  Params.NodeBudget = 2000000;
  Params.ExtraWindowsAfterSolution = 1;

  std::string Baseline;
  for (int Threads : {1, 2, 8}) {
    Params.NumThreads = Threads;
    EnumerationStats Stats;
    Frontier F = solveTask(Focused, T, Params, &Stats);
    ASSERT_FALSE(F.empty());
    std::string Sig = searchFingerprint({F}, Stats);
    if (Threads == 1)
      Baseline = Sig;
    else
      EXPECT_EQ(Sig, Baseline) << "NumThreads=" << Threads;
  }
}

TEST_F(EnumerationTest, EffortStaysAlignedWithTaskOrder) {
  // Mixed request types force multiple groups, which the parallel solver
  // may finish in any order; one unsolvable task pins a -1 to a known
  // index. EffortToSolve must line up with the Tasks vector regardless of
  // worker completion order (the aggregation regression this PR fixes).
  std::vector<Example> IntEx;
  for (long V : {1L, 4L, 9L})
    IntEx.push_back({{Value::makeInt(V)}, Value::makeInt(V + 1)});
  auto IncInt = std::make_shared<Task>(
      "inc-int", Type::arrow(tInt(), tInt()), IntEx);

  std::vector<Example> BadEx = {
      {{Value::makeList({Value::makeInt(1)})},
       Value::makeList({Value::makeInt(77), Value::makeInt(-3)})},
      {{Value::makeList({Value::makeInt(2)})},
       Value::makeList({Value::makeInt(12), Value::makeInt(99)})},
  };
  auto Impossible = std::make_shared<Task>(
      "impossible", Type::arrow(tList(tInt()), tList(tInt())), BadEx);

  std::vector<TaskPtr> Tasks = {
      listTask("identity", [](const std::vector<long> &In) { return In; }),
      IncInt,
      Impossible,
  };
  Grammar Focused = focusedGrammar();
  EnumerationParams Params;
  Params.MaxBudget = 10.0;
  Params.NodeBudget = 200000;

  std::vector<long> Baseline;
  for (int Threads : {1, 2, 8}) {
    Params.NumThreads = Threads;
    EnumerationStats Stats;
    auto Fs = solveTasks(Focused, Tasks, Params, &Stats);
    ASSERT_EQ(Fs.size(), 3u);
    ASSERT_EQ(Stats.EffortToSolve.size(), 3u);
    // Alignment: solved tasks report positive effort at their own index,
    // the impossible task reports -1 at index 2.
    EXPECT_FALSE(Fs[0].empty());
    EXPECT_FALSE(Fs[1].empty());
    EXPECT_TRUE(Fs[2].empty());
    EXPECT_GT(Stats.EffortToSolve[0], 0);
    EXPECT_GT(Stats.EffortToSolve[1], 0);
    EXPECT_EQ(Stats.EffortToSolve[2], -1);
    if (Threads == 1)
      Baseline = Stats.EffortToSolve;
    else
      EXPECT_EQ(Stats.EffortToSolve, Baseline) << "NumThreads=" << Threads;
  }
}

namespace {

/// FNV-1a over \p S, continuing from \p H.
uint64_t fnv1a(const std::string &S, uint64_t H) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ULL;
  }
  return H;
}

} // namespace

TEST_F(EnumerationTest, ProgramStreamMatchesGolden) {
  // Pins the enumerator's observable output across builds, not just across
  // thread counts: the ordered program stream with bit-exact priors, the
  // solvers' fingerprints, and a sampled stream. The literal was computed
  // before types were interned; any change to enumeration order, a prior,
  // or a sampled program changes it.
  uint64_t H = 1469598103934665603ULL;
  char Buf[64];
  for (TypePtr Req : {Type::arrow(tList(tInt()), tList(tInt())),
                      Type::arrow(tInt(), tInt())}) {
    long Nodes = 1000000;
    enumerateWindow(G, Req, 0, 12.0, Nodes, [&](ExprPtr P, double LogPrior) {
      std::snprintf(Buf, sizeof(Buf), " %a\n", LogPrior);
      H = fnv1a(P->show(), H);
      H = fnv1a(Buf, H);
      return true;
    });
  }

  auto Double = [](const std::vector<long> &In) {
    std::vector<long> Out;
    for (long V : In)
      Out.push_back(2 * V);
    return Out;
  };
  std::vector<TaskPtr> Tasks = {
      listTask("identity", [](const std::vector<long> &In) { return In; }),
      listTask("increment-each",
               [](const std::vector<long> &In) {
                 std::vector<long> Out;
                 for (long V : In)
                   Out.push_back(V + 1);
                 return Out;
               }),
      listTask("double", Double),
  };
  Grammar Focused = focusedGrammar();
  EnumerationParams Params;
  Params.MaxBudget = 14;
  Params.NodeBudget = 500000;
  for (int Threads : {1, 4}) {
    Params.NumThreads = Threads;
    EnumerationStats Stats;
    auto Fs = solveTasks(Focused, Tasks, Params, &Stats);
    H = fnv1a(searchFingerprint(Fs, Stats), H);
  }

  Grammar Boosted = Focused;
  for (const char *Name : {"map", "+"})
    Boosted.productions()[Boosted.productionIndex(lookupPrimitive(Name))]
        .LogWeight = 2.0;
  EnumerationParams Single;
  Single.MaxBudget = 16;
  Single.NodeBudget = 2000000;
  EnumerationStats Guided;
  Frontier F = solveTask(Boosted, listTask("double", Double), Single, &Guided);
  H = fnv1a(searchFingerprint({F}, Guided), H);

  std::mt19937 Rng(20210620);
  TypePtr SampleReq = Type::arrow(tList(tInt()), tList(tInt()));
  for (int I = 0; I < 50; ++I) {
    ExprPtr P = sampleFromSource(G, SampleReq, Rng);
    H = fnv1a(P ? P->show() : "null", H);
    H = fnv1a("\n", H);
  }

  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(H));
  EXPECT_STREQ(Buf, "636acde962b5f009");
}

//===----------------------------------------------------------------------===//
// Wall-clock deadlines and cooperative cancellation (the dc_serve path)
//===----------------------------------------------------------------------===//

namespace {

/// A task no small program solves (outputs unrelated to inputs), with a
/// node budget big enough that only the deadline/cancellation can end the
/// search quickly.
TaskPtr impossibleTask() {
  std::vector<Example> Ex = {
      {{Value::makeList({Value::makeInt(1)})},
       Value::makeList({Value::makeInt(77), Value::makeInt(-3)})},
      {{Value::makeList({Value::makeInt(2)})},
       Value::makeList({Value::makeInt(12), Value::makeInt(99)})},
  };
  return std::make_shared<Task>(
      "impossible", Type::arrow(tList(tInt()), tList(tInt())), Ex);
}

} // namespace

TEST_F(EnumerationTest, DeadlineExpiredStopsSearch) {
  EnumerationParams Params;
  Params.MaxBudget = 18.0;
  Params.NodeBudget = 200000000; // would run for minutes without a deadline
  Params.WallTimeoutSeconds = 0.05;

  auto Start = std::chrono::steady_clock::now();
  EnumerationStats Stats;
  Frontier F = solveTask(G, impossibleTask(), Params, &Stats);
  double Elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Start)
                       .count();

  EXPECT_TRUE(F.empty());
  EXPECT_TRUE(Stats.Interrupted);
  // Polling granularity is a few hundred expansions, so the overshoot is
  // milliseconds; 10s is pure CI paranoia.
  EXPECT_LT(Elapsed, 10.0);
  EXPECT_LT(Stats.NodesExpanded, Params.NodeBudget);
}

TEST_F(EnumerationTest, GenerousDeadlineKeepsResultsBitIdentical) {
  // The determinism contract: a deadline that never fires must not change
  // anything — the ShouldStop hook only ever truncates, never reorders.
  TaskPtr T = listTask("double", [](const std::vector<long> &In) {
    std::vector<long> Out;
    for (long V : In)
      Out.push_back(2 * V);
    return Out;
  });
  Grammar Focused = focusedGrammar();
  EnumerationParams Params;
  Params.MaxBudget = 16;
  Params.NodeBudget = 2000000;

  EnumerationStats Plain;
  Frontier FPlain = solveTask(Focused, T, Params, &Plain);
  Params.WallTimeoutSeconds = 3600.0;
  EnumerationStats Timed;
  Frontier FTimed = solveTask(Focused, T, Params, &Timed);

  EXPECT_FALSE(Plain.Interrupted);
  EXPECT_FALSE(Timed.Interrupted);
  EXPECT_EQ(searchFingerprint({FPlain}, Plain),
            searchFingerprint({FTimed}, Timed));
}

TEST_F(EnumerationTest, HugeDeadlineMeansNoDeadline) {
  // A timeout past the end of the steady clock's range saturates to "no
  // deadline": converted to clock ticks unchecked, it would overflow into a
  // deadline in the past and stop every search at once.
  TaskPtr T = listTask("double", [](const std::vector<long> &In) {
    std::vector<long> Out;
    for (long V : In)
      Out.push_back(2 * V);
    return Out;
  });
  Grammar Focused = focusedGrammar();
  EnumerationParams Params;
  Params.MaxBudget = 16;
  Params.NodeBudget = 2000000;

  EnumerationStats Plain;
  Frontier FPlain = solveTask(Focused, T, Params, &Plain);
  ASSERT_FALSE(FPlain.empty());
  for (double Huge : {1e13, 9.2e9, 1e300}) {
    SCOPED_TRACE(Huge);
    Params.WallTimeoutSeconds = Huge;
    EnumerationStats Timed;
    Frontier FTimed = solveTask(Focused, T, Params, &Timed);
    EXPECT_FALSE(Timed.Interrupted);
    EXPECT_EQ(searchFingerprint({FPlain}, Plain),
              searchFingerprint({FTimed}, Timed));
  }
}

TEST_F(EnumerationTest, CancellationTokenStopsSearch) {
  CancellationToken Cancel;
  Cancel.cancel(); // already cancelled: the first poll must end the search

  EnumerationParams Params;
  Params.MaxBudget = 18.0;
  Params.NodeBudget = 200000000;
  Params.Cancel = &Cancel;

  EnumerationStats Stats;
  Frontier F = solveTask(G, impossibleTask(), Params, &Stats);
  EXPECT_TRUE(F.empty());
  EXPECT_TRUE(Stats.Interrupted);
  // The poll interval bounds how far a cancelled search can run.
  EXPECT_LT(Stats.NodesExpanded, 100000);
}

TEST_F(EnumerationTest, SharedGrammarSolverHonorsDeadline) {
  std::vector<TaskPtr> Tasks = {impossibleTask()};
  EnumerationParams Params;
  Params.MaxBudget = 18.0;
  Params.NodeBudget = 200000000;
  Params.WallTimeoutSeconds = 0.05;

  auto Start = std::chrono::steady_clock::now();
  EnumerationStats Stats;
  auto Frontiers = solveTasks(G, Tasks, Params, &Stats);
  double Elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Start)
                       .count();

  ASSERT_EQ(Frontiers.size(), 1u);
  EXPECT_TRUE(Frontiers[0].empty());
  EXPECT_TRUE(Stats.Interrupted);
  EXPECT_LT(Elapsed, 10.0);
}
