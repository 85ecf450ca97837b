//===- core/Enumeration.cpp - Type-directed enumerative search ------------===//
//
// The enumerator fills holes depth first in the order of their choices,
// on one trail-based TypeContext per window: a choice is bound, the rest
// of the program is enumerated under it, and the context is undone to the
// mark taken before it. Nothing is allocated per hole: pending argument
// holes are frames on the C++ stack, choices share one buffer used as a
// stack, and the program is a preorder stack of decisions that is
// interned only when a program is emitted inside its window. A search's
// windows share one ProductionFilterMemo, so a hole tries the library's
// productions only the first time the search meets its applied request.
//
//===----------------------------------------------------------------------===//

#include "core/Enumeration.h"

#include "core/ThreadPool.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>

using namespace dc;

namespace {

constexpr double NegInf = -std::numeric_limits<double>::infinity();

/// Candidate buffer size for parallel likelihood testing: big enough to
/// amortize worker scheduling, small enough to bound memory while a
/// window's enumeration is paused for testing.
constexpr size_t TestBatchSize = 2048;

/// Candidate expansions between ShouldStop polls (deadline / cancellation
/// checks): coarse enough that the clock read is amortized away, fine
/// enough that an expired deadline is noticed within a fraction of a
/// millisecond of search.
constexpr long StopCheckInterval = 256;

/// Recursive enumerator core for one window (see the file comment): emits
/// every program of the request whose cost (negative log prior) lies in
/// [Lower, Upper). A completed subtree hands its cost to the next Pending
/// frame and builds nothing.
class Enumerator {
public:
  Enumerator(const EnumerationSource &Src, long &Nodes,
             const std::function<bool()> &ShouldStop, double Lower,
             const std::function<bool(ExprPtr, double)> &Emit,
             ProductionFilterMemo *Memo)
      : Src(Src), Nodes(Nodes), ShouldStop(ShouldStop), Lower(Lower),
        Emit(Emit), Memo(Memo) {}

  /// Enumerates the window up to \p Upper. Returns false when the search
  /// was stopped (node budget, ShouldStop, or Emit).
  bool run(const TypePtr &Request, double Upper) {
    TypePtr Req = Ctx.instantiate(Request);
    return enumerate(ParentStart, 0, nullptr, Req, Upper, nullptr);
  }

private:
  /// The arguments of a spine still to fill after argument Idx, whose head
  /// has type Rest with its first Idx arguments peeled and whose earlier
  /// arguments cost CostSoFar; Outer is what follows the whole spine.
  struct Pending {
    int ChildParent;
    const TypeEnv *Env;
    TypePtr Rest;
    int Idx;
    double CostSoFar;
    double Budget;
    const Pending *Outer;
  };

  /// One preorder decision: a lambda (null Leaf), or a leaf applied to the
  /// next Arity subtrees.
  struct Decision {
    ExprPtr Leaf;
    int Arity;
  };

  /// Fills a hole of type \p Request with every subtree costing under
  /// \p Budget, continuing each with \p K.
  bool enumerate(int ParentIdx, int ArgIdx, const TypeEnv *Env,
                 TypePtr Request, double Budget, const Pending *K) {
    if (Budget <= 0)
      return true;
    TypePtr Req = Ctx.resolve(Request);

    if (Req->isArrow()) {
      TypeEnv Frame{Req->arrowArgument(), Env};
      Program.push_back({nullptr, 0});
      bool Go = enumerate(ParentIdx, ArgIdx, &Frame, Req->arrowResult(),
                          Budget, K);
      Program.pop_back();
      return Go;
    }

    const size_t Begin = Choices.size();
    Src.candidates(ParentIdx, ArgIdx, Req, Env, Ctx, Choices, Memo);
    const size_t End = Choices.size();
    bool Go = true;
    for (size_t I = Begin; Go && I < End; ++I) {
      // A copy: the holes below push onto the same buffer.
      const GrammarCandidate C = Choices[I];
      double Cost = -C.LogProb;
      if (Cost >= Budget)
        continue;
      if (--Nodes <= 0 || stopRequested()) {
        Go = false;
        break;
      }
      TypeContext::Mark M = Ctx.mark();
      TypePtr Ty = bindCandidate(C, Req, Ctx);
      Program.push_back({C.Leaf, functionArity(Ty)});
      int ChildParent =
          C.ProductionIdx >= 0 ? C.ProductionIdx : ParentVariable;
      Go = fill(ChildParent, Env, Ty, 0, Cost, Budget, K);
      Program.pop_back();
      Ctx.undo(M);
    }
    Choices.resize(Begin);
    return Go;
  }

  /// Polls ShouldStop (deadline, cancellation) once every
  /// StopCheckInterval expansions. The branch on the empty default keeps
  /// the deterministic path free of clock reads entirely.
  bool stopRequested() {
    if (!ShouldStop || ++SinceStopCheck < StopCheckInterval)
      return false;
    SinceStopCheck = 0;
    return ShouldStop();
  }

  /// Fills the arguments of a spine left to right from argument \p Idx.
  /// \p Env is the environment at the spine's decision point: inner
  /// binders of earlier arguments are not in scope here.
  bool fill(int ChildParent, const TypeEnv *Env, TypePtr Rest, int Idx,
            double CostSoFar, double Budget, const Pending *K) {
    if (!Rest->isArrow())
      return finish(K, CostSoFar);
    Pending Next{ChildParent, Env, Rest, Idx, CostSoFar, Budget, K};
    return enumerate(ChildParent, Idx, Env, Rest->arrowArgument(),
                     Budget - CostSoFar, &Next);
  }

  /// A subtree costing \p Cost is complete: fill the next pending hole,
  /// or emit the program when none is left.
  bool finish(const Pending *K, double Cost) {
    if (K)
      return fill(K->ChildParent, K->Env, K->Rest->arrowResult(), K->Idx + 1,
                  K->CostSoFar + Cost, K->Budget, K->Outer);
    if (Cost < Lower)
      return true; // reported by an earlier window
    size_t Pos = 0;
    return Emit(build(Pos), -Cost);
  }

  /// Interns the subtree whose preorder decisions start at \p Pos.
  ExprPtr build(size_t &Pos) const {
    const Decision &D = Program[Pos++];
    if (!D.Leaf)
      return Expr::abstraction(build(Pos));
    ExprPtr E = D.Leaf;
    for (int I = 0; I < D.Arity; ++I)
      E = Expr::application(E, build(Pos));
    return E;
  }

  const EnumerationSource &Src;
  long &Nodes;
  const std::function<bool()> &ShouldStop;
  const double Lower;
  const std::function<bool(ExprPtr, double)> &Emit;
  ProductionFilterMemo *const Memo;
  long SinceStopCheck = 0;
  TypeContext Ctx;
  std::vector<GrammarCandidate> Choices;
  std::vector<Decision> Program;
};

/// Builds the ShouldStop predicate for one search: cancellation first (one
/// relaxed load), then the wall-clock deadline. Returns an empty function
/// when neither knob is set so the hot path stays branch-predictable and
/// clock-free. \p Interrupted records why the search stopped early.
std::function<bool()>
makeShouldStop(const EnumerationParams &Params,
               std::chrono::steady_clock::time_point Deadline,
               bool &Interrupted) {
  if (!Params.Cancel && Params.WallTimeoutSeconds <= 0)
    return {};
  const bool HasDeadline = Params.WallTimeoutSeconds > 0;
  CancellationToken *Cancel = Params.Cancel;
  return [Cancel, HasDeadline, Deadline, &Interrupted] {
    if (Cancel && Cancel->cancelled()) {
      Interrupted = true;
      return true;
    }
    if (HasDeadline && std::chrono::steady_clock::now() >= Deadline) {
      Interrupted = true;
      return true;
    }
    return false;
  };
}

std::chrono::steady_clock::time_point
deadlineFor(const EnumerationParams &Params) {
  using Clock = std::chrono::steady_clock;
  if (Params.WallTimeoutSeconds <= 0)
    return {};
  // Saturate rather than overflow: a timeout reaching (to within a second)
  // past the end of the clock's range means no deadline, not one that
  // wrapped into the past.
  const Clock::time_point Now = Clock::now();
  const double LeftSeconds =
      std::chrono::duration_cast<std::chrono::seconds>(
          Clock::time_point::max() - Now)
          .count() -
      1.0;
  if (!(Params.WallTimeoutSeconds < LeftSeconds))
    return Clock::time_point::max();
  return Now + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(Params.WallTimeoutSeconds));
}

/// Mirrors one finished search (task or request-type group) into the
/// metrics registry: totals as counters, effort/depth distributions as
/// log-bin histograms. Called once per search, off the hot path.
void recordSearchMetrics(long NodesExpanded, long ProgramsEnumerated,
                         long CandidatesTested, int Windows,
                         double BudgetReached) {
  if (obs::Telemetry::disabled())
    return;
  obs::MetricsRegistry &R = obs::MetricsRegistry::global();
  R.counter("enum.nodes_expanded").add(NodesExpanded);
  R.counter("enum.programs_enumerated").add(ProgramsEnumerated);
  R.counter("enum.candidates_tested").add(CandidatesTested);
  R.histogram("enum.windows_searched").observe(Windows);
  R.histogram("enum.budget_reached").observe(BudgetReached);
}

/// Searches one description-length window [\p Lower, \p Upper) and tests
/// every candidate against \p NumTasks tasks. Enumeration stays serial: the
/// node-budget accounting is what makes searches deterministic, and it is
/// three orders of magnitude cheaper than running candidates. Candidates
/// are buffered, and each batch's Test(task, program) calls fan out across
/// workers (parallelFor runs them inline at one thread). \p Fold then sees
/// every candidate with its row of NumTasks log likelihoods in enumeration
/// order, so results are bit-identical at any thread count.
template <typename TestFn, typename FoldFn>
void searchWindow(const EnumerationSource &Src, TypePtr Request,
                  double Lower, double Upper, long &Nodes,
                  const std::function<bool()> &ShouldStop,
                  ProductionFilterMemo &Memo, int NumThreads,
                  size_t NumTasks, TestFn &&Test, FoldFn &&Fold) {
  std::vector<std::pair<ExprPtr, double>> Batch;
  std::vector<double> LL;
  auto Flush = [&] {
    LL.resize(Batch.size() * NumTasks);
    parallelFor(NumThreads, LL.size(), [&](size_t J) {
      LL[J] = Test(J % NumTasks, Batch[J / NumTasks].first);
    });
    for (size_t B = 0; B < Batch.size(); ++B)
      Fold(Batch[B].first, Batch[B].second, &LL[B * NumTasks]);
    Batch.clear();
  };
  enumerateWindow(Src, Request, Lower, Upper, Nodes,
                  [&](ExprPtr P, double LogPrior) {
                    Batch.emplace_back(P, LogPrior);
                    if (Batch.size() >= TestBatchSize)
                      Flush();
                    return true;
                  },
                  ShouldStop, &Memo);
  // Candidates enumerated before an interruption still get tested: a
  // request that found its solution just before the deadline reports it.
  Flush();
}

/// The one window loop behind every search: iterative deepening over
/// description-length windows for the tasks Tasks[I], I in \p Group, which
/// share one request type, under \p Src with one node budget and one
/// deadline. Stops once every task of the group is solved and
/// ExtraWindowsAfterSolution more windows are searched, or when a budget
/// runs out. Fills Out[I] and Effort[I] for the group's tasks only (so
/// groups may run concurrently) and returns the group's counters. The
/// group's windows share one production filter memo: its source, and so
/// its production list, is fixed for the search, and the memo stays on
/// this thread (only candidate testing fans out).
EnumerationStats searchGroup(const EnumerationSource &Src,
                             const std::vector<TaskPtr> &Tasks,
                             const std::vector<size_t> &Group,
                             const EnumerationParams &Params,
                             std::chrono::steady_clock::time_point Deadline,
                             std::vector<Frontier> &Out,
                             std::vector<long> &Effort) {
  long Nodes = Params.NodeBudget;
  long Seen = 0;
  double Lower = 0;
  double Upper = Params.InitialBudget;
  int Windows = 0;
  int WindowsSinceAllSolved = -1;
  bool Interrupted = false;
  const std::function<bool()> ShouldStop =
      makeShouldStop(Params, Deadline, Interrupted);
  ProductionFilterMemo Memo;

  // Folds one candidate (with its per-task likelihood row) into the
  // group's frontiers, in enumeration order.
  auto Fold = [&](ExprPtr P, double LogPrior, const double *Row) {
    ++Seen;
    for (size_t K = 0; K < Group.size(); ++K) {
      size_t I = Group[K];
      if (Row[K] == NegInf)
        continue;
      if (Out[I].empty() && Effort[I] < 0)
        Effort[I] = Seen;
      Out[I].record({P, LogPrior, Row[K]}, Params.FrontierSize);
    }
  };

  while (Lower < Params.MaxBudget && Nodes > 0 && !Interrupted) {
    ++Windows;
    searchWindow(
        Src, Tasks[Group.front()]->request(), Lower, Upper, Nodes, ShouldStop,
        Memo, Params.NumThreads, Group.size(),
        [&](size_t K, ExprPtr P) { return Tasks[Group[K]]->logLikelihood(P); },
        Fold);
    if (std::all_of(Group.begin(), Group.end(),
                    [&](size_t I) { return !Out[I].empty(); })) {
      if (WindowsSinceAllSolved < 0)
        WindowsSinceAllSolved = 0;
      else
        ++WindowsSinceAllSolved;
      if (WindowsSinceAllSolved >= Params.ExtraWindowsAfterSolution)
        break;
    }
    Lower = Upper;
    Upper += Params.BudgetStep;
  }

  EnumerationStats Stats;
  Stats.NodesExpanded = Params.NodeBudget - Nodes;
  Stats.ProgramsEnumerated = Seen;
  Stats.BudgetReached = Upper;
  Stats.Interrupted = Interrupted;
  recordSearchMetrics(Stats.NodesExpanded, Seen,
                      Seen * static_cast<long>(Group.size()), Windows, Upper);
  if (obs::Telemetry::enabled()) {
    obs::countAdd("enum.tasks_searched", static_cast<long>(Group.size()));
    if (Interrupted)
      obs::countAdd("enum.searches_interrupted");
    for (size_t I : Group)
      if (Effort[I] >= 0) {
        obs::countAdd("enum.tasks_solved");
        obs::observe("enum.effort_to_solve", static_cast<double>(Effort[I]));
      }
  }
  return Stats;
}

} // namespace

void dc::enumerateWindow(const EnumerationSource &Src, const TypePtr &Request,
                         double Lower, double Upper, long &Nodes,
                         const std::function<bool(ExprPtr, double)> &Emit,
                         const std::function<bool()> &ShouldStop,
                         ProductionFilterMemo *Memo) {
  Enumerator(Src, Nodes, ShouldStop, Lower, Emit, Memo).run(Request, Upper);
}

void EnumerationStats::merge(const EnumerationStats &Other) {
  NodesExpanded += Other.NodesExpanded;
  ProgramsEnumerated += Other.ProgramsEnumerated;
  BudgetReached = std::max(BudgetReached, Other.BudgetReached);
  EffortToSolve.insert(EffortToSolve.end(), Other.EffortToSolve.begin(),
                       Other.EffortToSolve.end());
  Interrupted = Interrupted || Other.Interrupted;
}

Frontier dc::solveTask(const EnumerationSource &Src, const TaskPtr &T,
                       const EnumerationParams &Params,
                       EnumerationStats *Stats) {
  obs::ScopedSpan Span("enum.solveTask");
  std::vector<Frontier> Out{Frontier(T)};
  std::vector<long> Effort{-1};
  EnumerationStats Total = searchGroup(Src, {T}, {0}, Params,
                                       deadlineFor(Params), Out, Effort);
  Total.EffortToSolve = std::move(Effort);
  if (Stats)
    Stats->merge(Total);
  return std::move(Out.front());
}

std::vector<Frontier> dc::solveTasks(const Grammar &G,
                                     const std::vector<TaskPtr> &Tasks,
                                     const EnumerationParams &Params,
                                     EnumerationStats *Stats) {
  std::vector<Frontier> Out;
  Out.reserve(Tasks.size());
  for (const TaskPtr &T : Tasks)
    Out.emplace_back(T);

  // Group tasks by request type so each distinct type is enumerated once.
  // The map's sorted iteration fixes the group order once; everything
  // below is indexed, never appended, by worker threads.
  std::map<std::string, std::vector<size_t>> ByType;
  for (size_t I = 0; I < Tasks.size(); ++I)
    ByType[canonicalize(Tasks[I]->request())->show()].push_back(I);
  std::vector<std::vector<size_t>> Groups;
  Groups.reserve(ByType.size());
  for (auto &[TypeKey, Indices] : ByType) {
    (void)TypeKey;
    Groups.push_back(std::move(Indices));
  }

  std::vector<long> Effort(Tasks.size(), -1);
  std::vector<EnumerationStats> GroupStats(Groups.size());
  // All groups share one wall-clock deadline anchored at entry (they run
  // concurrently, so a per-group anchor would overshoot the caller's
  // budget when groups outnumber workers).
  const std::chrono::steady_clock::time_point Deadline = deadlineFor(Params);
  // Distinct request types search independently in parallel; the group
  // bodies nest further candidate-testing parallelism inside.
  parallelFor(Params.NumThreads, Groups.size(), [&](size_t GI) {
    obs::ScopedSpan Span("enum.group");
    GroupStats[GI] =
        searchGroup(G, Tasks, Groups[GI], Params, Deadline, Out, Effort);
  });

  // Counters merge in fixed group order and efforts stay in task order,
  // so worker completion order never shows (the EffortToSolve/Tasks
  // alignment regression in EnumerationTest).
  EnumerationStats Total;
  for (const EnumerationStats &GS : GroupStats)
    Total.merge(GS);
  Total.EffortToSolve = std::move(Effort);
  if (Stats)
    Stats->merge(Total);
  return Out;
}
