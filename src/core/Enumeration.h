//===- core/Enumeration.h - Type-directed enumerative search --------------===//
//
// Part of the DreamCoder C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wake-phase search: enumerate programs of a requested type in decreasing
/// prior probability (equivalently, increasing description length in nats),
/// by iterative deepening over description-length windows [L, U) — the
/// strategy of the original OCaml solver. The same enumerator serves the
/// unigram generative grammar and the bigram recognition model through the
/// EnumerationSource interface.
///
/// The paper budgets search by wall-clock timeout on a cluster; this
/// reproduction budgets by candidate-expansion count ("nodes") and a maximum
/// description length, which is deterministic and machine-independent (see
/// DESIGN.md, substitutions).
///
//===----------------------------------------------------------------------===//

#ifndef DC_CORE_ENUMERATION_H
#define DC_CORE_ENUMERATION_H

#include "core/Grammar.h"
#include "core/Task.h"

namespace dc {

class CancellationToken;

/// Search-budget knobs for one wake phase.
struct EnumerationParams {
  double InitialBudget = 8.0; ///< first description-length window upper bound
  double BudgetStep = 1.5;    ///< window width for iterative deepening
  double MaxBudget = 18.0;    ///< give up beyond this description length
  long NodeBudget = 300000;   ///< candidate expansions per task (or group)
  int FrontierSize = 5;       ///< beam size |B_x| (paper uses 5)
  /// After the first window that solves the task, search this many more
  /// windows to diversify the beam before stopping.
  int ExtraWindowsAfterSolution = 0;
  /// Worker threads for the wake phase (the paper parallelizes search
  /// across 20-64 CPUs): 0 = one per hardware core, 1 = everything on
  /// the calling thread, N = at most N threads. Budget
  /// accounting stays per-task/per-group and results are merged in task
  /// order, so frontiers and stats are bit-identical at every setting
  /// (DESIGN.md, threading model).
  int NumThreads = 1;
  /// Wall-clock budget for one search call in seconds (0 = off, the
  /// default). When set, the enumerator polls the clock every few hundred
  /// candidate expansions and abandons the search once the deadline
  /// passes — this is the paper's per-task cluster timeout, and what
  /// dc_serve uses to honor request deadlines. A wall-clock bound trades
  /// determinism for latency: whether a window completes now depends on
  /// machine speed, so results are only reproducible with the timeout
  /// off (the node/description-length budgets above remain the
  /// deterministic default).
  double WallTimeoutSeconds = 0;
  /// Optional cooperative cancellation (core/ThreadPool.h): polled at the
  /// same candidate-batch granularity as the deadline; cancelling stops
  /// the search early with whatever the frontier holds so far. Not owned.
  CancellationToken *Cancel = nullptr;
};

/// Cumulative effort statistics for one search.
struct EnumerationStats {
  long NodesExpanded = 0;
  long ProgramsEnumerated = 0;
  double BudgetReached = 0;
  /// Programs enumerated before each task's first solution (search-effort
  /// analog of the paper's solve times; -1 when unsolved).
  std::vector<long> EffortToSolve;
  /// True when some search stopped early because its wall-clock deadline
  /// expired or its CancellationToken was cancelled (never set while both
  /// knobs are off, so the deterministic path is unaffected).
  bool Interrupted = false;

  /// Folds \p Other into this: counters add, BudgetReached maxes, and
  /// Other's EffortToSolve entries append in order. Parallel solvers keep
  /// one local EnumerationStats per task (or group) and merge them in
  /// task order after every worker has finished, so EffortToSolve stays
  /// aligned with the task list no matter which worker completed first.
  void merge(const EnumerationStats &Other);
};

/// Enumerates every program of type \p Request whose description length
/// (negative log prior under \p Src) lies in [\p Lower, \p Upper), invoking
/// \p Emit with the program and its log prior. Stops early when \p Nodes
/// reaches zero. \p Emit returns false to abort the search. When
/// \p ShouldStop is non-empty it is polled every few hundred candidate
/// expansions (deadline / cancellation checks live there); returning true
/// aborts the window. \p Memo, when not null, is the search's production
/// filter (see ProductionFilterMemo): windows of one search under one
/// \p Src may share it, and the programs and priors are the same with or
/// without it.
void enumerateWindow(const EnumerationSource &Src, const TypePtr &Request,
                     double Lower, double Upper, long &Nodes,
                     const std::function<bool(ExprPtr, double)> &Emit,
                     const std::function<bool()> &ShouldStop = {},
                     ProductionFilterMemo *Memo = nullptr);

/// Searches for solutions to a single task under \p Src (typically the
/// task-conditioned bigram grammar from the recognition model).
Frontier solveTask(const EnumerationSource &Src, const TaskPtr &T,
                   const EnumerationParams &Params,
                   EnumerationStats *Stats = nullptr);

/// Searches for solutions to many tasks under one shared grammar,
/// enumerating once per distinct request type and testing each candidate
/// program against every task of that type (the paper's shared-grammar
/// wake phase). Returns one frontier per task, aligned with \p Tasks.
std::vector<Frontier> solveTasks(const Grammar &G,
                                 const std::vector<TaskPtr> &Tasks,
                                 const EnumerationParams &Params,
                                 EnumerationStats *Stats = nullptr);

} // namespace dc

#endif // DC_CORE_ENUMERATION_H
