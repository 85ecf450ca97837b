//===- core/WakeSleep.cpp - The DreamCoder wake-sleep loop ----------------===//

#include "core/WakeSleep.h"

#include "core/LikelihoodSummary.h"
#include "core/ThreadPool.h"
#include "vs/VersionSpaceCache.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <optional>

using namespace dc;

const char *dc::variantName(SystemVariant V) {
  switch (V) {
  case SystemVariant::Full:
    return "DreamCoder";
  case SystemVariant::NoRecognition:
    return "No Recognition";
  case SystemVariant::NoAbstraction:
    return "No Abstraction";
  case SystemVariant::MemorizeNoRec:
    return "Memorize";
  case SystemVariant::MemorizeRec:
    return "Memorize+Rec";
  case SystemVariant::Ec:
    return "EC";
  case SystemVariant::Ec2:
    return "EC2 (batched)";
  case SystemVariant::EnumerationOnly:
    return "Enumeration";
  }
  return "?";
}

int WakeSleepResult::trainSolved() const {
  int N = 0;
  for (const Frontier &F : TrainFrontiers)
    N += !F.empty();
  return N;
}

namespace {

bool usesRecognition(SystemVariant V) {
  return V == SystemVariant::Full || V == SystemVariant::NoAbstraction ||
         V == SystemVariant::MemorizeRec || V == SystemVariant::Ec2;
}

bool usesCompression(SystemVariant V) {
  return V == SystemVariant::Full || V == SystemVariant::NoRecognition ||
         V == SystemVariant::Ec || V == SystemVariant::Ec2;
}

bool usesMemorize(SystemVariant V) {
  return V == SystemVariant::MemorizeNoRec ||
         V == SystemVariant::MemorizeRec;
}

/// Times one wake-sleep phase: emits a trace span named
/// "<phase>" and a per-cycle wall-time gauge
/// "wakesleep.cycle.<N>.<phase>_seconds". Inert while telemetry is off
/// (no clock reads), and write-only by contract — phase timing never
/// feeds back into the loop.
class PhaseTimer {
public:
  PhaseTimer(const char *Phase, int Cycle) : Phase(Phase), Cycle(Cycle) {
    if (obs::Telemetry::enabled()) {
      Start = obs::Tracer::global().begin();
      Active = true;
    }
  }
  ~PhaseTimer() {
    if (!Active)
      return;
    int64_t Dur = obs::Tracer::global().nowMicros() - Start;
    obs::Tracer::global().end(Phase, Start);
    obs::gaugeSet("wakesleep.cycle." + std::to_string(Cycle) + "." +
                      Phase + "_seconds",
                  static_cast<double>(Dur) / 1e6);
  }
  PhaseTimer(const PhaseTimer &) = delete;
  PhaseTimer &operator=(const PhaseTimer &) = delete;

private:
  std::string Phase;
  int Cycle;
  int64_t Start = 0;
  bool Active = false;
};

/// The memorize baseline (cf. [8]): every solved task's best program is
/// added to the library wholesale; weights are refit on the frontiers.
Grammar memorizeSolutions(const Grammar &G,
                          const std::vector<Frontier> &Frontiers,
                          const CompressionParams &Params) {
  Grammar Out = G;
  for (const Frontier &F : Frontiers) {
    if (F.empty())
      continue;
    ExprPtr Best = F.best()->Program;
    if (!Best->isClosed() || Best->isLeafLike() || !Best->inferType())
      continue;
    Out.addProduction(Expr::invented(Best));
  }
  libraryScore(Out, Frontiers, Params); // refit θ in place
  return Out;
}

} // namespace

namespace {

/// The wake search over \p Tasks. Without a model, one shared enumeration
/// under \p G per request type. With one, recognition-era search: the
/// task-conditioned bigram grammar drives a per-task enumeration with half
/// the node budget; tasks it leaves unsolved fall back to a shared
/// generative-grammar enumeration with the other half. (The paper gives the
/// recognition model the full per-task timeout on a cluster; at this
/// reproduction's reduced training scale a noisy Q would otherwise forfeit
/// the shared-stream advantage of same-type tasks — see DESIGN.md.)
/// \p Stats gets the counters, EffortToSolve aligned with \p Tasks.
std::vector<Frontier> wakeSearch(const Grammar &G,
                                 const RecognitionModel *Model,
                                 const std::vector<TaskPtr> &Tasks,
                                 const EnumerationParams &Search,
                                 EnumerationStats &Stats) {
  if (!Model)
    return solveTasks(G, Tasks, Search, &Stats);
  EnumerationParams Half = Search;
  Half.NodeBudget = std::max<long>(1, Search.NodeBudget / 2);

  // Guided searches are independent per task; each worker predicts its
  // own guide (predict() is const and thread-safe — activations live in a
  // per-call workspace) and writes only its own Out/Guided slot. Stats
  // merge in task order below so worker completion order never shows.
  std::vector<Frontier> Out(Tasks.size());
  std::vector<EnumerationStats> Guided(Tasks.size());
  parallelFor(Search.NumThreads, Tasks.size(), [&](size_t I) {
    Out[I] = solveTask(Model->predict(*Tasks[I]), Tasks[I], Half, &Guided[I]);
  });
  EnumerationStats Total;
  for (const EnumerationStats &S : Guided)
    Total.merge(S);

  std::vector<TaskPtr> Unsolved;
  std::vector<size_t> UnsolvedIdx;
  for (size_t I = 0; I < Tasks.size(); ++I)
    if (Out[I].empty()) {
      Unsolved.push_back(Tasks[I]);
      UnsolvedIdx.push_back(I);
    }
  if (!Unsolved.empty()) {
    EnumerationStats Fallback;
    std::vector<Frontier> Fs = solveTasks(G, Unsolved, Half, &Fallback);
    for (size_t K = 0; K < UnsolvedIdx.size(); ++K) {
      Out[UnsolvedIdx[K]] = std::move(Fs[K]);
      Total.EffortToSolve[UnsolvedIdx[K]] = Fallback.EffortToSolve[K];
    }
    Fallback.EffortToSolve.clear(); // already placed at their tasks
    Total.merge(Fallback);
  }
  Stats.merge(Total);
  return Out;
}

} // namespace

std::pair<int, std::vector<long>>
dc::evaluateTasks(const Grammar &G, const RecognitionModel *Model,
                  const std::vector<TaskPtr> &Tasks,
                  const EnumerationParams &Search) {
  EnumerationStats Stats;
  int Solved = 0;
  for (const Frontier &F : wakeSearch(G, Model, Tasks, Search, Stats))
    Solved += !F.empty();
  return {Solved, Stats.EffortToSolve};
}

WakeSleepResult dc::runWakeSleep(const DomainSpec &Domain,
                                 const WakeSleepConfig &Config) {
  WakeSleepResult Result;
  Result.FinalGrammar = Grammar::uniform(Domain.BasePrimitives);
  Result.TestTaskCount = static_cast<int>(Domain.TestTasks.size());
  Result.TrainFrontiers.reserve(Domain.TrainTasks.size());
  for (const TaskPtr &T : Domain.TrainTasks)
    Result.TrainFrontiers.emplace_back(T);

  std::mt19937 Rng(Config.Seed);
  // Trained by dreaming, so only variants that use recognition get one;
  // wake and test evaluation search under it once it exists.
  std::unique_ptr<RecognitionModel> Model;
  EnumerationParams Search = Domain.Search;
  Search.NumThreads = Config.NumThreads;
  Search.WallTimeoutSeconds = Config.WakeTimeoutSeconds;

  for (int Cycle = 0; Cycle < Config.Iterations; ++Cycle) {
    CycleMetrics Metrics;
    Metrics.Cycle = Cycle;

    // One timer spans each phase; emplace closes the previous phase's
    // span before opening the next.
    std::optional<PhaseTimer> Phase;

    // ---- Wake: random minibatch of training tasks ----------------------
    Phase.emplace("wake", Cycle);
    std::vector<size_t> Order(Domain.TrainTasks.size());
    std::iota(Order.begin(), Order.end(), 0);
    std::shuffle(Order.begin(), Order.end(), Rng);
    size_t BatchSize = Config.MinibatchSize > 0
                           ? std::min(Order.size(),
                                      static_cast<size_t>(
                                          Config.MinibatchSize))
                           : Order.size();
    std::vector<size_t> Batch(Order.begin(), Order.begin() + BatchSize);

    std::vector<TaskPtr> Tasks;
    for (size_t I : Batch)
      Tasks.push_back(Domain.TrainTasks[I]);
    EnumerationStats Stats;
    std::vector<Frontier> Fs =
        wakeSearch(Result.FinalGrammar, Model.get(), Tasks, Search, Stats);
    Metrics.WakeNodesExpanded += Stats.NodesExpanded;
    Metrics.SolveEffort = Stats.EffortToSolve;
    for (size_t B = 0; B < Batch.size(); ++B)
      for (const FrontierEntry &E : Fs[B].entries()) {
        if (!Model) {
          Result.TrainFrontiers[Batch[B]].record(E);
          continue;
        }
        // Store the generative-prior score, not the recognition score, so
        // compression sees P[ρ|D,θ].
        double Prior =
            Result.FinalGrammar.logLikelihood(Tasks[B]->request(), E.Program);
        if (Prior > -1e17)
          Result.TrainFrontiers[Batch[B]].record(
              {E.Program, Prior, E.LogLikelihood});
      }

    // ---- Sleep: abstraction ---------------------------------------------
    Phase.emplace("abstraction", Cycle);
    if (Config.Variant != SystemVariant::EnumerationOnly) {
      std::vector<Frontier> Solved;
      std::vector<size_t> SolvedIdx;
      for (size_t I = 0; I < Result.TrainFrontiers.size(); ++I) {
        // Keep priors aligned with the current grammar.
        Result.TrainFrontiers[I].rescore(Result.FinalGrammar);
        if (!Result.TrainFrontiers[I].empty()) {
          Solved.push_back(Result.TrainFrontiers[I]);
          SolvedIdx.push_back(I);
        }
      }
      // The sleep phase shares the wake phase's thread knob; results are
      // identical at every setting (see DESIGN.md, threading model).
      CompressionParams CP = Config.Compress;
      CP.NumThreads = Config.NumThreads;
      if (usesCompression(Config.Variant)) {
        if (Config.Variant == SystemVariant::Ec ||
            Config.Variant == SystemVariant::Ec2)
          CP.RefactorSteps = 0; // subtree proposals only
        CompressionResult CR =
            compressLibrary(Result.FinalGrammar, Solved, CP);
        Result.FinalGrammar = CR.NewGrammar;
        for (size_t S = 0; S < SolvedIdx.size(); ++S)
          Result.TrainFrontiers[SolvedIdx[S]] = CR.RewrittenFrontiers[S];
      } else if (usesMemorize(Config.Variant)) {
        Result.FinalGrammar =
            memorizeSolutions(Result.FinalGrammar, Solved, CP);
        for (size_t I = 0; I < Result.TrainFrontiers.size(); ++I)
          Result.TrainFrontiers[I].rescore(Result.FinalGrammar);
      } else {
        // Recognition-only: still refit θ on what waking found.
        libraryScore(Result.FinalGrammar, Solved, CP);
      }
    }

    // ---- Sleep: dreaming -------------------------------------------------
    Phase.emplace("dreaming", Cycle);
    if (usesRecognition(Config.Variant)) {
      RecognitionParams RP = Config.Recog;
      RP.Seed = Config.Seed + 77 * Cycle + 1;
      RP.NumThreads = Config.NumThreads;
      if (Config.Variant == SystemVariant::Ec2) {
        RP.Bigram = false;       // EC2 uses a unigram parameterization
        RP.MapObjective = false; // ... trained on the full posterior
      }
      Model = std::make_unique<RecognitionModel>(Result.FinalGrammar,
                                                 *Domain.Featurizer, RP);
      Model->train(Result.TrainFrontiers, Domain.TrainTasks, Domain.Hook);
    }

    // ---- Metrics ----------------------------------------------------------
    Phase.emplace("evaluate", Cycle);
    Metrics.TrainSolvedCumulative = Result.trainSolved();
    Metrics.LibrarySize = static_cast<int>(
        Result.FinalGrammar.productions().size());
    Metrics.LibraryDepth = Result.FinalGrammar.libraryDepth();
    bool LastCycle = Cycle + 1 == Config.Iterations;
    if ((Config.EvaluateTestEachCycle || LastCycle) &&
        !Domain.TestTasks.empty()) {
      auto [Solved, Efforts] = evaluateTasks(
          Result.FinalGrammar, Model.get(), Domain.TestTasks, Search);
      Metrics.TestSolved = Solved;
      if (LastCycle) {
        Result.FinalTestSolved = Solved;
        Result.FinalTestEffort = Efforts;
      }
    }
    Phase.reset();
    // Mirror every CycleMetrics field into the registry so JSON exports
    // carry the full per-cycle story. Write-only: nothing below is read
    // back by the loop.
    if (obs::Telemetry::enabled()) {
      obs::MetricsRegistry &R = obs::MetricsRegistry::global();
      const std::string Prefix =
          "wakesleep.cycle." + std::to_string(Cycle) + ".";
      R.counter("wakesleep.cycles").add(1);
      R.counter("wake.nodes_expanded").add(Metrics.WakeNodesExpanded);
      R.gauge(Prefix + "train_solved_cumulative")
          .set(Metrics.TrainSolvedCumulative);
      R.gauge(Prefix + "test_solved").set(Metrics.TestSolved);
      R.gauge(Prefix + "library_size").set(Metrics.LibrarySize);
      R.gauge(Prefix + "library_depth").set(Metrics.LibraryDepth);
      // Cumulative shard-cache health across all sleeps so far; the
      // per-event hit/miss/eviction counters live under vs_cache.*.
      VersionSpaceCache::Stats VS = VersionSpaceCache::global().stats();
      R.gauge(Prefix + "vs_cache_entries")
          .set(static_cast<double>(VS.Entries));
      R.gauge(Prefix + "vs_cache_nodes").set(static_cast<double>(VS.Nodes));
      R.gauge(Prefix + "vs_cache_hits").set(static_cast<double>(VS.Hits));
      R.gauge(Prefix + "vs_cache_misses")
          .set(static_cast<double>(VS.Misses));
      R.gauge(Prefix + "wake_nodes_expanded")
          .set(static_cast<double>(Metrics.WakeNodesExpanded));
      for (long E : Metrics.SolveEffort) {
        if (E >= 0)
          R.histogram("wakesleep.solve_effort")
              .observe(static_cast<double>(E));
        else
          R.counter("wakesleep.batch_unsolved").add(1);
      }
    }
    if (Config.Verbose)
      std::fprintf(stderr,
                   "[%s] cycle %d: train %d/%zu, test %d/%zu, library %d "
                   "(depth %d)\n",
                   variantName(Config.Variant), Cycle,
                   Metrics.TrainSolvedCumulative, Domain.TrainTasks.size(),
                   Metrics.TestSolved, Domain.TestTasks.size(),
                   Metrics.LibrarySize, Metrics.LibraryDepth);
    Result.Cycles.push_back(std::move(Metrics));
  }

  if (Domain.TestTasks.empty()) {
    Result.FinalTestSolved = 0;
    Result.TestTaskCount = 0;
  }
  return Result;
}
