//===- core/Sampling.cpp - Dream-phase fantasy generation -----------------===//

#include "core/Sampling.h"

#include "core/ThreadPool.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>

using namespace dc;

namespace {

/// Splitmix64-style finalizer: maps (base seed, attempt index) to an
/// independent, well-mixed per-attempt RNG so the fantasy stream depends
/// only on attempt indices, never on which thread ran which attempt.
std::mt19937 attemptRng(std::uint64_t Base, std::uint64_t Attempt) {
  std::uint64_t Z = Base + 0x9e3779b97f4a7c15ULL * (Attempt + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  Z = Z ^ (Z >> 31);
  return std::mt19937(static_cast<std::mt19937::result_type>(Z) ^
                      static_cast<std::mt19937::result_type>(Z >> 32));
}

} // namespace

TaskPtr dc::defaultFantasyTask(ExprPtr Program, const TaskPtr &Seed,
                               std::mt19937 &Rng) {
  (void)Rng;
  std::vector<Example> Examples;
  std::string Signature;
  for (const Example &Ex : Seed->examples()) {
    ValuePtr Out = runProgram(Program, Ex.Inputs, Seed->stepBudget());
    if (!Out)
      return nullptr;
    // Dreams whose outputs are functions or opaque objects cannot be
    // compared for the MAP grouping; discard them.
    if (Out->isCallable())
      return nullptr;
    Examples.push_back({Ex.Inputs, Out});
    Signature += Out->show() + ";";
  }
  if (Examples.empty())
    return nullptr;
  return std::make_shared<Task>("fantasy:" + Signature, Seed->request(),
                                std::move(Examples));
}

std::vector<Fantasy> dc::sampleFantasies(const Grammar &G,
                                         const std::vector<TaskPtr> &Seeds,
                                         int Count, std::mt19937 &Rng,
                                         bool MapVariant,
                                         const FantasyHook &Hook,
                                         int NumThreads) {
  std::vector<Fantasy> Out;
  if (Seeds.empty() || Count <= 0)
    return Out;
  obs::ScopedSpan Span("recognition.fantasies");

  // One draw from the caller's stream seeds the whole batch; every
  // attempt then gets attemptRng(Base, I), so the result is a pure
  // function of (grammar, seeds, Count, this draw) — not of NumThreads.
  const std::uint64_t Base =
      (static_cast<std::uint64_t>(Rng()) << 32) ^ Rng();

  // One sampling attempt; nullopt when sampling or execution fails.
  auto Attempt = [&](std::uint64_t I) -> std::optional<Fantasy> {
    obs::countAdd("sampling.fantasy_attempts");
    std::mt19937 ARng = attemptRng(Base, I);
    std::uniform_int_distribution<size_t> PickSeed(0, Seeds.size() - 1);
    const TaskPtr &Seed = Seeds[PickSeed(ARng)];
    ExprPtr P = G.sample(Seed->request(), ARng);
    if (!P)
      return std::nullopt;
    TaskPtr T = Hook(P, Seed, ARng);
    if (!T)
      return std::nullopt;
    double LogPrior = G.logLikelihood(T->request(), P);
    if (!(LogPrior > -1e17))
      return std::nullopt;
    return Fantasy{T, P, LogPrior};
  };

  // Keyed by task observation signature; value is the best fantasy so far.
  std::map<std::string, Fantasy> ByObservation;
  auto Enough = [&] {
    return MapVariant ? static_cast<int>(ByObservation.size()) >= Count
                      : static_cast<int>(Out.size()) >= Count;
  };
  auto Fold = [&](std::optional<Fantasy> &&R) {
    if (!R)
      return;
    if (!MapVariant) {
      Out.push_back(std::move(*R));
      return;
    }
    const std::string &Sig = R->T->name();
    auto It = ByObservation.find(Sig);
    if (It == ByObservation.end())
      ByObservation.emplace(Sig, std::move(*R));
    else if (R->LogPrior > It->second.LogPrior)
      It->second = std::move(*R); // MAP target: highest-prior equivalent
  };

  // Run attempts in chunks, then fold each chunk in index order. An
  // attempt's result is admitted exactly when Enough() was false after
  // folding every earlier attempt, so the output never depends on the
  // chunk size; at most one chunk of attempts is wasted past the stopping
  // point. One thread takes chunks of one attempt and so wastes none.
  const int Attempts = Count * 6; // sampling and execution both may fail
  const unsigned Threads = ThreadPool::resolveThreadCount(NumThreads);
  const int Chunk =
      Threads <= 1 ? 1 : std::max<int>(32, 4 * static_cast<int>(Threads));
  std::vector<std::optional<Fantasy>> Results;
  for (int Start = 0; Start < Attempts && !Enough(); Start += Chunk) {
    Results.clear();
    Results.resize(std::min(Attempts, Start + Chunk) - Start);
    parallelFor(NumThreads, Results.size(), [&](size_t J) {
      Results[J] = Attempt(static_cast<std::uint64_t>(Start) + J);
    });
    for (auto &R : Results) {
      if (Enough())
        break;
      Fold(std::move(R));
    }
  }

  if (MapVariant)
    for (auto &[Sig, F] : ByObservation) {
      (void)Sig;
      Out.push_back(std::move(F));
    }
  if (obs::Telemetry::enabled())
    obs::countAdd("sampling.fantasies_kept",
                  static_cast<long>(Out.size()));
  return Out;
}
