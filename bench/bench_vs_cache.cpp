//===- bench/bench_vs_cache.cpp - Content-addressed shard cache gate ------===//
//
// Wall-clock effect of the version-space cache on abstraction sleep, plus
// the determinism gate for this PR's caching work: compression must be
// bit-identical with caching on and off, cold and warm, at 1, 4, and 8
// threads. The workload is many-similar-beams — many frontiers drawing
// their entries from a small pool of programs, the shape wake produces
// when related tasks converge on shared idioms — run for two consecutive
// sleeps, the steady-state pattern the cache exists for (untouched beams
// recur across greedy rounds and across wake-sleep cycles).
//
// Exits nonzero when any fingerprint diverges or when the cached run is
// not at least DC_VS_CACHE_MIN_SPEEDUP (default 1.3) times faster than
// the uncached run, each timed as the best of three alternating
// repetitions. tools/check_bench.py additionally compares the
// fingerprint note below against the committed baseline, so a
// nondeterminism regression fails CI even if it is self-consistent
// within one run.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "core/Primitives.h"
#include "core/ProgramParser.h"
#include "vs/Compression.h"
#include "vs/VersionSpaceCache.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

using namespace dc;
using namespace dcbench;

namespace {

/// The distinct-program pool: overlapping idioms (double, square,
/// increment, clamp-to-zero) so compression adopts several inventions
/// over multiple greedy rounds.
const char *poolSources[] = {
    "(lambda (map (lambda (+ $0 $0)) $0))",
    "(lambda (map (lambda (+ $0 $0)) (cdr $0)))",
    "(lambda (cons (+ (car $0) (car $0)) nil))",
    "(lambda (map (lambda (+ $0 $0)) (map (lambda (+ $0 $0)) $0)))",
    "(lambda (map (lambda (* $0 $0)) $0))",
    "(lambda (map (lambda (* $0 $0)) (cdr $0)))",
    "(lambda (cons (* (car $0) (car $0)) nil))",
    "(lambda (map (lambda (+ $0 1)) $0))",
    "(lambda (map (lambda (+ $0 1)) (map (lambda (+ $0 1)) $0)))",
    "(lambda (map (lambda (- $0 1)) $0))",
    "(lambda (map (lambda (if (> $0 0) $0 0)) $0))",
    "(lambda (map (lambda (if (> $0 0) $0 0)) (cdr $0)))",
    "(lambda (map (lambda (* (+ $0 $0) $0)) $0))",
    "(lambda (map (lambda (+ (* $0 $0) 1)) $0))",
    "(lambda (map (lambda (- (* $0 $0) $0)) $0))",
    "(lambda (map (lambda (+ $0 $0)) (map (lambda (* $0 $0)) $0)))",
};

/// Many-similar-beams corpus: \p NumBeams frontiers, each holding three
/// entries drawn cyclically from the pool, so nearly every program is
/// structurally identical to entries of other frontiers.
std::vector<Frontier> buildCorpus(const Grammar &G, int NumBeams) {
  const int PoolSize = static_cast<int>(std::size(poolSources));
  std::vector<ExprPtr> Pool;
  for (const char *Src : poolSources) {
    ExprPtr P = parseProgram(Src);
    if (!P) {
      std::fprintf(stderr, "bad corpus program: %s\n", Src);
      std::exit(1);
    }
    Pool.push_back(P);
  }
  TypePtr Req = Type::arrow(tList(tInt()), tList(tInt()));
  std::vector<Frontier> Fs;
  for (int B = 0; B < NumBeams; ++B) {
    auto T = std::make_shared<Task>("beam" + std::to_string(B), Req,
                                    std::vector<Example>{});
    Frontier F(T);
    for (int E = 0; E < 3; ++E) {
      ExprPtr P = Pool[(B + E * 5) % PoolSize];
      F.record({P, G.logLikelihood(Req, P), 0.0});
    }
    Fs.push_back(std::move(F));
  }
  return Fs;
}

/// Byte-exact signature of everything compressLibrary promises to keep
/// deterministic: inventions, grammar weights, rewritten beams, scores.
std::string resultFingerprint(const CompressionResult &R) {
  char Buf[64];
  std::string Sig;
  for (ExprPtr Inv : R.NewInventions)
    Sig += Inv->show() + ";";
  for (const Production &P : R.NewGrammar.productions()) {
    std::snprintf(Buf, sizeof(Buf), "%.17g", P.LogWeight);
    Sig += P.Program->show() + "=" + Buf + ";";
  }
  for (const Frontier &F : R.RewrittenFrontiers)
    for (const FrontierEntry &E : F.entries()) {
      std::snprintf(Buf, sizeof(Buf), "%.17g", E.LogPrior);
      Sig += E.Program->show() + "@" + Buf + ";";
    }
  std::snprintf(Buf, sizeof(Buf), "%.17g/%.17g", R.InitialScore,
                R.FinalScore);
  Sig += Buf;
  return Sig;
}

/// FNV-1a 64 over the fingerprint string: stable across platforms and
/// standard libraries (std::hash is not), so baselines can pin it.
std::string fnv1a(const std::string &S) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(H));
  return Buf;
}

/// Two consecutive sleeps over the same corpus — the cross-cycle reuse
/// pattern. Returns the second result (both are fingerprint-checked by
/// the caller through this same function).
CompressionResult runTwoSleeps(const Grammar &G,
                               const std::vector<Frontier> &Corpus,
                               const CompressionParams &Params) {
  compressLibrary(G, Corpus, Params);
  return compressLibrary(G, Corpus, Params);
}

} // namespace

int main() {
  dcbench::JsonReport Report("vs_cache");
  banner("Content-addressed version-space cache");

  std::vector<ExprPtr> Core = prims::functionalCore();
  std::vector<ExprPtr> Extra = prims::arithmeticExtras();
  Core.insert(Core.end(), Extra.begin(), Extra.end());
  Grammar G = Grammar::uniform(Core);
  std::vector<Frontier> Corpus = buildCorpus(G, 48);
  row("corpus beams", static_cast<double>(Corpus.size()));
  row("distinct programs", static_cast<double>(std::size(poolSources)));

  CompressionParams Params;
  Params.StructurePenalty = 0.5;
  Params.NumThreads = threadsFromEnv();

  // ---- Wall clock: two sleeps uncached vs two sleeps cached -------------
  // Each side is the best of three repetitions, uncached and cached runs
  // alternating and the cache cleared before each cached one, so one slow
  // stretch of a noisy host cannot fail the speedup gate on its own.
  VersionSpaceCache &Cache = VersionSpaceCache::global();
  constexpr int TimedRepetitions = 3;
  double UncachedSec = 0, CachedSec = 0;
  CompressionResult Uncached, Cached;
  VersionSpaceCache::Stats CS;
  for (int Rep = 0; Rep < TimedRepetitions; ++Rep) {
    Params.UseVsCache = false;
    WallTimer UncachedTimer;
    Uncached = runTwoSleeps(G, Corpus, Params);
    const double U = UncachedTimer.seconds();
    UncachedSec = Rep ? std::min(UncachedSec, U) : U;

    Cache.clear();
    Cache.resetStats();
    Params.UseVsCache = true;
    WallTimer CachedTimer;
    Cached = runTwoSleeps(G, Corpus, Params);
    const double C = CachedTimer.seconds();
    CachedSec = Rep ? std::min(CachedSec, C) : C;
    CS = Cache.stats();
  }

  row("inventions adopted",
      static_cast<double>(Uncached.NewInventions.size()));
  for (ExprPtr Inv : Uncached.NewInventions)
    note("  " + Inv->show());
  row("uncached (two sleeps)", UncachedSec, "s");
  row("cached (two sleeps)", CachedSec, "s");
  note("(each timing: best of " + std::to_string(TimedRepetitions) +
       " alternating repetitions)");
  const double Speedup = CachedSec > 0 ? UncachedSec / CachedSec : 0;
  row("speedup", Speedup, "x");
  row("shard cache hits", static_cast<double>(CS.Hits));
  row("shard cache misses", static_cast<double>(CS.Misses));
  row("shard cache evictions", static_cast<double>(CS.Evictions));

  // ---- Determinism gate: {1,4,8} threads x {off, cold, warm} -----------
  const std::string Reference = resultFingerprint(Uncached);
  bool Identical = resultFingerprint(Cached) == Reference;
  for (int Threads : {1, 4, 8}) {
    Params.NumThreads = Threads;
    Params.UseVsCache = false;
    Identical &= resultFingerprint(runTwoSleeps(G, Corpus, Params)) ==
                 Reference;
    Params.UseVsCache = true;
    Cache.clear(); // cold start...
    Identical &= resultFingerprint(runTwoSleeps(G, Corpus, Params)) ==
                 Reference;
    // ... and warm reuse of whatever the cold pass left behind.
    Identical &= resultFingerprint(runTwoSleeps(G, Corpus, Params)) ==
                 Reference;
  }
  note(Identical ? "compression results identical at 1/4/8 threads, "
                   "cache off/cold/warm (determinism)"
                 : "ERROR: compression results differ across thread "
                   "counts or cache states");
  // Pinned by tools/check_bench.py against bench/baselines/: a
  // self-consistent but baseline-divergent result still fails CI.
  note("determinism fingerprint: " + fnv1a(Reference));
  if (!Identical)
    return 1;

  // ---- Speedup gate ----------------------------------------------------
  const char *MinEnv = std::getenv("DC_VS_CACHE_MIN_SPEEDUP");
  const double MinSpeedup = MinEnv ? std::atof(MinEnv) : 1.3;
  if (Speedup < MinSpeedup) {
    note("ERROR: cached speedup " + std::to_string(Speedup) +
         "x below required " + std::to_string(MinSpeedup) + "x");
    return 1;
  }
  note("(set DC_THREADS for the timed section's thread count; set");
  note(" DC_VS_CACHE_MIN_SPEEDUP to tune the speedup gate)");
  return 0;
}
