//===- bench/bench_topdown.cpp - Top-down compression backend gate --------===//
//
// Wall-clock and quality gate for the top-down proposal backend
// (DESIGN.md §10) against the version-space path on a many-similar-beams
// corpus — the closure-heavy shape the top-down proposer exists for.
//
// Exits nonzero when:
//  * top-down proposal is not at least DC_TOPDOWN_MIN_SPEEDUP (default
//    2.0) times faster than the version-space proposal phase (building
//    the per-program β-closure shards — the cost MaxVersionNodes exists
//    to contain, and strictly less than the full vs proposal pipeline:
//    merge, coverage counting, ranking and extraction come on top), or
//  * the top-down sleep lands on a worse final score than the
//    version-space sleep (on this corpus the vs MaxCandidates cut
//    drowns in generic closure nodes, so top-down must win or tie), or
//  * the top-down result varies across 1/4/8 scoring threads.
//
// tools/check_bench.py additionally pins the fingerprint note against
// bench/baselines/BENCH_topdown.json, so a determinism regression fails
// CI even when it is self-consistent within one run. (Exact top-down ==
// version-space bit-identity is the differential harness's contract on
// corpora where the vs candidate cut is not saturated — gated by
// tests/vs/TopDownTest.cpp, not here.)
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "core/Primitives.h"
#include "core/ProgramParser.h"
#include "vs/Compression.h"
#include "vs/TopDown.h"
#include "vs/VersionSpaceCache.h"

#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

using namespace dc;
using namespace dcbench;

namespace {

/// Same distinct-program pool as bench_vs_cache: overlapping idioms so
/// compression adopts several inventions over multiple greedy rounds.
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

/// FNV-1a 64 over the fingerprint string (std::hash is not portable).
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

} // namespace

int main() {
  dcbench::JsonReport Report("topdown");
  banner("Top-down compression backend");

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

  // ---- Proposal wall clock: pattern growth vs closure-shard building ---
  // The version-space side is timed on exactly what a version-space round
  // does before any candidate exists: build the ≤n-step β-closure shard
  // of every distinct beam program. Everything after (absorb-merge,
  // per-node task coverage, ranking, extraction) only adds to its bill.
  double TdProposeSec = 0;
  {
    TopDownStats Stats;
    WallTimer ProposeTimer;
    std::vector<CompressionCandidate> Cands =
        proposeTopDown(G, Corpus, Params, &Stats);
    TdProposeSec = ProposeTimer.seconds();
    row("topdown proposal (one round)", TdProposeSec, "s");
    row("topdown candidates", static_cast<double>(Cands.size()));
    row("topdown states expanded",
        static_cast<double>(Stats.StatesExpanded));
  }
  double VsProposeSec = 0;
  {
    std::vector<ExprPtr> Distinct;
    {
      std::unordered_map<ExprPtr, size_t> Slot;
      for (const Frontier &F : Corpus)
        for (const FrontierEntry &E : F.entries())
          if (Slot.emplace(E.Program, Distinct.size()).second)
            Distinct.push_back(E.Program);
    }
    size_t ClosureNodes = 0;
    WallTimer ShardTimer;
    for (ExprPtr P : Distinct)
      ClosureNodes += VsClosureShard::build(P, Params.RefactorSteps)->nodes();
    VsProposeSec = ShardTimer.seconds();
    row("vs closure shards (one round)", VsProposeSec, "s");
    row("vs closure nodes", static_cast<double>(ClosureNodes));
  }
  const double ProposeSpeedup =
      TdProposeSec > 0 ? VsProposeSec / TdProposeSec : 0;
  row("proposal speedup", ProposeSpeedup, "x");

  // ---- Wall clock: one full sleep per backend (informational) ----------
  VersionSpaceCache::global().clear();
  Params.Backend = CompressionBackend::VersionSpace;
  WallTimer VsTimer;
  CompressionResult Vs = compressLibrary(G, Corpus, Params);
  const double VsSec = VsTimer.seconds();

  Params.Backend = CompressionBackend::TopDown;
  WallTimer TdTimer;
  CompressionResult Td = compressLibrary(G, Corpus, Params);
  const double TdSec = TdTimer.seconds();

  row("inventions adopted", static_cast<double>(Td.NewInventions.size()));
  for (ExprPtr Inv : Td.NewInventions)
    note("  " + Inv->show());
  row("version-space sleep", VsSec, "s");
  row("top-down sleep", TdSec, "s");
  row("vs final score", Vs.FinalScore);
  row("topdown final score", Td.FinalScore);

  // ---- Quality gate: top-down must win or tie the Eq. 4 objective ------
  bool AtLeastAsGood = Td.FinalScore >= Vs.FinalScore;
  note(AtLeastAsGood
           ? "top-down final score >= version-space (quality)"
           : "ERROR: top-down landed on a worse library than "
             "version-space");

  // ---- Determinism gate: identical result at 1/4/8 scoring threads -----
  const std::string Reference = resultFingerprint(Td);
  bool Identical = true;
  for (int Threads : {1, 4, 8}) {
    Params.NumThreads = Threads;
    Identical &= resultFingerprint(compressLibrary(G, Corpus, Params)) ==
                 Reference;
  }
  note(Identical ? "top-down results identical at 1/4/8 scoring threads "
                   "(determinism)"
                 : "ERROR: top-down results differ across thread counts");
  // Pinned by tools/check_bench.py against bench/baselines/: a
  // self-consistent but baseline-divergent result still fails CI.
  note("determinism fingerprint: " + fnv1a(Reference));
  if (!Identical || !AtLeastAsGood)
    return 1;

  // ---- Speedup gate ----------------------------------------------------
  const char *MinEnv = std::getenv("DC_TOPDOWN_MIN_SPEEDUP");
  const double MinSpeedup = MinEnv ? std::atof(MinEnv) : 2.0;
  if (ProposeSpeedup < MinSpeedup) {
    note("ERROR: top-down proposal speedup " +
         std::to_string(ProposeSpeedup) + "x below required " +
         std::to_string(MinSpeedup) + "x");
    return 1;
  }
  note("(set DC_THREADS for the scoring thread count; set");
  note(" DC_TOPDOWN_MIN_SPEEDUP to tune the proposal speedup gate)");
  return 0;
}
