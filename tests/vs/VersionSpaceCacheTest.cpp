//===- tests/vs/VersionSpaceCacheTest.cpp - Shard cache unit tests --------===//

#include "vs/VersionSpaceCache.h"

#include "core/Primitives.h"
#include "core/ProgramParser.h"
#include "vs/Compression.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

using namespace dc;

namespace {

class VersionSpaceCacheTest : public ::testing::Test {
protected:
  void SetUp() override {
    std::vector<ExprPtr> Core = prims::functionalCore();
    std::vector<ExprPtr> Extra = prims::arithmeticExtras();
    Core.insert(Core.end(), Extra.begin(), Extra.end());
    G = Grammar::uniform(Core);
  }

  ExprPtr parse(const char *Src) {
    ExprPtr P = parseProgram(Src);
    EXPECT_NE(P, nullptr) << Src;
    return P;
  }

  Frontier solvedFrontier(const std::string &Name, const std::string &Src,
                          TypePtr Request) {
    ExprPtr P = parseProgram(Src);
    EXPECT_NE(P, nullptr) << Src;
    auto T = std::make_shared<Task>(Name, Request, std::vector<Example>{});
    Frontier F(T);
    F.record({P, G.logLikelihood(Request, P), 0.0});
    return F;
  }

  /// The CompressionTest idiom corpus: several beams share the "double"
  /// idiom, rich enough for adoption and for overflowing rounds.
  std::vector<Frontier> idiomCorpus() {
    TypePtr Req = Type::arrow(tList(tInt()), tList(tInt()));
    return {
        solvedFrontier("double", "(lambda (map (lambda (+ $0 $0)) $0))",
                       Req),
        solvedFrontier("double-tail",
                       "(lambda (map (lambda (+ $0 $0)) (cdr $0)))", Req),
        solvedFrontier("double-head",
                       "(lambda (cons (+ (car $0) (car $0)) nil))", Req),
        solvedFrontier("quadruple",
                       "(lambda (map (lambda (+ $0 $0)) "
                       "(map (lambda (+ $0 $0)) $0)))",
                       Req),
        solvedFrontier("square", "(lambda (map (lambda (* $0 $0)) $0))",
                       Req),
        solvedFrontier("incr-all", "(lambda (map (lambda (+ $0 1)) $0))",
                       Req),
    };
  }

  std::vector<ExprPtr> distinctPrograms(const std::vector<Frontier> &Fs) {
    std::vector<ExprPtr> Ps;
    for (const Frontier &F : Fs)
      for (const FrontierEntry &E : F.entries())
        if (std::find(Ps.begin(), Ps.end(), E.Program) == Ps.end())
          Ps.push_back(E.Program);
    return Ps;
  }

  Grammar G;
};

/// Bit-identity of two compression results (same checks as
/// CompressionTest's helper; programs are hash-consed so pointer equality
/// is structural equality).
void expectIdenticalResults(const CompressionResult &A,
                            const CompressionResult &B,
                            const std::string &Label) {
  SCOPED_TRACE(Label);
  ASSERT_EQ(A.NewInventions.size(), B.NewInventions.size());
  for (size_t I = 0; I < A.NewInventions.size(); ++I)
    EXPECT_EQ(A.NewInventions[I], B.NewInventions[I]);
  EXPECT_EQ(A.InitialScore, B.InitialScore);
  EXPECT_EQ(A.FinalScore, B.FinalScore);
  const auto &PA = A.NewGrammar.productions();
  const auto &PB = B.NewGrammar.productions();
  ASSERT_EQ(PA.size(), PB.size());
  for (size_t I = 0; I < PA.size(); ++I) {
    EXPECT_EQ(PA[I].Program, PB[I].Program);
    EXPECT_EQ(PA[I].LogWeight, PB[I].LogWeight);
  }
  ASSERT_EQ(A.RewrittenFrontiers.size(), B.RewrittenFrontiers.size());
  for (size_t X = 0; X < A.RewrittenFrontiers.size(); ++X) {
    const auto &EA = A.RewrittenFrontiers[X].entries();
    const auto &EB = B.RewrittenFrontiers[X].entries();
    ASSERT_EQ(EA.size(), EB.size());
    for (size_t I = 0; I < EA.size(); ++I) {
      EXPECT_EQ(EA[I].Program, EB[I].Program);
      EXPECT_EQ(EA[I].LogPrior, EB[I].LogPrior);
    }
  }
}

} // namespace

TEST_F(VersionSpaceCacheTest, ShardBuildIsPure) {
  // Two builds of the same key are bit-identical tables — the property
  // that makes a cache hit indistinguishable from a rebuild.
  ExprPtr P = parse("(lambda (map (lambda (+ $0 $0)) $0))");
  VsClosureShardPtr A = VsClosureShard::build(P, 3);
  VsClosureShardPtr B = VsClosureShard::build(P, 3);
  EXPECT_EQ(A->Root, B->Root);
  EXPECT_EQ(A->Table.size(), B->Table.size());
  EXPECT_GT(A->nodes(), 0u);
  // Absorbing both into fresh tables lands every node on the same id.
  VersionTable TA, TB;
  std::vector<VsId> Memo(A->Table.size(), -1);
  VsId RA = TA.absorb(A->Table, A->Root, Memo);
  Memo.assign(B->Table.size(), -1);
  VsId RB = TB.absorb(B->Table, B->Root, Memo);
  EXPECT_EQ(RA, RB);
  EXPECT_EQ(TA.size(), TB.size());
}

TEST_F(VersionSpaceCacheTest, ShardExtractionsHoldInTheMergedTable) {
  // Compression copies each shard's root extraction, through absorb's id
  // map, into the merged table's shared memo instead of re-extracting
  // there. Every copied entry must equal a fresh extraction at the node
  // it maps to: the same program and the same cost bits.
  const char *Sources[] = {
      "(lambda (map (lambda (+ $0 $0)) $0))",
      "(lambda (map (lambda (+ $0 $0)) (cdr $0)))",
      "(lambda (cons (+ (car $0) (car $0)) nil))",
  };
  VersionTable Merged;
  std::vector<std::pair<VsClosureShardPtr, std::vector<VsId>>> Absorbed;
  for (const char *Src : Sources) {
    VsClosureShardPtr S = VsClosureShard::build(parse(Src), 3);
    std::vector<VsId> Memo(S->Table.size(), -1);
    Merged.absorb(S->Table, S->Root, Memo);
    Absorbed.push_back({S, std::move(Memo)});
  }
  size_t Checked = 0;
  ExtractionMemo Fresh;
  for (const auto &[S, Memo] : Absorbed) {
    ASSERT_NE(S->Extracted.find(S->Root), nullptr);
    for (VsId V : S->Extracted.written()) {
      ASSERT_GE(Memo[V], 0) << "extraction visited an unabsorbed node";
      Fresh.clear();
      const Extraction Want = Merged.extractMinimal(Memo[V], {}, Fresh);
      const Extraction &Got = *S->Extracted.find(V);
      EXPECT_EQ(Got.Program, Want.Program) << "node " << V;
      EXPECT_EQ(std::bit_cast<uint64_t>(Got.Cost),
                std::bit_cast<uint64_t>(Want.Cost))
          << "node " << V;
      ++Checked;
    }
  }
  EXPECT_GT(Checked, 100u);
}

TEST_F(VersionSpaceCacheTest, LookupMissThenHit) {
  VersionSpaceCache Cache;
  ExprPtr P = parse("(lambda (map (lambda (+ $0 $0)) $0))");
  EXPECT_EQ(Cache.lookup(P, 3), nullptr);

  VsClosureShardPtr Shard = VsClosureShard::build(P, 3);
  EXPECT_TRUE(Cache.insert(Shard));
  EXPECT_EQ(Cache.lookup(P, 3), Shard); // same object, not a copy
  // Keys include the inversion depth: the same program at another depth
  // is a different closure.
  EXPECT_EQ(Cache.lookup(P, 2), nullptr);

  VersionSpaceCache::Stats S = Cache.stats();
  EXPECT_EQ(S.Hits, 1);
  EXPECT_EQ(S.Misses, 2);
  EXPECT_EQ(S.Entries, 1u);
  EXPECT_EQ(S.Nodes, Shard->nodes());
}

TEST_F(VersionSpaceCacheTest, LruEvictionUnderNodeBudget) {
  ExprPtr A = parse("(lambda (map (lambda (+ $0 $0)) $0))");
  ExprPtr B = parse("(lambda (map (lambda (* $0 $0)) $0))");
  ExprPtr C = parse("(lambda (map (lambda (+ $0 1)) $0))");
  VsClosureShardPtr SA = VsClosureShard::build(A, 2);
  VsClosureShardPtr SB = VsClosureShard::build(B, 2);
  VsClosureShardPtr SC = VsClosureShard::build(C, 2);

  // Budget one node short of all three: the third insert must evict
  // exactly the least-recently-used entry.
  VersionSpaceCache Cache(SA->nodes() + SB->nodes() + SC->nodes() - 1);
  EXPECT_TRUE(Cache.insert(SA));
  EXPECT_TRUE(Cache.insert(SB));
  EXPECT_EQ(Cache.lookup(A, 2), SA); // touch A: B becomes LRU
  EXPECT_TRUE(Cache.insert(SC));

  EXPECT_EQ(Cache.lookup(A, 2), SA);
  EXPECT_EQ(Cache.lookup(B, 2), nullptr); // evicted
  EXPECT_EQ(Cache.lookup(C, 2), SC);
  VersionSpaceCache::Stats S = Cache.stats();
  EXPECT_EQ(S.Evictions, 1);
  EXPECT_EQ(S.Entries, 2u);
  EXPECT_EQ(S.Nodes, SA->nodes() + SC->nodes());
}

TEST_F(VersionSpaceCacheTest, InsertRejectsOversizedAndDuplicates) {
  ExprPtr P = parse("(lambda (map (lambda (+ $0 $0)) $0))");
  VsClosureShardPtr Shard = VsClosureShard::build(P, 3);

  VersionSpaceCache Tiny(Shard->nodes() - 1);
  EXPECT_FALSE(Tiny.insert(Shard)); // would evict everything and still
  EXPECT_EQ(Tiny.stats().Entries, 0u); // not fit: rejected outright

  VersionSpaceCache Cache;
  EXPECT_TRUE(Cache.insert(Shard));
  EXPECT_FALSE(Cache.insert(Shard)); // racing builders insert once
  EXPECT_EQ(Cache.stats().Entries, 1u);
}

TEST_F(VersionSpaceCacheTest, DegradeLadderMatchesUncachedAtEveryCap) {
  // The caps of CompressionTest.OverflowDegradeNeverLeaksPartialClosures
  // — every round overflowing (1, 8), version-space rounds mixed with
  // top-down ones (40, 3000) — plus one between the smallest and largest
  // n=3 shard, so a round installs small shards before an oversized one
  // overflows it. Cached and uncached must agree everywhere, cold and
  // warm, at every thread count, and no shard above the cap may be cached.
  std::vector<Frontier> Fs = idiomCorpus();
  std::vector<ExprPtr> Programs = distinctPrograms(Fs);
  size_t MinNodes = SIZE_MAX, MaxNodes = 0;
  for (ExprPtr P : Programs) {
    size_t N = VsClosureShard::build(P, 3)->nodes();
    MinNodes = std::min(MinNodes, N);
    MaxNodes = std::max(MaxNodes, N);
  }
  ASSERT_LT(MinNodes, MaxNodes) << "corpus must mix shard sizes";
  for (size_t Cap : {size_t(1), size_t(8), size_t(40), size_t(3000),
                     (MinNodes + MaxNodes) / 2}) {
    for (int Threads : {1, 4, 8}) {
      SCOPED_TRACE("cap=" + std::to_string(Cap) +
                   " threads=" + std::to_string(Threads));
      CompressionParams Params;
      Params.StructurePenalty = 0.5;
      Params.MaxVersionNodes = Cap;
      Params.NumThreads = Threads;
      Params.UseVsCache = false;
      CompressionResult Uncached = compressLibrary(G, Fs, Params);

      VersionSpaceCache::global().clear();
      Params.UseVsCache = true;
      expectIdenticalResults(Uncached, compressLibrary(G, Fs, Params),
                             "cold");
      expectIdenticalResults(Uncached, compressLibrary(G, Fs, Params),
                             "warm");
      for (ExprPtr P : Programs) {
        if (VsClosureShardPtr S =
                VersionSpaceCache::global().lookup(P, Params.RefactorSteps)) {
          EXPECT_LE(S->nodes(), Cap) << P->show();
        }
      }
      if (Cap <= 8) {
        EXPECT_EQ(VersionSpaceCache::global().stats().Entries, 0u)
            << "a fully overflowed sleep must not park shards";
      }
    }
  }
}

TEST_F(VersionSpaceCacheTest, DegradeLadderRecoversTheUncappedLibrary) {
  // A realistic overflow corpus: pipeline-shaped beams whose n=3 closures
  // blow past the cap. The capped sleep proposes top-down while the
  // closure table overflows and must still land on the same final
  // library as the uncapped sleep — the winning idioms here are literal
  // subtrees and one-step captures, which top-down proposes too.
  std::vector<Frontier> Fs = idiomCorpus();
  TypePtr Req = Type::arrow(tList(tInt()), tList(tInt()));
  Fs.push_back(solvedFrontier("compose",
                              "(lambda (map (lambda (+ $0 $0)) "
                              "(map (lambda (* $0 $0)) $0)))",
                              Req));
  Fs.push_back(solvedFrontier(
      "clamp", "(lambda (map (lambda (if (> $0 0) $0 0)) $0))", Req));

  // Pick the cap from measured shard sizes: the total n=2 footprint,
  // below the largest n=3 shard, so the first round always overflows.
  std::vector<ExprPtr> Programs = distinctPrograms(Fs);
  size_t Sum2 = 0, Max3 = 0;
  for (ExprPtr P : Programs) {
    Sum2 += VsClosureShard::build(P, 2)->nodes();
    Max3 = std::max(Max3, VsClosureShard::build(P, 3)->nodes());
  }
  ASSERT_LT(Sum2, Max3) << "corpus must overflow at n=3";
  const size_t Cap = Sum2;

  CompressionParams Params;
  Params.StructurePenalty = 0.5;
  VersionSpaceCache &Cache = VersionSpaceCache::global();
  Cache.clear();
  CompressionResult Uncapped = compressLibrary(G, Fs, Params);
  ASSERT_FALSE(Uncapped.NewInventions.empty());

  Cache.clear();
  Params.MaxVersionNodes = Cap;
  CompressionResult Capped = compressLibrary(G, Fs, Params);
  // Oversized shards are never installed. (Smaller programs may hold n=3
  // keys, including those of later rounds, once the adopted inventions
  // have compressed the corpus under the cap.)
  for (ExprPtr P : Programs) {
    if (VsClosureShard::build(P, 3)->nodes() > Cap) {
      EXPECT_EQ(Cache.lookup(P, 3), nullptr)
          << "oversized shard cached: " << P->show();
    }
  }

  // Same final library as the uncapped run.
  ASSERT_EQ(Capped.NewInventions.size(), Uncapped.NewInventions.size());
  for (size_t I = 0; I < Capped.NewInventions.size(); ++I)
    EXPECT_EQ(Capped.NewInventions[I], Uncapped.NewInventions[I])
        << Capped.NewInventions[I]->show() << " vs "
        << Uncapped.NewInventions[I]->show();

  // And the fallback leaks nothing into the cache: the capped cached run
  // is bit-identical to the capped uncached run.
  Params.UseVsCache = false;
  expectIdenticalResults(compressLibrary(G, Fs, Params), Capped,
                         "capped, cached vs uncached");
}

TEST_F(VersionSpaceCacheTest, SecondSleepHitsForUntouchedBeams) {
  // The steady-state payoff: a sleep over an unchanged corpus serves its
  // closures from the cache instead of rebuilding them.
  std::vector<Frontier> Fs = idiomCorpus();
  VersionSpaceCache &Cache = VersionSpaceCache::global();
  Cache.clear();
  CompressionParams Params;
  Params.StructurePenalty = 0.5;
  CompressionResult First = compressLibrary(G, Fs, Params);
  Cache.resetStats();
  CompressionResult Second = compressLibrary(G, Fs, Params);
  VersionSpaceCache::Stats S = Cache.stats();
  EXPECT_GT(S.Hits, 0) << "unchanged beams must reuse cached shards";
  expectIdenticalResults(First, Second, "second sleep, warm cache");
}
