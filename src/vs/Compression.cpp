//===- vs/Compression.cpp - Abstraction sleep: library learning -----------===//

#include "vs/Compression.h"

#include "core/LikelihoodSummary.h"
#include "core/ThreadPool.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "vs/TopDown.h"
#include "vs/VersionSpace.h"
#include "vs/VersionSpaceCache.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <unordered_map>

using namespace dc;

namespace {

constexpr double NegInf = -std::numeric_limits<double>::infinity();
constexpr double AicWeight = 0.5;    ///< weight of the |θ|₀ model-size penalty
constexpr double PseudoCounts = 0.3; ///< Dirichlet smoothing when refitting θ
constexpr int MaxNewInventions = 12; ///< cap on routines added per sleep phase

double logSumExp(const std::vector<double> &Xs) {
  double M = NegInf;
  for (double X : Xs)
    M = std::max(M, X);
  if (M == NegInf)
    return NegInf;
  double S = 0;
  for (double X : Xs)
    S += std::exp(X - M);
  return M + std::log(S);
}

} // namespace

/// Collects the distinct free de Bruijn indices of \p E (relative to its
/// root), ascending.
void dc::detail::collectFreeIndices(ExprPtr E, int Depth,
                                    std::set<int> &Out) {
  switch (E->kind()) {
  case ExprKind::Index:
    if (E->index() >= Depth)
      Out.insert(E->index() - Depth);
    break;
  case ExprKind::Primitive:
  case ExprKind::Invented:
    break;
  case ExprKind::Abstraction:
    collectFreeIndices(E->body(), Depth + 1, Out);
    break;
  case ExprKind::Application:
    collectFreeIndices(E->fn(), Depth, Out);
    collectFreeIndices(E->arg(), Depth, Out);
    break;
  }
}

/// True when \p Body is worth turning into a library routine: closed,
/// well-typed, and structurally non-trivial. Both backends admit proposals
/// through finalizeProposal, which applies it.
bool dc::detail::isUsefulInventionBody(ExprPtr Body, const Grammar &G) {
  if (!Body || !Body->isClosed())
    return false;
  if (Body->isIndex() || Body->isPrimitive() || Body->isInvented())
    return false;
  // The original system's `nontrivial` test: a routine must mention at
  // least two primitives, or one primitive plus a variable used twice.
  // This rejects bare rearrangement combinators like (λλλ ($2 $1 $0)),
  // which compress syntax without capturing domain structure (and whose
  // eta-expansions apply variables of unknown arity, outside the
  // grammar's support).
  int Primitives = 0;
  int DuplicatedVariables = 0;
  std::set<int> SeenIndices;
  std::function<void(ExprPtr, int)> Scan = [&](ExprPtr E, int Depth) {
    switch (E->kind()) {
    case ExprKind::Index:
      if (!SeenIndices.insert(E->index() - Depth).second)
        ++DuplicatedVariables;
      break;
    case ExprKind::Primitive:
    case ExprKind::Invented:
      ++Primitives;
      break;
    case ExprKind::Abstraction:
      Scan(E->body(), Depth + 1);
      break;
    case ExprKind::Application:
      Scan(E->fn(), Depth);
      Scan(E->arg(), Depth);
      break;
    }
  };
  Scan(Body, 0);
  if (Primitives < 2 && !(Primitives == 1 && DuplicatedVariables > 0))
    return false;
  if (Body->size() < 3)
    return false;
  if (!Body->inferType())
    return false;
  // Already in the library?
  for (const Production &P : G.productions())
    if (P.Program->isInvented() && P.Program->body() == Body)
      return false;
  return true;
}

ExprPtr dc::detail::closeOverFreeIndices(ExprPtr Term,
                                         const std::vector<int> &Free) {
  int K = static_cast<int>(Free.size());
  std::function<ExprPtr(ExprPtr, int)> Go = [&](ExprPtr E,
                                                int Depth) -> ExprPtr {
    switch (E->kind()) {
    case ExprKind::Index: {
      if (E->index() < Depth)
        return E;
      int FreeIdx = E->index() - Depth;
      for (int J = 0; J < K; ++J)
        if (Free[J] == FreeIdx)
          return Expr::index(Depth + (K - 1 - J));
      // A free index outside the closure set: in a Release build the old
      // assert vanished and the raw index leaked through, silently
      // miscapturing the invention body. Fail the closure instead; the
      // caller skips the candidate.
      return nullptr;
    }
    case ExprKind::Primitive:
    case ExprKind::Invented:
      return E;
    case ExprKind::Abstraction: {
      ExprPtr B = Go(E->body(), Depth + 1);
      return B ? Expr::abstraction(B) : nullptr;
    }
    case ExprKind::Application: {
      ExprPtr Fn = Go(E->fn(), Depth);
      if (!Fn)
        return nullptr;
      ExprPtr Arg = Go(E->arg(), Depth);
      return Arg ? Expr::application(Fn, Arg) : nullptr;
    }
    }
    return E;
  };
  ExprPtr Out = Go(Term, 0);
  if (!Out)
    return nullptr;
  for (int J = 0; J < K; ++J)
    Out = Expr::abstraction(Out);
  return Out;
}

detail::ProposedTerm dc::detail::finalizeProposal(ExprPtr Term,
                                                  const Grammar &G) {
  // Extracted members are refactorings and corpus patterns may be too, so
  // both often carry β-redexes. A null normal form means the budget ran
  // out mid-reduction: drop the term rather than anchor on a half-reduced
  // one.
  Term = Term->betaNormalForm(128);
  if (!Term)
    return {};
  // The term may be open: λ-abstract its free variables into the
  // invention, which rewrite sites apply back to them (makeCandidate).
  std::set<int> Free;
  collectFreeIndices(Term, 0, Free);
  if (Free.size() > 2)
    return {}; // cap invention arity growth from free variables
  ExprPtr Body =
      Free.empty()
          ? Term
          : closeOverFreeIndices(Term, std::vector<int>(Free.begin(),
                                                        Free.end()));
  if (!isUsefulInventionBody(Body, G))
    return {};
  return {Term, Body};
}

CompressionCandidate dc::detail::makeCandidate(const ProposedTerm &P,
                                               int TasksCovered) {
  std::set<int> Free;
  collectFreeIndices(P.Term, 0, Free);
  CompressionCandidate C;
  C.AnchorTerm = P.Term;
  C.Invention = Expr::invented(P.Body);
  C.RewriteExpr = C.Invention;
  for (int I : Free)
    C.RewriteExpr = Expr::application(C.RewriteExpr, Expr::index(I));
  C.CapturesArgument = Free.count(0) > 0;
  C.TasksCovered = TasksCovered;
  return C;
}

double dc::libraryScore(Grammar &G, const std::vector<Frontier> &Frontiers,
                        const CompressionParams &Params) {
  // Build a likelihood summary per beam entry (structure is θ-independent).
  // Rows are independent given a fixed grammar, so they fan out across the
  // pool into index-addressed slots; G is only re-weighted after the
  // barrier (refitGrammar below), never during it.
  std::vector<std::vector<LikelihoodSummary>> Summaries(Frontiers.size());
  parallelFor(Params.NumThreads, Frontiers.size(), [&](size_t X) {
    const Frontier &F = Frontiers[X];
    std::vector<LikelihoodSummary> Row;
    Row.reserve(F.entries().size());
    for (const FrontierEntry &E : F.entries())
      Row.push_back(
          LikelihoodSummary::build(G, F.task()->request(), E.Program));
    Summaries[X] = std::move(Row);
  });

  // One EM step: posterior-weighted expected counts, then refit θ.
  ExpectedCounts Counts;
  for (size_t X = 0; X < Frontiers.size(); ++X) {
    const auto &Entries = Frontiers[X].entries();
    std::vector<double> Joint(Entries.size(), NegInf);
    for (size_t I = 0; I < Entries.size(); ++I)
      if (Summaries[X][I].valid())
        Joint[I] =
            Entries[I].LogLikelihood + Summaries[X][I].logLikelihood(G);
    double Z = logSumExp(Joint);
    if (Z == NegInf)
      continue;
    for (size_t I = 0; I < Entries.size(); ++I)
      if (Joint[I] > NegInf)
        Counts.add(Summaries[X][I], std::exp(Joint[I] - Z));
  }
  refitGrammar(G, Counts, PseudoCounts);

  // Eq. 4 under the refit weights.
  double Score = -Params.StructurePenalty * G.structureSize() -
                 AicWeight * (static_cast<double>(G.productions().size()) + 1);
  for (size_t X = 0; X < Frontiers.size(); ++X) {
    const auto &Entries = Frontiers[X].entries();
    if (Entries.empty())
      continue;
    std::vector<double> Joint;
    Joint.reserve(Entries.size());
    for (size_t I = 0; I < Entries.size(); ++I)
      Joint.push_back(Summaries[X][I].valid()
                          ? Entries[I].LogLikelihood +
                                Summaries[X][I].logLikelihood(G)
                          : NegInf);
    double L = logSumExp(Joint);
    // A solved task whose rewritten beam fell outside the grammar's
    // support must count against the library, not silently vanish from
    // the objective (which would reward degenerate inventions).
    Score += L > NegInf ? L : -1e4;
  }
  return Score;
}

namespace {

/// printf-append into a per-candidate log buffer, so verbose output from
/// concurrently scored candidates can be replayed in candidate order.
void appendf(std::string &Out, const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  char Buf[1024];
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  Out += Buf;
}

/// One rewriter's cross-round memo: anchor term → (beam program →
/// rewritten program), and the counters its lookups move.
struct RewriteMemo {
  const char *Hits;
  const char *Misses;
  std::unordered_map<ExprPtr, std::unordered_map<ExprPtr, ExprPtr>> ByAnchor;
};

/// The cheapest member, before β-normalization, of entry I of frontier X
/// (program P) under one candidate; nullptr when there is none.
using MemberFn = std::function<ExprPtr(size_t X, size_t I, ExprPtr P)>;

/// Rewrites every beam entry under candidate \p CI, inside its scoring
/// worker: a replay from \p Replay when the memo has the pair, else the
/// member \p Member picks, β-normalized and kept only while it stays
/// typeable. \p Member and its per-candidate memos die on return.
void rewriteBeams(std::vector<Frontier> &Rewritten, MemberFn Member,
                  std::unordered_map<ExprPtr, ExprPtr> *Replay,
                  const RewriteMemo &Memo, size_t CI, std::string &Log,
                  const CompressionParams &Params) {
  for (size_t X = 0; X < Rewritten.size(); ++X) {
    auto &Entries = Rewritten[X].entries();
    for (size_t I = 0; I < Entries.size(); ++I) {
      const ExprPtr Before = Entries[I].Program;
      if (Replay) {
        auto It = Replay->find(Before);
        if (It != Replay->end()) {
          // Identical to recomputing: the value is a pure function of
          // (anchor term, beam program), and a beam the last adoption
          // rewrote arrives here as a different program — a miss.
          Entries[I].Program = It->second;
          obs::countAdd(Memo.Hits);
          continue;
        }
        obs::countAdd(Memo.Misses);
      }
      // The member may be a refactoring with explicit β-redexes, e.g.
      // ((λ (map $0 xs)) #invention); normalize so the grammar can score
      // it. Inventions are atomic and survive. No member, or no normal
      // form within the step budget, keeps the original entry.
      ExprPtr After = Before;
      if (ExprPtr M = Member(X, I, Before))
        if (ExprPtr Normal = M->betaNormalForm(512)) {
          if (Params.Verbose && Normal != Before && CI < 3)
            appendf(Log, "    rewrite[%zu] %s => %s\n", CI,
                    Before->show().c_str(), Normal->show().c_str());
          if (Normal->inferType())
            After = Normal;
        }
      Entries[I].Program = After;
      if (Replay)
        Replay->emplace(Before, After);
    }
  }
}

/// The half of a greedy round both backends share: rewrite every beam
/// under each candidate, score D ∪ {invention} with libraryScore, and
/// adopt the best improving candidate (ties toward the lowest candidate
/// index, exactly the order a serial loop would visit). \p MemberFor makes
/// candidate CI's member function inside CI's scoring worker, so it may
/// own per-candidate memos; everything else (memo replay, normalization,
/// the type check, logging) is the same whichever backend proposed.
/// Candidates are independent: each worker copies the grammar and
/// frontiers and writes score and rewrite into its own slot; verbose
/// output is buffered per candidate and replayed in order. Returns true
/// when a candidate was adopted into \p Result.
bool scoreAndAdoptBest(CompressionResult &Result,
                       const std::vector<CompressionCandidate> &Candidates,
                       const std::function<MemberFn(size_t CI)> &MemberFor,
                       RewriteMemo &Memo, const CompressionParams &Params) {
  obs::ScopedSpan ScoreSpan("compress.score");
  // Hand each candidate its memo sub-map up front, serially: anchors are
  // unique within a round (proposers dedup bodies, and the body
  // determines the anchor), so no two workers share a sub-map and the
  // outer map never rehashes under the fan-out.
  std::vector<std::unordered_map<ExprPtr, ExprPtr> *> Memos(
      Candidates.size(), nullptr);
  if (Params.UseVsCache)
    for (size_t CI = 0; CI < Candidates.size(); ++CI)
      Memos[CI] = &Memo.ByAnchor[Candidates[CI].AnchorTerm];
#ifndef NDEBUG
  {
    std::set<const void *> Distinct(Memos.begin(), Memos.end());
    assert((!Params.UseVsCache || Distinct.size() == Memos.size()) &&
           "candidate anchors must be unique within a round");
  }
#endif

  struct ScoredCandidate {
    double Score = NegInf;
    std::vector<Frontier> Rewritten;
    Grammar Extended;
    std::string VerboseLog;
  };
  std::vector<ScoredCandidate> Scored(Candidates.size());
  CompressionParams InnerParams = Params;
  InnerParams.NumThreads = 1; // summaries stay serial inside workers
  parallelFor(Params.NumThreads, Candidates.size(), [&](size_t CI) {
    obs::ScopedSpan CandidateSpan("compress.score.candidate");
    const CompressionCandidate &C = Candidates[CI];
    ScoredCandidate &S = Scored[CI];
    S.Extended = Result.NewGrammar;
    S.Extended.addProduction(C.Invention);
    S.Rewritten = Result.RewrittenFrontiers;
    rewriteBeams(S.Rewritten, MemberFor(CI), Memos[CI], Memo, CI,
                 S.VerboseLog, Params);
    S.Score = libraryScore(S.Extended, S.Rewritten, InnerParams);
    obs::countAdd("compress.candidates_scored");
    if (Params.Verbose && CI < 12)
      appendf(S.VerboseLog, "  cand[%zu] %-40s cover=%d score=%.2f%s\n",
              CI, C.Invention->show().c_str(), C.TasksCovered, S.Score,
              S.Score > Result.FinalScore ? " (+)" : "");
  });

  // Deterministic reduction: best score, lowest candidate index on ties.
  double BestScore = Result.FinalScore;
  int BestIdx = -1;
  for (size_t CI = 0; CI < Scored.size(); ++CI) {
    if (Params.Verbose && !Scored[CI].VerboseLog.empty())
      std::fputs(Scored[CI].VerboseLog.c_str(), stderr);
    if (Scored[CI].Score > BestScore) {
      BestScore = Scored[CI].Score;
      BestIdx = static_cast<int>(CI);
    }
  }

  if (BestIdx < 0)
    return false; // no candidate improves the objective
  if (Params.Verbose)
    std::fprintf(stderr, "compression: +%s (score %.2f -> %.2f)\n",
                 Candidates[BestIdx].Invention->show().c_str(),
                 Result.FinalScore, BestScore);
  Result.NewGrammar = std::move(Scored[BestIdx].Extended);
  Result.RewrittenFrontiers = std::move(Scored[BestIdx].Rewritten);
  Result.NewInventions.push_back(Candidates[BestIdx].Invention);
  Result.FinalScore = BestScore;
  obs::countAdd("compress.inventions_adopted");
  return true;
}

/// One worker's extraction state over a round's merged table: a private
/// memo over the shared one, and the current candidate's cone.
struct ExtractionScratch {
  ExtractionMemo Overlay;
  VsMarks Cone;
};

/// The round's extraction scratch, one per concurrent holder: table-sized
/// arrays that live as long as the round, not one per candidate.
class ScratchPool {
public:
  /// Scratch no one else holds. It comes back, its overlay emptied, when
  /// the last copy of the pointer dies.
  std::shared_ptr<ExtractionScratch> acquire() {
    std::unique_ptr<ExtractionScratch> S;
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      if (!Free.empty()) {
        S = std::move(Free.back());
        Free.pop_back();
      }
    }
    if (!S)
      S = std::make_unique<ExtractionScratch>();
    return {S.release(), [this](ExtractionScratch *Back) {
              Back->Overlay.clear();
              std::lock_guard<std::mutex> Lock(Mutex);
              Free.emplace_back(Back);
            }};
  }

private:
  std::mutex Mutex;
  std::vector<std::unique_ptr<ExtractionScratch>> Free;
};

/// What a version-space round's rewriter reads: the merged closure table,
/// each beam entry's closure root in it, the candidate-free extraction memo
/// the shards fill, each candidate's anchor node, and the parent edges its
/// cone is walked on.
struct VersionSpaceRound {
  VersionTable Table;
  std::vector<std::vector<VsId>> Roots; ///< [frontier][entry]
  ExtractionMemo Shared;
  std::vector<VsId> Anchors; ///< [candidate]
  VsParents Parents;
  ScratchPool Scratch;
};

/// Builds the β-closure of every *distinct* beam program at
/// Params.RefactorSteps into \p VS. A closure shard — betaClosure in a
/// fresh private table, with its root's candidate-free extraction — is a
/// pure function of (program, Steps), which makes it the unit of
/// content-addressed caching: structurally identical beam entries reuse
/// one shard across frontiers, rounds and sleep phases instead of
/// rebuilding it. The master table absorbs the shards in first-occurrence
/// order (frontier order, entry order), so it and everything downstream of
/// it is a pure function of the frontiers — never of the thread count, and
/// never of which lookups hit (a hit returns a table bit-identical to a
/// rebuild). Each shard's extraction is copied to the absorbed nodes in the
/// shared memo: absorb maps a node to a structurally identical one, and
/// extraction is a function of structure alone (DESIGN.md §8). Returns
/// false when a shard or the merged table exceeds MaxVersionNodes; the
/// round then proposes top-down.
bool buildClosureTable(const std::vector<Frontier> &Frontiers,
                       const CompressionParams &Params,
                       VersionSpaceRound &VS) {
  obs::ScopedSpan ClosureSpan("compress.closure");
  std::vector<ExprPtr> Programs;
  std::unordered_map<ExprPtr, size_t> ProgramSlot;
  for (const Frontier &F : Frontiers)
    for (const FrontierEntry &E : F.entries())
      if (ProgramSlot.emplace(E.Program, Programs.size()).second)
        Programs.push_back(E.Program);

  VersionSpaceCache *Cache =
      Params.UseVsCache ? &VersionSpaceCache::global() : nullptr;
  std::vector<VsClosureShardPtr> Shards(Programs.size());
  CancellationToken Overflow;
  parallelFor(
      Params.NumThreads, Programs.size(),
      [&](size_t PI) {
        obs::ScopedSpan ShardSpan("compress.closure.shard");
        VsClosureShardPtr Shard =
            Cache ? Cache->lookup(Programs[PI], Params.RefactorSteps)
                  : nullptr;
        if (!Shard) {
          Shard = VsClosureShard::build(Programs[PI], Params.RefactorSteps,
                                        Params.MaxVersionNodes);
          if (Cache && Shard->nodes() <= Params.MaxVersionNodes)
            Cache->insert(Shard);
        }
        // Oversize is a pure property of (program, Steps), so a hit
        // cached under a larger cap by an earlier call overflows exactly
        // as a rebuild would. Which shards got built before the other
        // workers stop is thread-dependent; only the verdict survives,
        // and oversized shards are never installed.
        if (Shard->nodes() > Params.MaxVersionNodes) {
          Overflow.cancel();
          return;
        }
        Shards[PI] = std::move(Shard);
      },
      &Overflow);
  if (Overflow.cancelled())
    return false;

  std::vector<VsId> Roots(Programs.size(), -1);
  {
    obs::ScopedSpan MergeSpan("compress.closure.merge");
    std::vector<VsId> Memo;
    for (size_t PI = 0; PI < Programs.size(); ++PI) {
      const VsClosureShard &S = *Shards[PI];
      Memo.assign(S.Table.size(), -1);
      Roots[PI] = VS.Table.absorb(S.Table, S.Root, Memo);
      if (VS.Table.size() > Params.MaxVersionNodes)
        return false;
      VS.Shared.fit(VS.Table.size());
      for (VsId V : S.Extracted.written())
        VS.Shared.set(Memo[V], *S.Extracted.find(V));
    }
  }
  VS.Roots.assign(Frontiers.size(), {});
  for (size_t X = 0; X < Frontiers.size(); ++X)
    for (const FrontierEntry &E : Frontiers[X].entries())
      VS.Roots[X].push_back(Roots[ProgramSlot[E.Program]]);
  obs::observe("compress.version_nodes",
               static_cast<double>(VS.Table.size()));
  return true;
}

/// The version-space proposer: ranks closure nodes by how many tasks'
/// refactorings contain them, then extracts and finalizes the top ones.
/// Fills \p VS's candidate anchors.
std::vector<CompressionCandidate>
proposeFromClosures(const CompressionResult &Result,
                    const CompressionParams &Params, int Round,
                    VersionSpaceRound &VS) {
  obs::ScopedSpan ProposeSpan("compress.propose");
  VersionTable &VT = VS.Table;

  // Count, for each version-space node, how many tasks' refactorings
  // contain it. Frontiers fan out in chunks: each worker walks a task's
  // roots once, marking what it reaches (a const read), adds one per
  // marked node to a chunk-private count vector, and the partials fold in
  // chunk order. Integer sums commute exactly, so the totals are identical
  // at every thread count by construction.
  std::vector<int> TasksCovering(VT.size(), 0);
  {
    const size_t CoverChunk = 64;
    const size_t NumChunks = (VS.Roots.size() + CoverChunk - 1) / CoverChunk;
    std::vector<std::vector<int>> Partials(NumChunks);
    parallelFor(Params.NumThreads, NumChunks, [&](size_t CK) {
      std::vector<int> &Counts = Partials[CK];
      Counts.assign(VT.size(), 0);
      VsMarks InThisTask;
      std::vector<VsId> Reached;
      size_t End = std::min(VS.Roots.size(), (CK + 1) * CoverChunk);
      for (size_t X = CK * CoverChunk; X < End; ++X) {
        InThisTask.reset(VT.size());
        Reached.clear();
        for (VsId Root : VS.Roots[X])
          VT.collectReachable(Root, InThisTask, Reached);
        for (VsId V : Reached)
          ++Counts[V];
      }
    });
    for (const std::vector<int> &Counts : Partials)
      for (size_t V = 0; V < Counts.size(); ++V)
        TasksCovering[V] += Counts[V];
  }

  // Rank candidate spaces by coverage, then validate the top ones. Ties
  // break toward the lower node id so the ranking (and hence which
  // candidates survive the MaxCandidates cut) is a total order,
  // independent of sort implementation details.
  std::vector<std::pair<int, VsId>> Ranked;
  for (size_t V = 0; V < TasksCovering.size(); ++V)
    if (TasksCovering[V] >= MinimumTasksCovered)
      Ranked.push_back({TasksCovering[V], static_cast<VsId>(V)});
  std::sort(Ranked.begin(), Ranked.end(), [](const auto &A, const auto &B) {
    return A.first != B.first ? A.first > B.first : A.second < B.second;
  });

  // Validate the ranked spaces into concrete proposals. The pure,
  // expensive part (extraction and finalization) fans out per ranked
  // space; admission — body dedup, anchoring via incorporate() (which
  // mutates the table), and the MaxCandidates cut — replays serially in
  // rank order, so the surviving candidate list is exactly the serial
  // scan's. Chunking bounds the wasted fan-out after the cut to one chunk.
  std::vector<CompressionCandidate> Candidates;
  std::set<ExprPtr> SeenBodies;
  const size_t ScanChunk = std::max<size_t>(
      32, 4 * static_cast<size_t>(
                  ThreadPool::resolveThreadCount(Params.NumThreads)));
  for (size_t ChunkStart = 0;
       ChunkStart < Ranked.size() &&
       static_cast<int>(Candidates.size()) < MaxCandidates;
       ChunkStart += ScanChunk) {
    size_t ChunkEnd = std::min(Ranked.size(), ChunkStart + ScanChunk);
    std::vector<detail::ProposedTerm> Proposals(ChunkEnd - ChunkStart);
    parallelFor(Params.NumThreads, ChunkEnd - ChunkStart, [&](size_t K) {
      // The shards' memo, read-only here, holds every node their root
      // extractions visited; only the rest need private scratch.
      const VsId V = Ranked[ChunkStart + K].second;
      ExprPtr Term = nullptr;
      if (const Extraction *Hit = VS.Shared.find(V))
        Term = Hit->Program;
      else
        Term = VT.extractMinimal(V, {.Shared = &VS.Shared},
                                 VS.Scratch.acquire()->Overlay)
                   .Program;
      if (Term)
        Proposals[K] = detail::finalizeProposal(Term, Result.NewGrammar);
    });
    for (const detail::ProposedTerm &P : Proposals) {
      if (static_cast<int>(Candidates.size()) >= MaxCandidates)
        break;
      if (!P.Term)
        continue;
      if (!SeenBodies.insert(P.Body).second)
        continue; // distinct spaces can extract identical bodies
      // Rewrites fire where the candidate node itself appears; anchor the
      // candidate at the hash-consed singleton of the normalized (open)
      // term, which every closure position exposing the idiom shares.
      VsId Anchor = VT.incorporate(P.Term);
      if (Anchor >= static_cast<VsId>(TasksCovering.size()) ||
          TasksCovering[Anchor] < MinimumTasksCovered)
        continue; // the normal form itself is not exposed often enough
      Candidates.push_back(detail::makeCandidate(P, TasksCovering[Anchor]));
      VS.Anchors.push_back(Anchor);
    }
  }
  if (Params.Verbose)
    std::fprintf(stderr,
                 "compression round %d: %zu ranked, %zu candidates, "
                 "baseline %.2f\n",
                 Round, Ranked.size(), Candidates.size(), Result.FinalScore);
  if (obs::Telemetry::enabled()) {
    obs::countAdd("compress.candidates_ranked",
                  static_cast<long>(Ranked.size()));
    obs::countAdd("compress.candidates_proposed",
                  static_cast<long>(Candidates.size()));
    for (const CompressionCandidate &C : Candidates)
      obs::observe("compress.candidate_coverage", C.TasksCovered);
  }
  return Candidates;
}

/// The top-down proposer (vs/TopDown.cpp) with its round telemetry.
std::vector<CompressionCandidate>
proposeFromCorpus(const CompressionResult &Result,
                  const CompressionParams &Params, int Round) {
  obs::ScopedSpan ProposeSpan("topdown.propose");
  TopDownStats Stats;
  std::vector<CompressionCandidate> Candidates = proposeTopDown(
      Result.NewGrammar, Result.RewrittenFrontiers, Params, &Stats);
  if (obs::Telemetry::enabled()) {
    obs::countAdd("topdown.subtree_sites", Stats.SubtreeSites);
    obs::countAdd("topdown.states_expanded", Stats.StatesExpanded);
    obs::countAdd("topdown.states_pruned", Stats.StatesPruned);
    obs::countAdd("topdown.completions", Stats.Completions);
    obs::countAdd("topdown.candidates_proposed", Stats.CandidatesProposed);
    if (Stats.BudgetExhausted)
      obs::countAdd("topdown.budget_exhausted");
    obs::countAdd("compress.candidates_proposed",
                  static_cast<long>(Candidates.size()));
    for (const CompressionCandidate &C : Candidates)
      obs::observe("compress.candidate_coverage", C.TasksCovered);
  }
  if (Params.Verbose)
    std::fprintf(stderr,
                 "compression round %d (top-down): %ld sites, "
                 "%ld states, %zu candidates, baseline %.2f\n",
                 Round, Stats.SubtreeSites, Stats.StatesExpanded,
                 Candidates.size(), Result.FinalScore);
  return Candidates;
}

/// The greedy rounds of one sleep phase, for either backend. A
/// version-space round whose closure table overflows MaxVersionNodes
/// proposes and rewrites top-down; since the overflow verdict is a pure
/// function of (programs, RefactorSteps, cap), so is the choice.
void runRounds(CompressionResult &Result, const CompressionParams &Params) {
  // The cross-round rewrite memos (UseVsCache). Scoring's dominant cost
  // is rewriting every beam under every candidate, and the outcome for
  // one pair is a pure function of (anchor term, beam program): extraction
  // breaks ties by term content (vs/VersionSpace.cpp) at the phase's one
  // inversion depth, and the top-down DP has no depth at all. After an
  // adoption only the pairs whose beam the new invention rewrote, or
  // whose candidate is new, miss. The two rewriters can disagree on a
  // pair (DESIGN.md §10), so each keeps its own memo.
  RewriteMemo VersionSpaceMemo{"vs_cache.rewrite.hits",
                               "vs_cache.rewrite.misses", {}};
  RewriteMemo TopDownMemo{"topdown.rewrite.hits", "topdown.rewrite.misses",
                          {}};

  for (int Round = 0; Round < MaxNewInventions; ++Round) {
    obs::countAdd("compress.rounds");
    VersionSpaceRound VS;
    bool UseClosures = Params.Backend == CompressionBackend::VersionSpace;
    if (UseClosures &&
        !buildClosureTable(Result.RewrittenFrontiers, Params, VS)) {
      UseClosures = false;
      obs::countAdd("compress.overflow_fallbacks");
      if (Params.Verbose)
        std::fprintf(stderr,
                     "compression round %d: version table over %zu nodes; "
                     "proposing top-down\n",
                     Round, Params.MaxVersionNodes);
    }
    std::vector<CompressionCandidate> Candidates =
        UseClosures ? proposeFromClosures(Result, Params, Round, VS)
                    : proposeFromCorpus(Result, Params, Round);
    if (Candidates.empty())
      break;

    // Each candidate's member function: extraction from the beam's
    // closure with the candidate in scope (a cone walked up the parent
    // edges and a private memo, both in the worker's scratch, over the
    // read-only table and shared memo), or the top-down DP over the beam's
    // syntax. The table is final once the proposal scan has anchored.
    std::function<MemberFn(size_t)> MemberFor;
    if (UseClosures) {
      VS.Parents = VsParents(VS.Table);
      MemberFor = [&](size_t CI) -> MemberFn {
        std::shared_ptr<ExtractionScratch> S = VS.Scratch.acquire();
        VS.Parents.cone(VS.Anchors[CI], S->Cone);
        ExtractionScope Scope{VS.Anchors[CI], Candidates[CI].RewriteExpr,
                              &S->Cone, &VS.Shared};
        return [&VS, S, Scope](size_t X, size_t I, ExprPtr) {
          return VS.Table.extractMinimal(VS.Roots[X][I], Scope, S->Overlay)
              .Program;
        };
      };
    } else
      MemberFor = [&](size_t CI) -> MemberFn {
        return [&C = Candidates[CI],
                Memo = std::unordered_map<ExprPtr, Extraction>()](
                   size_t, size_t, ExprPtr P) mutable {
          return topDownRewriteMember(P, C, Memo).Program;
        };
      };
    if (!scoreAndAdoptBest(Result, Candidates, MemberFor,
                           UseClosures ? VersionSpaceMemo : TopDownMemo,
                           Params))
      break;
  }
}

} // namespace

CompressionResult
dc::compressLibrary(const Grammar &G, const std::vector<Frontier> &Frontiers,
                    const CompressionParams &Params) {
  obs::ScopedSpan CompressSpan("compress");
  CompressionResult Result;
  Result.NewGrammar = G;
  Result.RewrittenFrontiers = Frontiers;
  Result.InitialScore = libraryScore(Result.NewGrammar,
                                     Result.RewrittenFrontiers, Params);
  Result.FinalScore = Result.InitialScore;
  obs::gaugeSet("compress.score_initial", Result.InitialScore);
  obs::gaugeSet("compress.backend",
                Params.Backend == CompressionBackend::TopDown ? 1 : 0);

  runRounds(Result, Params);

  obs::gaugeSet("compress.score_final", Result.FinalScore);

  // Re-anchor frontier priors to the final grammar.
  for (Frontier &F : Result.RewrittenFrontiers)
    F.rescore(Result.NewGrammar);
  return Result;
}
