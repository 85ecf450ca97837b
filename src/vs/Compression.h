//===- vs/Compression.h - Abstraction sleep: library learning -------------===//
//
// Part of the DreamCoder C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The abstraction-sleep phase (paper §3): grow the library D with new
/// routines that compress the programs discovered during waking, optimizing
/// the Eq. 4 objective
///
///   log P[D] + Σ_x log Σ_{ρ∈B_x} P[x|ρ] · max_{ρ' →β* ρ} P[ρ'|D,θ]
///            + log P[θ|D] − |θ|₀
///
/// Each greedy round proposes candidate routines, rewrites every beam
/// program to its cheapest member under each candidate (paper Fig 5A),
/// refits θ, and adopts the candidate that most improves the objective,
/// until no candidate does. One round loop serves both backends; a
/// backend only supplies the round's candidates and the cheapest member of
/// a beam program under one of them:
///
///  * VersionSpace proposes from the version spaces of all ≤n-step
///    refactorings of the beam programs (vs/VersionSpace.h) and extracts
///    members from them. A round whose closure table would exceed
///    MaxVersionNodes proposes and rewrites with TopDown instead.
///  * TopDown proposes from the beam syntax directly (vs/TopDown.h).
///
/// Setting refactoring steps to 0 recovers the EC baseline (subtree
/// proposals only); see WakeSleep's baseline modes.
///
//===----------------------------------------------------------------------===//

#ifndef DC_VS_COMPRESSION_H
#define DC_VS_COMPRESSION_H

#include "core/Grammar.h"
#include "core/Task.h"

#include <set>
#include <vector>

namespace dc {

/// Which candidate-proposal engine abstraction sleep runs (DESIGN.md §10).
/// Both backends feed the same libraryScore/adoption machinery and share
/// the determinism contract; they differ only in how candidates are found
/// and how beams are rewritten under a candidate:
///
///  * VersionSpace — materialize the ≤n-step β-inversion closure of every
///    beam program (paper §4) and rank its nodes. Complete up to the
///    inversion depth; a round whose closure exceeds MaxVersionNodes
///    falls back to TopDown.
///  * TopDown — grow candidate patterns hole-by-hole over the beam syntax
///    (corpus-guided, à la "Top-Down Synthesis for Library Learning",
///    Bowers et al., POPL 2023), never building version spaces. Orders of
///    magnitude cheaper on closure-heavy corpora; proposes literal common
///    subtrees plus single-variable capture patterns.
enum class CompressionBackend { VersionSpace, TopDown };

/// Knobs for one abstraction-sleep phase.
struct CompressionParams {
  CompressionBackend Backend = CompressionBackend::VersionSpace;
  int RefactorSteps = 3;      ///< n in Iβn (paper uses 3); 0 = EC baseline
  double StructurePenalty = 0.5; ///< λ in log P[D] ∝ -λ Σ size(routine)
  /// Safety valve: a round whose β-closure shard or merged closure table
  /// exceeds this many nodes proposes and rewrites with the TopDown
  /// backend instead of version spaces.
  size_t MaxVersionNodes = 4000000;
  /// Worker threads for the three compression fan-outs (per-program
  /// β-closure shards, candidate scoring, likelihood summaries): 0 = one
  /// per hardware core, 1 = serial, N = at most N. Results are
  /// bit-identical at every setting (see DESIGN.md, threading model).
  int NumThreads = 1;
  /// Master switch for the content-addressed closure-shard cache and the
  /// cross-round rewrite memo (tools/dc_run --no-vs-cache). Both caches
  /// only skip recomputing pure values, so results are bit-identical with
  /// caching on or off — bench_vs_cache gates this at 1/4/8 threads.
  bool UseVsCache = true;
  /// TopDown rounds (the TopDown backend, and VersionSpace rounds that
  /// overflow MaxVersionNodes): cap on pattern states expanded per
  /// proposal round before the proposer stops refining (branch-and-bound still
  /// prunes below the cap). Literal-subtree candidates are enumerated
  /// outside this budget, so exhaustion degrades recall of capture
  /// patterns, never of common subtrees.
  int TopDownExpansionBudget = 100000;
  bool Verbose = false;
};

/// Candidates must occur in the refactorings of at least this many beams
/// (both backends).
constexpr int MinimumTasksCovered = 2;
/// Candidates scored per greedy round (both backends).
constexpr int MaxCandidates = 150;

/// Result of one abstraction-sleep phase.
struct CompressionResult {
  Grammar NewGrammar;
  std::vector<Frontier> RewrittenFrontiers; ///< beams re-expressed under D'
  std::vector<ExprPtr> NewInventions;
  double InitialScore = 0;
  double FinalScore = 0;
};

/// Runs abstraction sleep: returns the grammar extended with the routines
/// that most increase the Eq. 4 objective, with all frontier programs
/// rewritten in terms of the new library. Frontiers with no entries pass
/// through unchanged.
CompressionResult compressLibrary(const Grammar &G,
                                  const std::vector<Frontier> &Frontiers,
                                  const CompressionParams &Params = {});

/// The Eq. 4 objective for a fixed structure: refits θ on the frontiers
/// (one EM step with Dirichlet smoothing) and returns the joint score.
/// Exposed for tests and for the memorize/EC baselines.
double libraryScore(Grammar &G, const std::vector<Frontier> &Frontiers,
                    const CompressionParams &Params = {});

/// One proposed library routine, whichever backend proposed it.
struct CompressionCandidate {
  /// The normalized open term occurrences rewrite at: the candidate's
  /// content-stable identity. Invention and RewriteExpr are pure functions
  /// of it, so the cross-round rewrite memos key on it.
  ExprPtr AnchorTerm = nullptr;
  ExprPtr Invention = nullptr; ///< closed #(...) routine added to D
  /// What an occurrence of AnchorTerm becomes: the invention applied to
  /// the anchor's free indices, e.g. (#(λ (+ $0 $0)) $1).
  ExprPtr RewriteExpr = nullptr;
  /// 0 ∈ free(AnchorTerm): the top-down rewriter also matches capture
  /// sites S == AnchorTerm[$0 := a].
  bool CapturesArgument = false;
  int TasksCovered = 0;
};

namespace detail {

/// A term that passed the proposal finalizer.
struct ProposedTerm {
  ExprPtr Term = nullptr; ///< β-normal anchor term (may be open)
  ExprPtr Body = nullptr; ///< Term λ-closed over its free indices
};

/// Both backends' proposal finalizer (the original system's
/// normalize_invention plus admission): β-normal form within 128 steps,
/// at most two free indices, closeOverFreeIndices, isUsefulInventionBody.
/// Returns nulls when \p Term is rejected.
ProposedTerm finalizeProposal(ExprPtr Term, const Grammar &G);

/// The candidate for a finalized term: the invention of its body, applied
/// back to the term's free indices at rewrite sites.
CompressionCandidate makeCandidate(const ProposedTerm &P, int TasksCovered);

/// Rewrites \p Term so that free index Free[J] becomes the (K-J)-th
/// innermost of K fresh enclosing lambdas, then wraps the lambdas — the
/// "close the invention over its free variables" step of candidate
/// proposal. Returns nullptr when some free index of \p Term is missing
/// from \p Free (an incomplete closure set would otherwise silently
/// miscapture the invention body); callers skip such candidates. Exposed
/// for tests.
ExprPtr closeOverFreeIndices(ExprPtr Term, const std::vector<int> &Free);

/// Collects the distinct free de Bruijn indices of \p E relative to its
/// root (\p Depth binders already crossed), ascending.
void collectFreeIndices(ExprPtr E, int Depth, std::set<int> &Out);

/// The "nontrivial routine" admission test (see Compression.cpp): closed,
/// well-typed, ≥2 primitives (or one plus a duplicated variable), and not
/// already a production of \p G.
bool isUsefulInventionBody(ExprPtr Body, const Grammar &G);

} // namespace detail

} // namespace dc

#endif // DC_VS_COMPRESSION_H
