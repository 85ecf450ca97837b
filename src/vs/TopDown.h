//===- vs/TopDown.h - Corpus-guided top-down abstraction proposals --------===//
//
// Part of the DreamCoder C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The TopDown compression backend (DESIGN.md §10): proposes abstraction
/// candidates by growing patterns hole-by-hole over the hit-frontier
/// corpus instead of materializing β-inversion version spaces, following
/// the corpus-guided top-down synthesis of Bowers et al. (POPL 2023).
///
/// Two proposal families cover the version-space backend's candidates on
/// realistic corpora:
///
///  * literal common subtrees — every distinct subtree of the beam
///    programs, counted per task (complete; found by one corpus walk);
///  * single-variable capture patterns — a pattern tree refined one hole
///    at a time, where each refinement either fixes a concrete head
///    observed at the matching sites or closes the hole as the captured
///    variable. Each state carries its match-location set; refinements
///    that drop task coverage below MinimumTasksCovered are pruned, a
///    utility upper bound (occurrences × node savings, monotone under
///    refinement) drives branch-and-bound against the current top-K
///    completions, and TopDownExpansionBudget caps total states.
///
/// A completed pattern passes the same finalizer as a version-space
/// proposal and becomes the same CompressionCandidate (vs/Compression.h),
/// which the one greedy-round loop in Compression.cpp scores and adopts.
/// That loop also uses this proposer and rewriter for any version-space
/// round whose closure table would exceed MaxVersionNodes.
///
/// Rewriting a beam under a candidate replays the version-space extraction
/// cost calculus directly on the syntax tree (topDownRewriteMember): a
/// memoized DP where leaves cost 1, internal nodes EpsilonCost, an anchor
/// occurrence costs exactly 1, and a capture site S = T[$0 := a] may
/// rewrite to ((λ RewriteExpr) a) at 1 + 2ε + cost(a) — ties broken by
/// exprCompare, exactly the extractionImproves order. On corpora where
/// both backends are tractable this yields bit-identical rewritten
/// frontiers (the differential harness in tests/vs/TopDownTest.cpp gates
/// this at 1/4/8 threads); DESIGN.md §10 spells out the contract and its
/// known edges.
///
//===----------------------------------------------------------------------===//

#ifndef DC_VS_TOPDOWN_H
#define DC_VS_TOPDOWN_H

#include "vs/Compression.h"
#include "vs/VersionSpace.h"

#include <unordered_map>
#include <vector>

namespace dc {

/// Proposal-round telemetry (also exported as topdown.* counters).
struct TopDownStats {
  long StatesExpanded = 0;   ///< pattern states popped and refined
  long StatesPruned = 0;     ///< children dropped by coverage or B&B
  long Completions = 0;      ///< closed patterns reaching finalization
  long SubtreeSites = 0;     ///< distinct subtrees indexed from the corpus
  long CandidatesProposed = 0; ///< candidates surviving rank/dedup/cap
  bool BudgetExhausted = false;
};

/// Proposes candidates for one greedy round: ranked by task coverage
/// (descending, ties by structural order), deduplicated by invention
/// body, filtered through the same usefulness/coverage gates as the
/// version-space path, capped at MaxCandidates. Deterministic and
/// single-threaded by construction — proposal is the cheap phase; scoring
/// fans out in the shared round.
std::vector<CompressionCandidate>
proposeTopDown(const Grammar &G, const std::vector<Frontier> &Frontiers,
               const CompressionParams &Params,
               TopDownStats *Stats = nullptr);

/// The minimal-cost member of \p Program's rewrite space under candidate
/// \p C, before β-normalization — the top-down equivalent of extracting
/// from the beam's closure with the candidate in scope
/// (VersionTable::extractMinimal). \p Memo is keyed by subterm (costs are
/// depth-independent) and may be reused across beams for the same
/// candidate.
Extraction topDownRewriteMember(ExprPtr Program, const CompressionCandidate &C,
                                std::unordered_map<ExprPtr, Extraction> &Memo);

namespace detail {

/// If \p Subject == \p Anchor[$0 := a] for some term a (free indices of
/// \p Anchor above 0 shifted down accordingly), returns a; else nullptr.
/// This is exactly the site shape a one-step β-inversion exposes: the
/// anchor directly under an introduced binder whose argument is a.
ExprPtr matchCapture(ExprPtr Anchor, ExprPtr Subject);

} // namespace detail

} // namespace dc

#endif // DC_VS_TOPDOWN_H
