//===- vs/VersionSpace.h - Version spaces and inverse beta-reduction ------===//
//
// Part of the DreamCoder C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The refactoring machinery of paper §3.1 (Figs 4 and 5): version spaces
/// compactly represent exponentially large sets of λ-calculus programs, and
/// the inverse β-reduction operators Iβ', Iβn and the substitution builder
/// S_k populate them with every ≤n-step refactoring of the programs found
/// during waking. Equivalences are aggregated E-graph-style by applying Iβn
/// at every subtree (the paper's Iβ(ρ) recursion), so e.g.
/// (* (+ 1 1) (+ 5 5)) can be rewritten to (* (double 1) (double 5)) even
/// though that needs two separate inversions.
///
/// Nodes are hash-consed into a VersionTable; node ids are strictly
/// increasing from children to parents, so the structure is acyclic and all
/// analyses are simple memoized DAG walks.
///
//===----------------------------------------------------------------------===//

#ifndef DC_VS_VERSIONSPACE_H
#define DC_VS_VERSIONSPACE_H

#include "core/Program.h"

#include <map>
#include <unordered_map>
#include <vector>

namespace dc {

/// Handle to a node in a VersionTable.
using VsId = int;

/// Version-space constructors (paper Definition 3.1).
enum class VsKind : uint8_t {
  Void,        ///< ∅ — the empty set of programs
  Universe,    ///< Λ — the set of all programs
  Index,       ///< the singleton {$i}
  Terminal,    ///< a singleton primitive or invented routine
  Abstraction, ///< λv
  Application, ///< (f x)
  Union,       ///< ⊎V — nondeterministic choice
};

/// One hash-consed version-space node.
struct VsNode {
  VsKind Kind;
  int Index = 0;            ///< Index nodes
  ExprPtr Leaf = nullptr;   ///< Terminal nodes
  VsId Body = -1;           ///< Abstraction nodes
  VsId Fn = -1, Arg = -1;   ///< Application nodes
  std::vector<VsId> Members; ///< Union nodes (sorted, deduplicated)
};

/// Cost of an internal (application/abstraction) node during extraction;
/// leaves cost 1, so extraction minimizes leaf count with ties broken
/// toward shallower trees. Shared with the top-down rewriter
/// (vs/TopDown.h), which must price members on exactly this scale to
/// reproduce version-space extraction choices bit-for-bit.
constexpr double ExtractionEpsilonCost = 0.01;

/// Result of minimal-cost extraction (paper Fig 5A).
struct Extraction {
  double Cost = 0;
  ExprPtr Program = nullptr;
};

/// How one extraction layers its memos (VersionTable::extractMinimal).
/// The default scope extracts without a candidate from one private memo.
struct ExtractionScope {
  /// A subspace that costs 1 and extracts as CandidateExpr (the freshly
  /// invented routine), or -1 for none.
  VsId Candidate = -1;
  ExprPtr CandidateExpr = nullptr;
  /// coneAbove(Candidate): the nodes whose extraction the candidate can
  /// change. Required whenever both Candidate and Shared are set.
  const std::vector<char> *Cone = nullptr;
  /// A read-only candidate-free memo, consulted for every node outside
  /// the cone before the private memo.
  const std::unordered_map<VsId, Extraction> *Shared = nullptr;
};

/// Arena of hash-consed version spaces with memoized refactoring operators.
class VersionTable {
public:
  VersionTable();

  //===--------------------------------------------------------------------===//
  // Constructors (all hash-consed)
  //===--------------------------------------------------------------------===//

  VsId voidSpace() const { return VoidId; }
  VsId universe() const { return UniverseId; }
  VsId index(int I);
  VsId terminal(ExprPtr Leaf);
  VsId abstraction(VsId Body);
  VsId apply(VsId Fn, VsId Arg);

  /// Union with flattening of nested unions, dedup, and ∅/Λ absorption.
  VsId unionOf(std::vector<VsId> Members);

  const VsNode &node(VsId V) const { return Nodes[V]; }
  size_t size() const { return Nodes.size(); }

  /// Embeds a concrete program as the singleton version space {ρ}.
  VsId incorporate(ExprPtr E);

  /// Structurally copies the DAG rooted at \p Root from \p Src into this
  /// table (hash-consed as usual) and returns the corresponding id here.
  /// \p Memo must be sized Src.size() and initialized to -1; reuse it
  /// across roots of the same \p Src so shared structure is copied once.
  /// This is how per-worker closure shards are folded into one master
  /// table in deterministic frontier order (see vs/Compression.cpp).
  VsId absorb(const VersionTable &Src, VsId Root, std::vector<VsId> &Memo);

  //===--------------------------------------------------------------------===//
  // Queries
  //===--------------------------------------------------------------------===//

  /// Membership check ρ ∈ ⟦v⟧.
  bool extensionContains(VsId V, ExprPtr E);

  /// Enumerates up to \p Limit members of ⟦v⟧ (tests and diagnostics).
  std::vector<ExprPtr> extensionSample(VsId V, int Limit);

  /// Number of programs in ⟦v⟧, saturating at \p Cap — this is how the
  /// paper counts "10^14 refactorings in a 10^6-node graph" (Fig 2).
  double extensionSize(VsId V, double Cap = 1e30);

  /// Every node id reachable from \p V (including \p V).
  std::vector<VsId> reachable(VsId V) const;

  //===--------------------------------------------------------------------===//
  // Refactoring operators (paper Fig 5)
  //===--------------------------------------------------------------------===//

  /// ↓ᵏc — downshifts free indices by \p Delta below cutoff \p Cutoff;
  /// occurrences of the skipped band become ∅ (Fig 5E).
  VsId shiftFree(VsId V, int Delta, int Cutoff = 0);

  /// ⟦a⟧ ∩ ⟦b⟧ as a version space.
  VsId intersection(VsId A, VsId B);

  /// S_k — all top-level redexes (λ body) value that β-reduce into ⟦v⟧,
  /// represented as a map value-space → union-of-body-spaces (Fig 5D).
  const std::map<VsId, VsId> &substitutions(VsId V, int K = 0);

  /// Iβ' — inverts one β-reduction step anywhere in the term (Fig 5C).
  VsId inversion(VsId V);

  /// Iβn — union of 0..n applications of Iβ' (Fig 5B).
  VsId inversionN(VsId V, int N);

  /// The paper's Iβ(ρ): applies Iβn at ρ and recursively at every subtree,
  /// aggregating all discovered equivalences into one structure (§3.1).
  VsId betaClosure(ExprPtr E, int N);

  //===--------------------------------------------------------------------===//
  // Extraction (paper Fig 5A)
  //===--------------------------------------------------------------------===//

  /// Minimal-cost member of ⟦v⟧ where leaves cost 1 and internal nodes ε;
  /// exact-cost ties break by the structural term order (exprCompare), so
  /// the chosen program depends only on the DAG's structure, never on the
  /// node-id assignment of the particular table it lives in — the property
  /// the closure-shard cache and rewrite memo are built on (DESIGN.md §8).
  /// Hits come from \p Scope's shared memo (outside the candidate's cone)
  /// or from \p Memo; misses are stored in \p Memo only, which must be
  /// specific to the scope's candidate. The table and the shared memo are
  /// only read, so many threads may extract concurrently, each with its
  /// own \p Memo.
  Extraction extractMinimal(VsId V, const ExtractionScope &Scope,
                            std::unordered_map<VsId, Extraction> &Memo) const;

  /// Candidate-free extraction from a fresh memo.
  ExprPtr extractCheapest(VsId V) const;

  /// Marks every node from whose structure \p Candidate is reachable —
  /// the "cone" of nodes whose minimal extraction can change when the
  /// candidate becomes a unit-cost invention. Indexed by VsId.
  std::vector<char> coneAbove(VsId Candidate) const;

private:
  VsId intern(VsNode N);
  bool memberContains(VsId V, ExprPtr E,
                      std::map<std::pair<VsId, ExprPtr>, bool> &Memo);

  std::vector<VsNode> Nodes;
  VsId VoidId = 0;
  VsId UniverseId = 1;

  // Hash-consing keys.
  std::map<int, VsId> IndexNodes;
  std::map<ExprPtr, VsId> TerminalNodes;
  std::map<VsId, VsId> AbstractionNodes;
  std::map<std::pair<VsId, VsId>, VsId> ApplicationNodes;
  std::map<std::vector<VsId>, VsId> UnionNodes;

  // Operator memos.
  std::map<ExprPtr, VsId> IncorporateMemo;
  std::map<std::tuple<VsId, int, int>, VsId> ShiftMemo;
  std::map<std::pair<VsId, VsId>, VsId> IntersectionMemo;
  std::map<std::pair<VsId, int>, std::map<VsId, VsId>> SubstitutionMemo;
  std::map<VsId, VsId> InversionMemo;
  std::map<std::pair<VsId, int>, VsId> InversionNMemo;
  std::map<VsId, double> SizeMemo;
};

} // namespace dc

#endif // DC_VS_VERSIONSPACE_H
