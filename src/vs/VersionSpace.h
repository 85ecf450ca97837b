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
/// analyses are simple memoized DAG walks. Storage is flat: nodes are plain
/// data, union members share one pool, one open-addressing table interns
/// every node kind, and the operator memos are open-addressing tables on
/// packed integer keys or arrays indexed by node id.
///
//===----------------------------------------------------------------------===//

#ifndef DC_VS_VERSIONSPACE_H
#define DC_VS_VERSIONSPACE_H

#include "core/Hash.h"
#include "core/Program.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
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

/// One hash-consed version-space node, as plain data. A union's members
/// (sorted, deduplicated) live in its table's member pool; read them with
/// VersionTable::members.
struct VsNode {
  VsKind Kind = VsKind::Void;
  int Index = 0;            ///< Index nodes
  VsId Body = -1;           ///< Abstraction nodes
  VsId Fn = -1, Arg = -1;   ///< Application nodes
  uint32_t MemberBegin = 0; ///< Union nodes: first member's pool offset
  uint32_t MemberCount = 0; ///< Union nodes: number of members
  ExprPtr Leaf = nullptr;   ///< Terminal nodes
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

/// Extraction results indexed by node id. Empties in time proportional to
/// the entries set since it was last emptied, keeping its storage, so one
/// memo serves many extractions over a large table.
class ExtractionMemo {
public:
  /// Makes room for every id below \p Nodes.
  void fit(size_t Nodes) {
    if (Entries.size() < Nodes)
      Entries.resize(Nodes, {NotComputed, nullptr});
  }
  /// The entry for \p V, or null when it has none.
  const Extraction *find(VsId V) const {
    return static_cast<size_t>(V) < Entries.size() &&
                   Entries[V].Cost != NotComputed
               ? &Entries[V]
               : nullptr;
  }
  /// Records \p E for \p V, which must be below fit()'s bound.
  void set(VsId V, const Extraction &E) {
    if (Entries[V].Cost == NotComputed)
      Written.push_back(V);
    Entries[V] = E;
  }
  /// The ids holding an entry, in the order they were first set.
  const std::vector<VsId> &written() const { return Written; }
  void clear() {
    for (VsId V : Written)
      Entries[V].Cost = NotComputed;
    Written.clear();
  }

private:
  /// Real costs are ≥ 1 or +∞.
  static constexpr double NotComputed = -1;
  std::vector<Extraction> Entries;
  std::vector<VsId> Written;
};

/// A set of node ids that empties in O(1): an id is in the set while its
/// stamp equals the current generation.
class VsMarks {
public:
  /// Empties the set and makes room for every id below \p Nodes.
  void reset(size_t Nodes);
  bool contains(VsId V) const { return Stamps[V] == Generation; }
  /// Adds \p V; false when it was already in the set.
  bool insert(VsId V) {
    if (Stamps[V] == Generation)
      return false;
    Stamps[V] = Generation;
    return true;
  }

private:
  std::vector<uint32_t> Stamps;
  uint32_t Generation = 0;
};

/// How one extraction layers its memos (VersionTable::extractMinimal).
/// The default scope extracts without a candidate from one private memo.
struct ExtractionScope {
  /// A subspace that costs 1 and extracts as CandidateExpr (the freshly
  /// invented routine), or -1 for none.
  VsId Candidate = -1;
  ExprPtr CandidateExpr = nullptr;
  /// VsParents::cone(Candidate): the nodes whose extraction the candidate
  /// can change. Required whenever both Candidate and Shared are set.
  const VsMarks *Cone = nullptr;
  /// A read-only candidate-free memo, consulted for every node outside
  /// the cone before the private memo.
  const ExtractionMemo *Shared = nullptr;
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
  /// A union's members (empty for every other kind). The span dangles
  /// once the table interns another union.
  std::span<const VsId> members(VsId V) const {
    const VsNode &N = Nodes[V];
    return {MemberPool.data() + N.MemberBegin, N.MemberCount};
  }
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

  /// Frees the intern table and operator memos once a table is complete.
  /// It can still be read, extracted from and absorbed, but never interns
  /// again (a cached closure shard; vs/VersionSpaceCache.h).
  void freeze();

  //===--------------------------------------------------------------------===//
  // Queries
  //===--------------------------------------------------------------------===//

  /// Membership check ρ ∈ ⟦v⟧.
  bool extensionContains(VsId V, ExprPtr E) const;

  /// Enumerates up to \p Limit members of ⟦v⟧ (tests and diagnostics).
  std::vector<ExprPtr> extensionSample(VsId V, int Limit) const;

  /// Number of programs in ⟦v⟧, saturating at \p Cap — this is how the
  /// paper counts "10^14 refactorings in a 10^6-node graph" (Fig 2).
  double extensionSize(VsId V, double Cap = 1e30) const;

  /// Every node id reachable from \p V (including \p V).
  std::vector<VsId> reachable(VsId V) const;

  /// Appends to \p Out, and adds to \p Seen, every node reachable from
  /// \p V that \p Seen does not hold yet.
  void collectReachable(VsId V, VsMarks &Seen, std::vector<VsId> &Out) const;

  //===--------------------------------------------------------------------===//
  // Refactoring operators (paper Fig 5)
  //===--------------------------------------------------------------------===//

  /// ↓ᵏc — downshifts free indices by \p Delta below cutoff \p Cutoff;
  /// occurrences of the skipped band become ∅ (Fig 5E).
  VsId shiftFree(VsId V, int Delta, int Cutoff = 0);

  /// ⟦a⟧ ∩ ⟦b⟧ as a version space.
  VsId intersection(VsId A, VsId B);

  /// S_k — all top-level redexes (λ body) value that β-reduce into ⟦v⟧,
  /// as (value space, union of body spaces) pairs in ascending value id
  /// (Fig 5D). The span dangles at the next substitutions() call.
  std::span<const std::pair<VsId, VsId>> substitutions(VsId V, int K = 0);

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
                            ExtractionMemo &Memo) const;

  /// Candidate-free extraction from a fresh memo.
  ExprPtr extractCheapest(VsId V) const;

private:
  /// Open-addressing slot of the intern table: a node id and the low 32
  /// bits of its content hash, where its probe starts.
  struct InternSlot {
    uint32_t Hash = 0;
    VsId Id = -1;
  };

  /// The id of the node with \p Key's content (and \p Members, for a
  /// union), interning it when new.
  VsId intern(const VsNode &Key, std::span<const VsId> Members = {});
  bool sameContent(const VsNode &N, const VsNode &Key,
                   std::span<const VsId> Members) const;
  Extraction extract(VsId V, const ExtractionScope &Scope,
                     ExtractionMemo &Memo) const;

  std::vector<VsNode> Nodes;
  std::vector<VsId> MemberPool;
  VsId VoidId = 0;
  VsId UniverseId = 1;

  // Hash-consing of every node kind; empty once frozen.
  std::vector<InternSlot> InternSlots;
  std::vector<VsId> UnionScratch;
  bool Frozen = false;

  // Operator memos. SubstitutionMemo maps (V, K) to a range of
  // SubstitutionPool; InversionMemo is indexed by node id (-1: none).
  struct PoolRange {
    uint32_t Begin = 0, Count = 0;
  };
  FlatKeyMap<VsId> IncorporateMemo;
  FlatKeyMap<VsId> ShiftMemo;
  FlatKeyMap<VsId> IntersectionMemo;
  FlatKeyMap<PoolRange> SubstitutionMemo;
  std::vector<std::pair<VsId, VsId>> SubstitutionPool;
  std::vector<VsId> InversionMemo;
  FlatKeyMap<VsId> InversionNMemo;
};

/// A final table's parent edges in CSR form: for each node, the nodes that
/// hold it as a body, function, argument or member. Built once per
/// compression round, when the merged table stops growing.
class VsParents {
public:
  VsParents() = default;
  explicit VsParents(const VersionTable &T);

  /// Resets \p Cone to every node from which \p V is reachable, \p V
  /// included: the nodes whose minimal extraction can change when \p V
  /// becomes a unit-cost invention. Node ids rise from children to
  /// parents, so these are the nodes above \p V.
  void cone(VsId V, VsMarks &Cone) const;

private:
  std::vector<uint32_t> Begin; ///< node V's parents: [Begin[V], Begin[V+1])
  std::vector<VsId> Parents;
};

} // namespace dc

#endif // DC_VS_VERSIONSPACE_H
