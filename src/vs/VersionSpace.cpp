//===- vs/VersionSpace.cpp - Version spaces and inverse beta-reduction ----===//

#include "vs/VersionSpace.h"

#include "obs/Metrics.h"

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>

using namespace dc;

namespace {
constexpr double Infinity = std::numeric_limits<double>::infinity();
// The internal-node cost lives in VersionSpace.h (ExtractionEpsilonCost)
// so the top-down rewriter prices members on the same scale.
constexpr double EpsilonCost = dc::ExtractionEpsilonCost;

/// True when \p E improves on \p Best under the extraction order: strictly
/// cheaper, or equal cost and structurally smaller (exprCompare). Breaking
/// exact-cost ties by term content instead of union-member position makes
/// the chosen program a pure function of the version-space *structure* —
/// independent of node-id assignment, and therefore identical whether the
/// DAG was built in a private shard, a cached shard, or the merged master
/// table. The shard cache and cross-round rewrite memo both rely on this
/// (vs/VersionSpaceCache.h, DESIGN.md §8).
bool extractionImproves(const dc::Extraction &E, const dc::Extraction &Best) {
  if (!E.Program)
    return false;
  if (!Best.Program)
    return true;
  if (E.Cost != Best.Cost)
    return E.Cost < Best.Cost;
  return dc::exprCompare(E.Program, Best.Program) < 0;
}

/// A size or key field that does not fit its packed width stops the
/// process, in every build type, rather than aliasing another entry.
void checkFits(bool Fits, const char *What) {
  if (Fits) [[likely]]
    return;
  std::fprintf(stderr, "VersionTable: %s does not fit its packed field\n",
               What);
  std::abort();
}

/// A node id and a 32-bit field in one memo key. Node ids are
/// non-negative ints, so no key is the reserved all-ones one.
uint64_t packKey(VsId V, uint32_t Low) {
  return static_cast<uint64_t>(V) << 32 | Low;
}

} // namespace

VersionTable::VersionTable() {
  Nodes.push_back({VsKind::Void});
  Nodes.push_back({VsKind::Universe});
  VoidId = 0;
  UniverseId = 1;
}

//===----------------------------------------------------------------------===//
// Hash-consing
//===----------------------------------------------------------------------===//

bool VersionTable::sameContent(const VsNode &N, const VsNode &Key,
                               std::span<const VsId> Members) const {
  if (N.Kind != Key.Kind)
    return false;
  switch (N.Kind) {
  case VsKind::Index:
    return N.Index == Key.Index;
  case VsKind::Terminal:
    return N.Leaf == Key.Leaf;
  case VsKind::Abstraction:
    return N.Body == Key.Body;
  case VsKind::Application:
    return N.Fn == Key.Fn && N.Arg == Key.Arg;
  case VsKind::Union:
    return N.MemberCount == Members.size() &&
           std::equal(Members.begin(), Members.end(),
                      MemberPool.begin() + N.MemberBegin);
  default:
    return false; // ∅ and Λ are never interned
  }
}

VsId VersionTable::intern(const VsNode &Key, std::span<const VsId> Members) {
  assert(!Frozen && "a frozen table never interns");
  uint64_t H = static_cast<uint64_t>(Key.Kind);
  switch (Key.Kind) {
  case VsKind::Index:
    H = mixHash(H << 32 ^ static_cast<uint32_t>(Key.Index));
    break;
  case VsKind::Terminal:
    H = mixHash(H ^ reinterpret_cast<uintptr_t>(Key.Leaf));
    break;
  case VsKind::Abstraction:
    H = mixHash(H << 32 ^ static_cast<uint32_t>(Key.Body));
    break;
  case VsKind::Application:
    H = mixHash(mixHash(H << 32 ^ static_cast<uint32_t>(Key.Fn)) ^
                static_cast<uint32_t>(Key.Arg));
    break;
  default:
    for (VsId M : Members)
      H = (H ^ static_cast<uint32_t>(M)) * 0x9e3779b97f4a7c15ull;
    H = mixHash(H);
    break;
  }
  const uint32_t Hash = static_cast<uint32_t>(H);

  // Keep the load at most one half.
  if ((Nodes.size() + 1) * 2 > InternSlots.size()) {
    std::vector<InternSlot> Old(std::max<size_t>(64, InternSlots.size() * 2));
    checkFits(Old.size() - 1 <= UINT32_MAX, "intern table size");
    Old.swap(InternSlots);
    const size_t Mask = InternSlots.size() - 1;
    for (const InternSlot &S : Old) {
      if (S.Id < 0)
        continue;
      size_t I = S.Hash & Mask;
      while (InternSlots[I].Id >= 0)
        I = (I + 1) & Mask;
      InternSlots[I] = S;
    }
  }
  const size_t Mask = InternSlots.size() - 1;
  size_t I = Hash & Mask;
  for (; InternSlots[I].Id >= 0; I = (I + 1) & Mask) {
    const InternSlot &S = InternSlots[I];
    if (S.Hash == Hash && sameContent(Nodes[S.Id], Key, Members))
      return S.Id;
  }

  checkFits(Nodes.size() < static_cast<size_t>(INT_MAX), "node id");
  VsNode N = Key;
  if (Key.Kind == VsKind::Union) {
    checkFits(MemberPool.size() + Members.size() <= UINT32_MAX,
              "member pool offset");
    N.MemberBegin = static_cast<uint32_t>(MemberPool.size());
    N.MemberCount = static_cast<uint32_t>(Members.size());
    MemberPool.insert(MemberPool.end(), Members.begin(), Members.end());
  }
  const VsId V = static_cast<VsId>(Nodes.size());
  Nodes.push_back(N);
  InternSlots[I] = {Hash, V};
  return V;
}

VsId VersionTable::index(int I) {
  VsNode Key{VsKind::Index};
  Key.Index = I;
  return intern(Key);
}

VsId VersionTable::terminal(ExprPtr Leaf) {
  assert(Leaf && (Leaf->isPrimitive() || Leaf->isInvented()) &&
         "terminals are primitives or invented routines");
  VsNode Key{VsKind::Terminal};
  Key.Leaf = Leaf;
  return intern(Key);
}

VsId VersionTable::abstraction(VsId Body) {
  if (Body == VoidId)
    return VoidId;
  VsNode Key{VsKind::Abstraction};
  Key.Body = Body;
  return intern(Key);
}

VsId VersionTable::apply(VsId Fn, VsId Arg) {
  if (Fn == VoidId || Arg == VoidId)
    return VoidId;
  VsNode Key{VsKind::Application};
  Key.Fn = Fn;
  Key.Arg = Arg;
  return intern(Key);
}

VsId VersionTable::unionOf(std::vector<VsId> Members) {
  // Flatten nested unions, drop ∅, absorb into Λ, dedupe.
  std::vector<VsId> &Flat = UnionScratch;
  Flat.clear();
  for (VsId M : Members) {
    if (M == VoidId)
      continue;
    if (M == UniverseId)
      return UniverseId;
    if (Nodes[M].Kind == VsKind::Union) {
      std::span<const VsId> Inner = members(M);
      Flat.insert(Flat.end(), Inner.begin(), Inner.end());
      continue;
    }
    Flat.push_back(M);
  }
  std::sort(Flat.begin(), Flat.end());
  Flat.erase(std::unique(Flat.begin(), Flat.end()), Flat.end());
  if (Flat.empty())
    return VoidId;
  if (Flat.size() == 1)
    return Flat.front();
  return intern(VsNode{VsKind::Union}, Flat);
}

VsId VersionTable::incorporate(ExprPtr E) {
  const uint64_t Key = reinterpret_cast<uintptr_t>(E);
  if (const VsId *Hit = IncorporateMemo.find(Key))
    return *Hit;
  VsId V = VoidId;
  switch (E->kind()) {
  case ExprKind::Index:
    V = index(E->index());
    break;
  case ExprKind::Primitive:
  case ExprKind::Invented:
    V = terminal(E);
    break;
  case ExprKind::Abstraction:
    V = abstraction(incorporate(E->body()));
    break;
  case ExprKind::Application:
    V = apply(incorporate(E->fn()), incorporate(E->arg()));
    break;
  }
  IncorporateMemo.insert(Key, V);
  return V;
}

VsId VersionTable::absorb(const VersionTable &Src, VsId Root,
                          std::vector<VsId> &Memo) {
  assert(Memo.size() == Src.size() && "memo must be sized to the source");
  if (Memo[Root] >= 0)
    return Memo[Root];
  const VsNode &N = Src.Nodes[Root];
  VsId Out = VoidId;
  switch (N.Kind) {
  case VsKind::Void:
    Out = VoidId;
    break;
  case VsKind::Universe:
    Out = UniverseId;
    break;
  case VsKind::Index:
    Out = index(N.Index);
    break;
  case VsKind::Terminal:
    Out = terminal(N.Leaf);
    break;
  case VsKind::Abstraction:
    Out = abstraction(absorb(Src, N.Body, Memo));
    break;
  case VsKind::Application: {
    VsId Fn = absorb(Src, N.Fn, Memo);
    Out = apply(Fn, absorb(Src, N.Arg, Memo));
    break;
  }
  case VsKind::Union: {
    std::vector<VsId> Members;
    Members.reserve(N.MemberCount);
    for (VsId M : Src.members(Root))
      Members.push_back(absorb(Src, M, Memo));
    Out = unionOf(std::move(Members));
    break;
  }
  }
  Memo[Root] = Out;
  return Out;
}

void VersionTable::freeze() {
  Frozen = true;
  std::vector<InternSlot>().swap(InternSlots);
  std::vector<VsId>().swap(UnionScratch);
  IncorporateMemo.release();
  ShiftMemo.release();
  IntersectionMemo.release();
  SubstitutionMemo.release();
  std::vector<std::pair<VsId, VsId>>().swap(SubstitutionPool);
  std::vector<VsId>().swap(InversionMemo);
  InversionNMemo.release();
  Nodes.shrink_to_fit();
  MemberPool.shrink_to_fit();
}

//===----------------------------------------------------------------------===//
// Queries
//===----------------------------------------------------------------------===//

namespace {
bool memberContains(const VersionTable &T, VsId V, ExprPtr E,
                    std::map<std::pair<VsId, ExprPtr>, bool> &Memo) {
  auto Key = std::make_pair(V, E);
  auto It = Memo.find(Key);
  if (It != Memo.end())
    return It->second;
  const VsNode &N = T.node(V);
  bool Result = false;
  switch (N.Kind) {
  case VsKind::Void:
    Result = false;
    break;
  case VsKind::Universe:
    Result = true;
    break;
  case VsKind::Index:
    Result = E->isIndex() && E->index() == N.Index;
    break;
  case VsKind::Terminal:
    Result = E == N.Leaf;
    break;
  case VsKind::Abstraction:
    Result = E->isAbstraction() && memberContains(T, N.Body, E->body(), Memo);
    break;
  case VsKind::Application:
    Result = E->isApplication() && memberContains(T, N.Fn, E->fn(), Memo) &&
             memberContains(T, N.Arg, E->arg(), Memo);
    break;
  case VsKind::Union:
    for (VsId M : T.members(V))
      if (memberContains(T, M, E, Memo)) {
        Result = true;
        break;
      }
    break;
  }
  Memo.emplace(Key, Result);
  return Result;
}

/// extensionSize's recursion; \p Memo holds this call's counts (-1: none),
/// each already saturated at \p Cap.
double countExtension(const VersionTable &T, VsId V, double Cap,
                      std::vector<double> &Memo) {
  if (Memo[V] >= 0)
    return Memo[V];
  const VsNode &N = T.node(V);
  double Result = 0;
  switch (N.Kind) {
  case VsKind::Void:
    Result = 0;
    break;
  case VsKind::Universe:
    Result = Cap; // infinite extension; saturate
    break;
  case VsKind::Index:
  case VsKind::Terminal:
    Result = 1;
    break;
  case VsKind::Abstraction:
    Result = countExtension(T, N.Body, Cap, Memo);
    break;
  case VsKind::Application:
    Result = countExtension(T, N.Fn, Cap, Memo) *
             countExtension(T, N.Arg, Cap, Memo);
    break;
  case VsKind::Union:
    // Members of a hash-consed union are distinct, and in practice their
    // extensions are disjoint alternatives produced by different inversion
    // choices; sum (this matches how the paper counts refactorings).
    for (VsId M : T.members(V))
      Result += countExtension(T, M, Cap, Memo);
    break;
  }
  Result = std::min(Result, Cap);
  Memo[V] = Result;
  return Result;
}
} // namespace

bool VersionTable::extensionContains(VsId V, ExprPtr E) const {
  std::map<std::pair<VsId, ExprPtr>, bool> Memo;
  return memberContains(*this, V, E, Memo);
}

std::vector<ExprPtr> VersionTable::extensionSample(VsId V, int Limit) const {
  std::vector<ExprPtr> Out;
  if (Limit <= 0)
    return Out;
  const VsNode &N = Nodes[V];
  switch (N.Kind) {
  case VsKind::Void:
  case VsKind::Universe:
    break; // Λ's extension is not enumerable; report nothing
  case VsKind::Index:
    Out.push_back(Expr::index(N.Index));
    break;
  case VsKind::Terminal:
    Out.push_back(N.Leaf);
    break;
  case VsKind::Abstraction:
    for (ExprPtr B : extensionSample(N.Body, Limit))
      Out.push_back(Expr::abstraction(B));
    break;
  case VsKind::Application:
    for (ExprPtr F : extensionSample(N.Fn, Limit)) {
      for (ExprPtr X : extensionSample(N.Arg, Limit)) {
        Out.push_back(Expr::application(F, X));
        if (static_cast<int>(Out.size()) >= Limit)
          return Out;
      }
    }
    break;
  case VsKind::Union:
    for (VsId M : members(V)) {
      for (ExprPtr E :
           extensionSample(M, Limit - static_cast<int>(Out.size())))
        Out.push_back(E);
      if (static_cast<int>(Out.size()) >= Limit)
        break;
    }
    break;
  }
  if (static_cast<int>(Out.size()) > Limit)
    Out.resize(Limit);
  return Out;
}

double VersionTable::extensionSize(VsId V, double Cap) const {
  // The memo lives for one call: counts saturate at this call's cap.
  std::vector<double> Memo(Nodes.size(), -1);
  return countExtension(*this, V, Cap, Memo);
}

std::vector<VsId> VersionTable::reachable(VsId V) const {
  VsMarks Seen;
  Seen.reset(Nodes.size());
  std::vector<VsId> Out;
  collectReachable(V, Seen, Out);
  return Out;
}

void VersionTable::collectReachable(VsId V, VsMarks &Seen,
                                    std::vector<VsId> &Out) const {
  std::vector<VsId> Stack = {V};
  while (!Stack.empty()) {
    VsId Cur = Stack.back();
    Stack.pop_back();
    if (!Seen.insert(Cur))
      continue;
    Out.push_back(Cur);
    const VsNode &N = Nodes[Cur];
    switch (N.Kind) {
    case VsKind::Abstraction:
      Stack.push_back(N.Body);
      break;
    case VsKind::Application:
      Stack.push_back(N.Fn);
      Stack.push_back(N.Arg);
      break;
    case VsKind::Union: {
      std::span<const VsId> Ms = members(Cur);
      Stack.insert(Stack.end(), Ms.begin(), Ms.end());
      break;
    }
    default:
      break;
    }
  }
}

void VsMarks::reset(size_t Nodes) {
  if (Stamps.size() < Nodes)
    Stamps.resize(Nodes, 0);
  if (++Generation == 0) { // wrapped: stale stamps could read as current
    std::fill(Stamps.begin(), Stamps.end(), 0);
    Generation = 1;
  }
}

VsParents::VsParents(const VersionTable &T) {
  const size_t N = T.size();
  auto ForEachChild = [&T](VsId V, auto &&Visit) {
    const VsNode &Node = T.node(V);
    switch (Node.Kind) {
    case VsKind::Abstraction:
      Visit(Node.Body);
      break;
    case VsKind::Application:
      Visit(Node.Fn);
      Visit(Node.Arg);
      break;
    case VsKind::Union:
      for (VsId M : T.members(V))
        Visit(M);
      break;
    default:
      break;
    }
  };
  std::vector<size_t> Count(N + 1, 0);
  for (VsId V = 0; V < static_cast<VsId>(N); ++V)
    ForEachChild(V, [&](VsId C) { ++Count[C + 1]; });
  for (size_t V = 0; V < N; ++V)
    Count[V + 1] += Count[V];
  checkFits(Count[N] <= UINT32_MAX, "parent edge offset");
  Begin.assign(Count.begin(), Count.end());
  Parents.resize(Count[N]);
  for (VsId V = 0; V < static_cast<VsId>(N); ++V)
    ForEachChild(V, [&](VsId C) { Parents[Count[C]++] = V; });
}

void VsParents::cone(VsId V, VsMarks &Cone) const {
  Cone.reset(Begin.size() - 1);
  Cone.insert(V);
  std::vector<VsId> Stack = {V};
  while (!Stack.empty()) {
    VsId Cur = Stack.back();
    Stack.pop_back();
    for (uint32_t E = Begin[Cur]; E < Begin[Cur + 1]; ++E)
      if (Cone.insert(Parents[E]))
        Stack.push_back(Parents[E]);
  }
}

//===----------------------------------------------------------------------===//
// Refactoring operators
//===----------------------------------------------------------------------===//

VsId VersionTable::shiftFree(VsId V, int Delta, int Cutoff) {
  if (Delta == 0)
    return V;
  checkFits(Delta >= INT16_MIN && Delta <= INT16_MAX, "shift delta");
  checkFits(Cutoff >= 0 && Cutoff <= UINT16_MAX, "shift cutoff");
  const uint64_t Key =
      packKey(V, static_cast<uint32_t>(static_cast<uint16_t>(Delta)) << 16 |
                     static_cast<uint32_t>(Cutoff));
  if (const VsId *Hit = ShiftMemo.find(Key))
    return *Hit;
  const VsNode N = Nodes[V]; // copy: interning below may grow Nodes
  VsId Result = VoidId;
  switch (N.Kind) {
  case VsKind::Void:
  case VsKind::Universe:
  case VsKind::Terminal:
    Result = V;
    break;
  case VsKind::Index:
    if (N.Index < Cutoff)
      Result = V;
    else if (Delta < 0 && N.Index < Cutoff - Delta)
      Result = VoidId; // the band [Cutoff, Cutoff-Delta) disappears (Fig 5E)
    else
      Result = index(N.Index + Delta);
    break;
  case VsKind::Abstraction:
    Result = abstraction(shiftFree(N.Body, Delta, Cutoff + 1));
    break;
  case VsKind::Application:
    Result = apply(shiftFree(N.Fn, Delta, Cutoff),
                   shiftFree(N.Arg, Delta, Cutoff));
    break;
  case VsKind::Union: {
    // A copy: interning below may grow the member pool.
    const std::span<const VsId> Ms = members(V);
    std::vector<VsId> Shifted(Ms.begin(), Ms.end());
    for (VsId &M : Shifted)
      M = shiftFree(M, Delta, Cutoff);
    Result = unionOf(std::move(Shifted));
    break;
  }
  }
  ShiftMemo.insert(Key, Result);
  return Result;
}

VsId VersionTable::intersection(VsId A, VsId B) {
  if (A == B)
    return A;
  if (A == VoidId || B == VoidId)
    return VoidId;
  if (A == UniverseId)
    return B;
  if (B == UniverseId)
    return A;
  const uint64_t Key =
      packKey(std::min(A, B), static_cast<uint32_t>(std::max(A, B)));
  if (const VsId *Hit = IntersectionMemo.find(Key))
    return *Hit;

  VsId Result = VoidId;
  const VsNode NA = Nodes[A]; // copies: interning may reallocate Nodes
  const VsNode NB = Nodes[B];
  if (NA.Kind == VsKind::Union || NB.Kind == VsKind::Union) {
    // Copies too: interning may grow the member pool.
    auto Alternatives = [this](VsId V) {
      if (Nodes[V].Kind != VsKind::Union)
        return std::vector<VsId>{V};
      const std::span<const VsId> Ms = members(V);
      return std::vector<VsId>(Ms.begin(), Ms.end());
    };
    const std::vector<VsId> Left = Alternatives(A), Right = Alternatives(B);
    std::vector<VsId> Parts;
    Parts.reserve(Left.size() * Right.size());
    for (VsId L : Left)
      for (VsId R : Right)
        Parts.push_back(intersection(L, R));
    Result = unionOf(std::move(Parts));
  } else if (NA.Kind == VsKind::Abstraction &&
             NB.Kind == VsKind::Abstraction) {
    Result = abstraction(intersection(NA.Body, NB.Body));
  } else if (NA.Kind == VsKind::Application &&
             NB.Kind == VsKind::Application) {
    Result = apply(intersection(NA.Fn, NB.Fn), intersection(NA.Arg, NB.Arg));
  } else if (NA.Kind == VsKind::Index && NB.Kind == VsKind::Index &&
             NA.Index == NB.Index) {
    Result = A;
  } else if (NA.Kind == VsKind::Terminal && NB.Kind == VsKind::Terminal &&
             NA.Leaf == NB.Leaf) {
    Result = A;
  }
  IntersectionMemo.insert(Key, Result);
  return Result;
}

std::span<const std::pair<VsId, VsId>>
VersionTable::substitutions(VsId V, int K) {
  const uint64_t Key = packKey(V, static_cast<uint32_t>(K));
  if (const PoolRange *Hit = SubstitutionMemo.find(Key))
    return {SubstitutionPool.data() + Hit->Begin, Hit->Count};

  // (value, body) pairs; bodies are unioned per value at the end (Fig 5D).
  std::vector<std::pair<VsId, VsId>> Bodies;

  // The "lift the whole subterm out" case: (λ $K) (↓ᴷ₀ v).
  VsId Lifted = shiftFree(V, -K, 0);
  if (Lifted != VoidId)
    Bodies.push_back({Lifted, index(K)});

  const VsNode N = Nodes[V]; // copy: recursion below may reallocate Nodes
  switch (N.Kind) {
  case VsKind::Void:
    break;
  case VsKind::Universe:
    Bodies.push_back({UniverseId, UniverseId});
    break;
  case VsKind::Terminal:
    Bodies.push_back({UniverseId, V});
    break;
  case VsKind::Index:
    if (N.Index < K)
      Bodies.push_back({UniverseId, V});
    else
      Bodies.push_back({UniverseId, index(N.Index + 1)});
    break;
  case VsKind::Abstraction:
    // abstraction() never touches the substitution pool, so the span holds.
    for (const auto &[Value, Body] : substitutions(N.Body, K + 1))
      Bodies.push_back({Value, abstraction(Body)});
    break;
  case VsKind::Application: {
    // Copy the function's pairs: the argument's may grow the pool. Neither
    // intersection() nor apply() touches it, so the argument's span holds.
    const auto FnSpan = substitutions(N.Fn, K);
    const std::vector<std::pair<VsId, VsId>> FnSubs(FnSpan.begin(),
                                                    FnSpan.end());
    const auto ArgSubs = substitutions(N.Arg, K);
    for (const auto &[V1, FnBody] : FnSubs)
      for (const auto &[V2, ArgBody] : ArgSubs) {
        VsId Value = intersection(V1, V2);
        if (Value == VoidId)
          continue;
        Bodies.push_back({Value, apply(FnBody, ArgBody)});
      }
    break;
  }
  case VsKind::Union: {
    // A copy: the members' substitutions may grow the member pool.
    const std::span<const VsId> Ms = members(V);
    for (VsId M : std::vector<VsId>(Ms.begin(), Ms.end()))
      for (const auto &[Value, Body] : substitutions(M, K))
        Bodies.push_back({Value, Body});
    break;
  }
  }

  // One union per value, interned in ascending value order. Member order
  // within a value does not matter: unionOf sorts.
  std::sort(Bodies.begin(), Bodies.end());
  const size_t Begin = SubstitutionPool.size();
  std::vector<VsId> Group;
  for (size_t I = 0; I < Bodies.size();) {
    const VsId Value = Bodies[I].first;
    Group.clear();
    for (; I < Bodies.size() && Bodies[I].first == Value; ++I)
      Group.push_back(Bodies[I].second);
    SubstitutionPool.push_back({Value, unionOf(std::move(Group))});
  }
  const size_t Count = SubstitutionPool.size() - Begin;
  checkFits(SubstitutionPool.size() <= UINT32_MAX, "substitution pool offset");
  SubstitutionMemo.insert(Key, {static_cast<uint32_t>(Begin),
                                static_cast<uint32_t>(Count)});
  return {SubstitutionPool.data() + Begin, Count};
}

VsId VersionTable::inversion(VsId V) {
  if (static_cast<size_t>(V) < InversionMemo.size() && InversionMemo[V] >= 0)
    return InversionMemo[V];

  std::vector<VsId> Parts;
  // Top-level redexes from S (Fig 5C first clause). Values equal to Λ
  // yield (λ b) Λ refactorings that extraction can never choose (Λ has
  // infinite cost), so they are skipped; so is the trivial identity
  // redex (λ $0) v. The loop interns but never touches the substitution
  // pool, so the span holds.
  for (const auto &[Value, Body] : substitutions(V, 0)) {
    if (Value == UniverseId)
      continue;
    if (Body == index(0))
      continue;
    Parts.push_back(apply(abstraction(Body), Value));
  }

  const VsNode N = Nodes[V]; // copy before more interning
  switch (N.Kind) {
  case VsKind::Abstraction:
    Parts.push_back(abstraction(inversion(N.Body)));
    break;
  case VsKind::Application:
    Parts.push_back(apply(inversion(N.Fn), N.Arg));
    Parts.push_back(apply(N.Fn, inversion(N.Arg)));
    break;
  case VsKind::Union: {
    // A copy: inverting the members may grow the member pool.
    const std::span<const VsId> Ms = members(V);
    for (VsId M : std::vector<VsId>(Ms.begin(), Ms.end()))
      Parts.push_back(inversion(M));
    break;
  }
  default:
    break;
  }

  VsId Result = unionOf(std::move(Parts));
  if (InversionMemo.size() <= static_cast<size_t>(V))
    InversionMemo.resize(Nodes.size(), -1);
  InversionMemo[V] = Result;
  return Result;
}

VsId VersionTable::inversionN(VsId V, int Steps) {
  const uint64_t Key = packKey(V, static_cast<uint32_t>(Steps));
  if (const VsId *Hit = InversionNMemo.find(Key))
    return *Hit;
  std::vector<VsId> Parts = {V};
  VsId Cur = V;
  for (int I = 0; I < Steps; ++I) {
    Cur = inversion(Cur);
    if (Cur == VoidId)
      break;
    Parts.push_back(Cur);
  }
  VsId Result = unionOf(std::move(Parts));
  InversionNMemo.insert(Key, Result);
  return Result;
}

VsId VersionTable::betaClosure(ExprPtr E, int N) {
  // Telemetry: count root closures and the nodes each one adds. Depth
  // tracks the structural recursion below so only the outermost call
  // reports (inner calls are the same closure, not new ones).
  thread_local int ClosureDepth = 0;
  const bool AtRoot = ClosureDepth == 0 && obs::Telemetry::enabled();
  const size_t NodesBefore = AtRoot ? Nodes.size() : 0;
  ++ClosureDepth;

  // Paper §3.1: Iβ(ρ) = Iβn(ρ) ⊎ (structural recursion into subterms),
  // compiling together the equivalences discovered at every subtree.
  VsId Child = VoidId;
  switch (E->kind()) {
  case ExprKind::Index:
  case ExprKind::Primitive:
  case ExprKind::Invented:
    Child = VoidId;
    break;
  case ExprKind::Abstraction:
    Child = abstraction(betaClosure(E->body(), N));
    break;
  case ExprKind::Application:
    Child = apply(betaClosure(E->fn(), N), betaClosure(E->arg(), N));
    break;
  }
  VsId NStep = inversionN(incorporate(E), N);
  VsId Out = unionOf({NStep, Child});

  --ClosureDepth;
  if (AtRoot) {
    obs::countAdd("vs.beta_closures");
    obs::countAdd("vs.nodes_created",
                  static_cast<long>(Nodes.size() - NodesBefore));
    obs::gaugeSet("vs.table_nodes", static_cast<double>(Nodes.size()));
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Extraction
//===----------------------------------------------------------------------===//

Extraction VersionTable::extractMinimal(VsId V, const ExtractionScope &Scope,
                                        ExtractionMemo &Memo) const {
  Memo.fit(Nodes.size());
  return extract(V, Scope, Memo);
}

Extraction VersionTable::extract(VsId V, const ExtractionScope &Scope,
                                 ExtractionMemo &Memo) const {
  if (V == Scope.Candidate) {
    // Cost 1 is already minimal: no sibling member can beat the invention.
    assert(Scope.CandidateExpr && "candidate requires its invention");
    return {1.0, Scope.CandidateExpr};
  }
  // Outside the cone the candidate cannot matter, so the candidate-free
  // shared memo answers; children of such a node are outside it too.
  if (Scope.Shared && !(Scope.Cone && Scope.Cone->contains(V)))
    if (const Extraction *Hit = Scope.Shared->find(V))
      return *Hit;
  if (const Extraction *Hit = Memo.find(V))
    return *Hit;

  // Extraction never interns, so Nodes cannot reallocate underneath us.
  const VsNode &N = Nodes[V];
  Extraction Result{Infinity, nullptr};
  switch (N.Kind) {
  case VsKind::Void:
  case VsKind::Universe:
    break; // inextractable
  case VsKind::Index:
    Result = {1.0, Expr::index(N.Index)};
    break;
  case VsKind::Terminal:
    Result = {1.0, N.Leaf};
    break;
  case VsKind::Abstraction: {
    Extraction Body = extract(N.Body, Scope, Memo);
    if (Body.Program)
      Result = {EpsilonCost + Body.Cost, Expr::abstraction(Body.Program)};
    break;
  }
  case VsKind::Application: {
    Extraction Fn = extract(N.Fn, Scope, Memo);
    if (!Fn.Program)
      break;
    Extraction Arg = extract(N.Arg, Scope, Memo);
    if (!Arg.Program)
      break;
    Result = {EpsilonCost + Fn.Cost + Arg.Cost,
              Expr::application(Fn.Program, Arg.Program)};
    break;
  }
  case VsKind::Union:
    for (VsId M : members(V)) {
      Extraction E = extract(M, Scope, Memo);
      if (extractionImproves(E, Result))
        Result = E;
    }
    break;
  }
  Memo.set(V, Result);
  return Result;
}

ExprPtr VersionTable::extractCheapest(VsId V) const {
  ExtractionMemo Memo;
  return extractMinimal(V, {}, Memo).Program;
}
