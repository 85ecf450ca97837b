//===- core/Type.cpp - Polymorphic types implementation -------------------===//

#include "core/Type.h"
#include "core/Hash.h"

#include <algorithm>
#include <iterator>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

using namespace dc;

namespace {

/// The fields that identify a node, borrowed from the caller so a lookup
/// that hits allocates nothing.
struct TypeKey {
  Type::Kind Kind;
  int VarId;
  TypeName Head;
  const TypePtr *Args;
  size_t NumArgs;
  size_t Hash;
};

size_t keyHash(Type::Kind Kind, int VarId, TypeName Head,
               const TypePtr *Args, size_t NumArgs) {
  if (Kind == Type::Kind::Variable)
    return hashCombine(0x7661726961626c65ULL, static_cast<size_t>(VarId));
  size_t H = std::hash<std::string_view>()(*Head);
  for (size_t I = 0; I < NumArgs; ++I)
    H = hashCombine(H, Args[I]->hash());
  return H;
}

/// Transparent hash and equality so a shard's set of nodes can be probed
/// with a borrowed TypeKey.
struct NodeHash {
  using is_transparent = void;
  size_t operator()(TypePtr T) const { return T->hash(); }
  size_t operator()(const TypeKey &K) const { return K.Hash; }
};

struct NodeEq {
  using is_transparent = void;
  bool operator()(TypePtr A, TypePtr B) const { return A == B; }
  bool operator()(const TypeKey &K, TypePtr T) const {
    if (K.Hash != T->hash() || K.Kind != T->kind())
      return false;
    if (K.Kind == Type::Kind::Variable)
      return K.VarId == T->variableId();
    return K.Head == T->head() &&
           std::equal(K.Args, K.Args + K.NumArgs, T->arguments().begin(),
                      T->arguments().end());
  }
  bool operator()(TypePtr T, const TypeKey &K) const { return (*this)(K, T); }
};

} // namespace

namespace dc {

/// Process-wide arena owning every Type and constructor name ever created.
/// Like the Expr arena (core/Program.cpp) it never frees, which keeps
/// TypePtr trivially copyable, and it is sharded by key hash with one mutex
/// per shard so concurrent searches do not serialize on one lock. Nodes are
/// immutable after construction and published under the shard lock.
class TypeArena {
public:
  static TypeArena &get() {
    static TypeArena *Singleton = new TypeArena();
    return *Singleton;
  }

  TypeName name(const std::string &Name) {
    std::lock_guard<std::mutex> Lock(NamesMutex);
    return &*Names.insert(Name).first;
  }

  TypePtr intern(Type::Kind Kind, int VarId, TypeName Head,
                 const TypePtr *Args, size_t NumArgs) {
    size_t Hash = keyHash(Kind, VarId, Head, Args, NumArgs);
    TypeKey Key{Kind, VarId, Head, Args, NumArgs, Hash};
    Shard &S = Shards[Key.Hash % NumShards];
    std::lock_guard<std::mutex> Lock(S.Mutex);
    auto It = S.Interned.find(Key);
    if (It != S.Interned.end())
      return *It;
    TypePtr Node = create(Key);
    S.Interned.insert(Node);
    return Node;
  }

  TypePtr constructor(TypeName Head, const TypePtr *Args, size_t NumArgs) {
    return intern(Type::Kind::Constructor, 0, Head, Args, NumArgs);
  }

private:
  static TypePtr create(const TypeKey &Key) {
    auto *Node = new Type();
    Node->TheKind = Key.Kind;
    Node->HashVal = Key.Hash;
    if (Key.Kind == Type::Kind::Variable) {
      Node->VarId = Key.VarId;
      Node->MaxVar = Key.VarId;
      Node->Mono = false;
      return Node;
    }
    Node->Head = Key.Head;
    Node->Args.assign(Key.Args, Key.Args + Key.NumArgs);
    Node->Arrow = *Key.Head == "->" && Key.NumArgs == 2;
    for (TypePtr A : Node->Args) {
      Node->Mono = Node->Mono && A->isMonomorphic();
      Node->MaxVar = std::max(Node->MaxVar, A->maxVariable());
    }
    return Node;
  }

  static constexpr size_t NumShards = 64;
  struct Shard {
    std::mutex Mutex;
    std::unordered_set<TypePtr, NodeHash, NodeEq> Interned;
  };
  Shard Shards[NumShards];
  std::mutex NamesMutex;
  /// Node-based, so element addresses stay put as the set grows.
  std::unordered_set<std::string> Names;
};

} // namespace dc

namespace {

/// Rebuilds constructor \p U with every argument mapped through \p F,
/// returning \p U itself when no argument changed.
template <typename MapFn> TypePtr mapArguments(TypePtr U, MapFn &&F) {
  const std::vector<TypePtr> &Args = U->arguments();
  TypePtr Small[4];
  std::vector<TypePtr> Large;
  TypePtr *Out = Small;
  if (Args.size() > std::size(Small)) {
    Large.resize(Args.size());
    Out = Large.data();
  }
  bool Changed = false;
  for (size_t I = 0; I < Args.size(); ++I) {
    Out[I] = F(Args[I]);
    Changed = Changed || Out[I] != Args[I];
  }
  if (!Changed)
    return U;
  return TypeArena::get().constructor(U->head(), Out, Args.size());
}

/// Renames the variables of \p U to Base, Base+1, ... in order of first
/// occurrence. \p Renaming is indexed by old variable id (null = not yet
/// seen); \p Fresh counts the variables renamed so far.
TypePtr renameRec(TypePtr U, int Base, std::vector<TypePtr> &Renaming,
                  int &Fresh) {
  if (U->isVariable()) {
    TypePtr &New = Renaming[U->variableId()];
    if (!New)
      New = Type::variable(Base + Fresh++);
    return New;
  }
  if (U->isMonomorphic())
    return U;
  return mapArguments(
      U, [&](TypePtr A) { return renameRec(A, Base, Renaming, Fresh); });
}

/// renameRec over a whole type; \p Fresh receives the number of distinct
/// variables.
TypePtr renameFrom(TypePtr T, int Base, int &Fresh) {
  Fresh = 0;
  if (T->isMonomorphic())
    return T;
  std::vector<TypePtr> Renaming(T->maxVariable() + 1, nullptr);
  return renameRec(T, Base, Renaming, Fresh);
}

} // namespace

TypePtr Type::variable(int Id) {
  return TypeArena::get().intern(Kind::Variable, Id, nullptr, nullptr, 0);
}

TypePtr Type::constructor(const std::string &Name,
                          const std::vector<TypePtr> &Args) {
  assert(std::find(Args.begin(), Args.end(), nullptr) == Args.end() &&
         "constructor argument must be a type");
  TypeArena &Arena = TypeArena::get();
  return Arena.constructor(Arena.name(Name), Args.data(), Args.size());
}

TypePtr Type::arrow(TypePtr From, TypePtr To) {
  assert(From && To && "arrow sides must be types");
  static const TypeName ArrowName = TypeArena::get().name("->");
  TypePtr Args[2] = {From, To};
  return TypeArena::get().constructor(ArrowName, Args, 2);
}

TypePtr Type::arrows(const std::vector<TypePtr> &Args, TypePtr Ret) {
  TypePtr T = Ret;
  for (auto It = Args.rbegin(); It != Args.rend(); ++It)
    T = arrow(*It, T);
  return T;
}

void Type::showInto(std::string &Out) const {
  if (isVariable()) {
    Out += 't';
    Out += std::to_string(VarId);
    return;
  }
  if (isArrow()) {
    bool Paren = Args[0]->isArrow();
    if (Paren)
      Out += '(';
    Args[0]->showInto(Out);
    if (Paren)
      Out += ')';
    Out += " -> ";
    Args[1]->showInto(Out);
    return;
  }
  Out += *Head;
  if (Args.empty())
    return;
  Out += '(';
  for (size_t I = 0; I < Args.size(); ++I) {
    if (I)
      Out += ", ";
    Args[I]->showInto(Out);
  }
  Out += ')';
}

std::string Type::show() const {
  std::string Out;
  showInto(Out);
  return Out;
}

void Type::collectVariables(std::vector<int> &Out) const {
  if (isVariable()) {
    if (std::find(Out.begin(), Out.end(), VarId) == Out.end())
      Out.push_back(VarId);
    return;
  }
  for (TypePtr A : Args)
    A->collectVariables(Out);
}

std::vector<TypePtr> dc::functionArguments(TypePtr T) {
  std::vector<TypePtr> Out;
  for (; T->isArrow(); T = T->arrowResult())
    Out.push_back(T->arrowArgument());
  return Out;
}

//===----------------------------------------------------------------------===//
// Ground types
//===----------------------------------------------------------------------===//

TypePtr dc::tInt() { return Type::constructor("int"); }
TypePtr dc::tReal() { return Type::constructor("real"); }
TypePtr dc::tBool() { return Type::constructor("bool"); }
TypePtr dc::tChar() { return Type::constructor("char"); }
TypePtr dc::tList(TypePtr Elem) { return Type::constructor("list", {Elem}); }
TypePtr dc::tString() { return tList(tChar()); }
TypePtr dc::t0() { return Type::variable(0); }
TypePtr dc::t1() { return Type::variable(1); }
TypePtr dc::t2() { return Type::variable(2); }

//===----------------------------------------------------------------------===//
// TypeContext
//===----------------------------------------------------------------------===//

void TypeContext::bind(int Var, TypePtr T) {
  if (Var >= static_cast<int>(Bindings.size()))
    Bindings.resize(Var + 1);
  Bindings[Var] = T;
  Trail.push_back(Var);
}

void TypeContext::undo(Mark M) {
  assert(M.Trail <= Trail.size() && "mark already undone");
  while (Trail.size() > M.Trail) {
    Bindings[Trail.back()] = nullptr;
    Trail.pop_back();
  }
  NextVar = M.NextVar;
}

TypePtr TypeContext::shallowResolve(TypePtr T) const {
  while (T->isVariable()) {
    TypePtr Bound = lookup(T->variableId());
    if (!Bound)
      return T;
    T = Bound;
  }
  return T;
}

TypePtr TypeContext::instantiate(TypePtr T) {
  if (T->isMonomorphic())
    return T; // nothing to rename
  // A pure function of (T, NextVar), so one memo per thread serves every
  // context. It is cleared when it grows past a few MB; entries only
  // ever save work.
  struct KeyHash {
    size_t operator()(const std::pair<TypePtr, int> &K) const {
      return hashCombine(K.first->hash(), static_cast<size_t>(K.second));
    }
  };
  static constexpr size_t MaxMemoEntries = 1 << 16;
  thread_local std::unordered_map<std::pair<TypePtr, int>,
                                  std::pair<TypePtr, int>, KeyHash>
      Memo;
  auto [It, Inserted] = Memo.try_emplace({T, NextVar});
  if (Inserted) {
    int Fresh = 0;
    It->second.first = renameFrom(T, NextVar, Fresh);
    It->second.second = Fresh;
  }
  auto [Result, Fresh] = It->second;
  NextVar += Fresh;
  if (Memo.size() > MaxMemoEntries)
    Memo.clear();
  return Result;
}

TypePtr TypeContext::apply(TypePtr T) const {
  TypePtr R = shallowResolve(T);
  if (R->isVariable() || R->isMonomorphic())
    return R;
  return mapArguments(R, [&](TypePtr A) { return apply(A); });
}

bool TypeContext::occurs(int Var, TypePtr T) const {
  if (T->isMonomorphic())
    return false;
  TypePtr R = shallowResolve(T);
  if (R->isVariable())
    return R->variableId() == Var;
  for (TypePtr A : R->arguments())
    if (occurs(Var, A))
      return true;
  return false;
}

bool TypeContext::unify(TypePtr A, TypePtr B) {
  TypePtr X = shallowResolve(A);
  TypePtr Y = shallowResolve(B);
  if (X == Y)
    return true;
  if (X->isVariable()) {
    if (occurs(X->variableId(), Y))
      return false;
    bind(X->variableId(), Y);
    return true;
  }
  if (Y->isVariable())
    return unify(Y, X);
  // Distinct interned nodes: two ground types cannot be equal.
  if ((X->isMonomorphic() && Y->isMonomorphic()) || X->head() != Y->head() ||
      X->arguments().size() != Y->arguments().size())
    return false;
  for (size_t I = 0; I < X->arguments().size(); ++I)
    if (!unify(X->arguments()[I], Y->arguments()[I]))
      return false;
  return true;
}

TypePtr dc::canonicalize(TypePtr T) {
  int Fresh = 0;
  return renameFrom(T, 0, Fresh);
}
