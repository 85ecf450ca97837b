//===- core/Program.cpp - Hash-consed lambda calculus programs ------------===//
//
// Every Expr is interned in one process-wide arena (ExprArena below),
// sharded under 64 mutexes so that parallel searches interning the
// programs they emit do not serialize on one lock. Each shard is an
// open-addressing table of slots, each a node and its mixed hash, kept at
// most half full and doubled when it would pass that. A probe compares a
// slot's hash before it reads the node, so walking past other nodes'
// slots touches only the slot array, and a lookup borrows the caller's
// fields (the primitive name as a string_view) so a hit allocates
// nothing.
//
// Expr::hash() is the structural hash hashCombine builds over (kind,
// index, name, children), unchanged because tables elsewhere key on it.
// An application's hash keeps its aligned child pointers' zero low bits,
// so the shard and the probe start come from mixHash() of it instead:
// the shard from its low 6 bits, the probe start from the bits above.
//
//===----------------------------------------------------------------------===//

#include "core/Program.h"
#include "core/Hash.h"

#include <algorithm>
#include <array>
#include <mutex>
#include <string_view>
#include <unordered_set>

using namespace dc;

namespace {

/// The fields that identify a node, borrowed from the caller. A primitive
/// is identified by its name alone: the registry creates one node per
/// name.
struct ExprKey {
  ExprKind Kind;
  int Index;
  std::string_view Name;
  ExprPtr A;
  ExprPtr B;
};

/// The structural hash Expr::hash() reports.
size_t keyHash(const ExprKey &K) {
  size_t H = std::hash<int>()(static_cast<int>(K.Kind));
  H = hashCombine(H, std::hash<int>()(K.Index));
  H = hashCombine(H, std::hash<std::string_view>()(K.Name));
  H = hashCombine(H, std::hash<const void *>()(K.A));
  H = hashCombine(H, std::hash<const void *>()(K.B));
  return H;
}

} // namespace

namespace dc {

/// The arena owning every Expr ever created (see the file comment).
/// Programs live for the whole process, the standard hash-consing
/// trade-off, which keeps ExprPtr trivially copyable. Nodes are immutable
/// after construction and published under their shard's lock, so readers
/// on other threads always see fully built nodes.
class ExprArena {
public:
  static ExprArena &get() {
    static ExprArena *Singleton = new ExprArena();
    return *Singleton;
  }

  ExprPtr intern(const ExprKey &Key, TypePtr DeclType = nullptr,
                 ValuePtr Val = nullptr,
                 SpecialPrimitive Special = SpecialPrimitive::None);

private:
  static constexpr int ShardBits = 6;
  static constexpr size_t NumShards = size_t(1) << ShardBits;

  /// A node with mixHash() of its Expr::hash(); a null Node is empty.
  struct Slot {
    uint64_t Mixed = 0;
    ExprPtr Node = nullptr;
  };
  struct Shard {
    std::mutex Mutex;
    std::vector<Slot> Slots; ///< a power of two long, at most half full
    size_t Count = 0;
  };

  static bool sameKey(ExprPtr N, const ExprKey &Key) {
    return N->TheKind == Key.Kind && N->IndexVal == Key.Index &&
           N->Left == Key.A && N->Right == Key.B && N->Name == Key.Name;
  }
  /// Doubles \p S's slot array, placing every node again.
  static void grow(Shard &S);

  Shard Shards[NumShards];
};

} // namespace dc

// The evaluator's tag and capture flag sit in the padding after the kind.
static_assert(sizeof(Expr) <= 88, "an Expr node outgrew 88 bytes");

void ExprArena::grow(Shard &S) {
  std::vector<Slot> Old(std::max<size_t>(64, S.Slots.size() * 2));
  Old.swap(S.Slots);
  const size_t Mask = S.Slots.size() - 1;
  for (const Slot &E : Old) {
    if (!E.Node)
      continue;
    size_t I = (E.Mixed >> ShardBits) & Mask;
    while (S.Slots[I].Node)
      I = (I + 1) & Mask;
    S.Slots[I] = E;
  }
}

ExprPtr ExprArena::intern(const ExprKey &Key, TypePtr DeclType,
                          ValuePtr Val, SpecialPrimitive Special) {
  const size_t Hash = keyHash(Key);
  const uint64_t Mixed = mixHash(Hash);
  Shard &S = Shards[Mixed & (NumShards - 1)];
  std::lock_guard<std::mutex> Lock(S.Mutex);
  if ((S.Count + 1) * 2 > S.Slots.size())
    grow(S);
  const size_t Mask = S.Slots.size() - 1;
  size_t I = (Mixed >> ShardBits) & Mask;
  for (; S.Slots[I].Node; I = (I + 1) & Mask)
    if (S.Slots[I].Mixed == Mixed && sameKey(S.Slots[I].Node, Key))
      return S.Slots[I].Node;

  auto *Node = new Expr();
  Node->TheKind = Key.Kind;
  Node->Special = Special;
  Node->MayCapture =
      Key.Kind == ExprKind::Abstraction ||
      (Key.Kind == ExprKind::Application &&
       (Key.A->MayCapture || Key.B->MayCapture));
  Node->IndexVal = Key.Index;
  Node->Name = Key.Name;
  Node->DeclType = DeclType;
  Node->Val = std::move(Val);
  Node->Left = Key.A;
  Node->Right = Key.B;
  Node->HashVal = Hash;
  S.Slots[I] = {Mixed, Node};
  ++S.Count;
  return Node;
}

namespace {

ExprPtr internIndex(int I) {
  return ExprArena::get().intern({ExprKind::Index, I, {}, nullptr, nullptr});
}

/// Indices below this come from a table: every hole of an enumeration
/// asks for the in-scope variables' nodes.
constexpr int NumSmallIndices = 32;

} // namespace

ExprPtr Expr::index(int I) {
  assert(I >= 0 && "negative de Bruijn index");
  static const std::array<ExprPtr, NumSmallIndices> Small = [] {
    std::array<ExprPtr, NumSmallIndices> Table;
    for (int J = 0; J < NumSmallIndices; ++J)
      Table[J] = internIndex(J);
    return Table;
  }();
  return I < NumSmallIndices ? Small[I] : internIndex(I);
}

ExprPtr Expr::primitive(const std::string &Name, const TypePtr &Ty,
                        ValuePtr Value, SpecialPrimitive Special) {
  assert(Ty && "primitive requires a type");
  return ExprArena::get().intern(
      {ExprKind::Primitive, 0, Name, nullptr, nullptr}, Ty, std::move(Value),
      Special);
}

ExprPtr Expr::invented(ExprPtr Body) {
  assert(Body && "invention requires a body");
  TypePtr Ty = Body->inferType();
  assert(Ty && "invention body must be well typed");
  return ExprArena::get().intern({ExprKind::Invented, 0, {}, Body, nullptr},
                                 canonicalize(Ty));
}

ExprPtr Expr::abstraction(ExprPtr Body) {
  assert(Body && "abstraction requires a body");
  return ExprArena::get().intern(
      {ExprKind::Abstraction, 0, {}, Body, nullptr});
}

ExprPtr Expr::application(ExprPtr Fn, ExprPtr Arg) {
  assert(Fn && Arg && "application requires both sides");
  return ExprArena::get().intern({ExprKind::Application, 0, {}, Fn, Arg});
}

ExprPtr Expr::applications(ExprPtr Fn, const std::vector<ExprPtr> &Args) {
  ExprPtr Out = Fn;
  for (ExprPtr A : Args)
    Out = application(Out, A);
  return Out;
}

namespace {

/// Appends the s-expression rendering of \p E to \p Out.
void showInto(ExprPtr E, std::string &Out) {
  switch (E->kind()) {
  case ExprKind::Index:
    Out += '$';
    Out += std::to_string(E->index());
    return;
  case ExprKind::Primitive:
    Out += E->name();
    return;
  case ExprKind::Invented: {
    // DreamCoder notation: the '#' fuses with the body's own parentheses,
    // e.g. #(lambda (+ $0 1)).
    std::string B = E->body()->show();
    bool Fused = !B.empty() && B[0] == '(';
    Out += Fused ? "#" : "#(";
    Out += B;
    if (!Fused)
      Out += ')';
    return;
  }
  case ExprKind::Abstraction:
    Out += "(lambda ";
    showInto(E->body(), Out);
    Out += ')';
    return;
  case ExprKind::Application: {
    // Flatten the spine for readability: ((f a) b) prints as (f a b).
    auto [Head, Args] = applicationSpine(E);
    Out += '(';
    showInto(Head, Out);
    for (ExprPtr A : Args) {
      Out += ' ';
      showInto(A, Out);
    }
    Out += ')';
    return;
  }
  }
  assert(false && "unknown expression kind");
}

} // namespace

std::string Expr::show() const {
  std::string Out;
  showInto(this, Out);
  return Out;
}

int Expr::size() const {
  switch (TheKind) {
  case ExprKind::Index:
  case ExprKind::Primitive:
  case ExprKind::Invented:
    return 1;
  case ExprKind::Abstraction:
    return 1 + body()->size();
  case ExprKind::Application:
    return 1 + fn()->size() + arg()->size();
  }
  return 0;
}

int Expr::depth() const {
  switch (TheKind) {
  case ExprKind::Index:
  case ExprKind::Primitive:
  case ExprKind::Invented:
    return 1;
  case ExprKind::Abstraction:
    return 1 + body()->depth();
  case ExprKind::Application:
    return 1 + std::max(fn()->depth(), arg()->depth());
  }
  return 0;
}

bool Expr::hasFreeVariableAbove(int Cutoff) const {
  switch (TheKind) {
  case ExprKind::Index:
    return IndexVal >= Cutoff;
  case ExprKind::Primitive:
  case ExprKind::Invented:
    return false;
  case ExprKind::Abstraction:
    return body()->hasFreeVariableAbove(Cutoff + 1);
  case ExprKind::Application:
    return fn()->hasFreeVariableAbove(Cutoff) ||
           arg()->hasFreeVariableAbove(Cutoff);
  }
  return false;
}

ExprPtr Expr::shift(int Delta, int Cutoff) const {
  switch (TheKind) {
  case ExprKind::Index:
    if (IndexVal < Cutoff)
      return this;
    if (IndexVal + Delta < 0)
      return nullptr;
    return index(IndexVal + Delta);
  case ExprKind::Primitive:
  case ExprKind::Invented:
    return this;
  case ExprKind::Abstraction: {
    ExprPtr B = body()->shift(Delta, Cutoff + 1);
    return B ? abstraction(B) : nullptr;
  }
  case ExprKind::Application: {
    ExprPtr F = fn()->shift(Delta, Cutoff);
    ExprPtr X = arg()->shift(Delta, Cutoff);
    return (F && X) ? application(F, X) : nullptr;
  }
  }
  return nullptr;
}

ExprPtr Expr::substitute(int Target, ExprPtr Value) const {
  switch (TheKind) {
  case ExprKind::Index:
    if (IndexVal == Target)
      return Value;
    // Indices above the substituted binder step down by one.
    if (IndexVal > Target)
      return index(IndexVal - 1);
    return this;
  case ExprKind::Primitive:
  case ExprKind::Invented:
    return this;
  case ExprKind::Abstraction: {
    ExprPtr Shifted = Value->shift(1);
    assert(Shifted && "shift up cannot fail");
    return abstraction(body()->substitute(Target + 1, Shifted));
  }
  case ExprKind::Application:
    return application(fn()->substitute(Target, Value),
                       arg()->substitute(Target, Value));
  }
  return nullptr;
}

namespace {

/// One leftmost-outermost reduction step; returns nullptr when already in
/// normal form (no redex found).
ExprPtr stepBeta(ExprPtr E) {
  switch (E->kind()) {
  case ExprKind::Index:
  case ExprKind::Primitive:
  case ExprKind::Invented:
    return nullptr;
  case ExprKind::Abstraction: {
    ExprPtr B = stepBeta(E->body());
    return B ? Expr::abstraction(B) : nullptr;
  }
  case ExprKind::Application: {
    if (E->fn()->isAbstraction()) {
      // substitute() folds the binder-removal index decrement in, so the
      // argument is passed unshifted and no downshift follows.
      return E->fn()->body()->substitute(0, E->arg());
    }
    if (ExprPtr F = stepBeta(E->fn()))
      return Expr::application(F, E->arg());
    if (ExprPtr X = stepBeta(E->arg()))
      return Expr::application(E->fn(), X);
    return nullptr;
  }
  }
  return nullptr;
}

} // namespace

ExprPtr Expr::betaNormalForm(int MaxSteps) const {
  ExprPtr Cur = this;
  for (int I = 0; I < MaxSteps; ++I) {
    ExprPtr Next = stepBeta(Cur);
    if (!Next)
      return Cur;
    Cur = Next;
  }
  // Budget exhausted with a redex remaining: signal failure instead of
  // handing back a half-reduced term.
  return stepBeta(Cur) ? nullptr : Cur;
}

ExprPtr Expr::stripInventions() const {
  switch (TheKind) {
  case ExprKind::Index:
  case ExprKind::Primitive:
    return this;
  case ExprKind::Invented:
    return body()->stripInventions();
  case ExprKind::Abstraction:
    return abstraction(body()->stripInventions());
  case ExprKind::Application:
    return application(fn()->stripInventions(), arg()->stripInventions());
  }
  return nullptr;
}

void Expr::visit(const std::function<void(ExprPtr)> &Visit) const {
  Visit(this);
  switch (TheKind) {
  case ExprKind::Index:
  case ExprKind::Primitive:
    break;
  case ExprKind::Invented:
    // Invention bodies are opaque to most consumers; do not descend. Callers
    // that need the body can recurse explicitly.
    break;
  case ExprKind::Abstraction:
    body()->visit(Visit);
    break;
  case ExprKind::Application:
    fn()->visit(Visit);
    arg()->visit(Visit);
    break;
  }
}

std::vector<ExprPtr> Expr::subexpressions() const {
  std::vector<ExprPtr> Out;
  std::unordered_set<ExprPtr> Seen;
  visit([&](ExprPtr E) {
    if (Seen.insert(E).second)
      Out.push_back(E);
  });
  return Out;
}

TypePtr Expr::inferType(TypeContext &Ctx,
                        std::vector<TypePtr> &Environment) const {
  switch (TheKind) {
  case ExprKind::Index: {
    if (IndexVal >= static_cast<int>(Environment.size()))
      return nullptr; // free variable with no binder: untypeable here
    return Ctx.apply(Environment[Environment.size() - 1 - IndexVal]);
  }
  case ExprKind::Primitive:
  case ExprKind::Invented:
    return Ctx.instantiate(DeclType);
  case ExprKind::Abstraction: {
    TypePtr ArgTy = Ctx.makeVariable();
    Environment.push_back(ArgTy);
    TypePtr BodyTy = body()->inferType(Ctx, Environment);
    Environment.pop_back();
    if (!BodyTy)
      return nullptr;
    return Type::arrow(Ctx.apply(ArgTy), BodyTy);
  }
  case ExprKind::Application: {
    TypePtr FnTy = fn()->inferType(Ctx, Environment);
    if (!FnTy)
      return nullptr;
    TypePtr ArgTy = arg()->inferType(Ctx, Environment);
    if (!ArgTy)
      return nullptr;
    TypePtr Result = Ctx.makeVariable();
    if (!Ctx.unify(FnTy, Type::arrow(ArgTy, Result)))
      return nullptr;
    return Ctx.apply(Result);
  }
  }
  return nullptr;
}

TypePtr Expr::inferType() const {
  TypeContext Ctx;
  std::vector<TypePtr> Env;
  TypePtr T = inferType(Ctx, Env);
  if (!T)
    return nullptr;
  return canonicalize(Ctx.apply(T));
}

int Expr::inventionDepth() const {
  switch (TheKind) {
  case ExprKind::Index:
  case ExprKind::Primitive:
    return 0;
  case ExprKind::Invented:
    return 1 + body()->inventionDepth();
  case ExprKind::Abstraction:
    return body()->inventionDepth();
  case ExprKind::Application:
    return std::max(fn()->inventionDepth(), arg()->inventionDepth());
  }
  return 0;
}

int dc::exprCompare(ExprPtr A, ExprPtr B) {
  // Hash-consing makes structural equality pointer equality, so the
  // expensive recursion only runs on genuinely different terms.
  if (A == B)
    return 0;
  if (!A || !B)
    return A ? 1 : -1; // null sorts first
  if (A->kind() != B->kind())
    return static_cast<int>(A->kind()) < static_cast<int>(B->kind()) ? -1
                                                                     : 1;
  switch (A->kind()) {
  case ExprKind::Index:
    return A->index() < B->index() ? -1 : 1; // equal indices are interned
  case ExprKind::Primitive: {
    if (int C = A->name().compare(B->name()))
      return C < 0 ? -1 : 1;
    // Same name, different interned node: distinct declared types. Types
    // are canonical, so their rendering is a content-stable key.
    return A->declaredType()->show() < B->declaredType()->show() ? -1 : 1;
  }
  case ExprKind::Invented:
  case ExprKind::Abstraction:
    return exprCompare(A->body(), B->body());
  case ExprKind::Application:
    if (int C = exprCompare(A->fn(), B->fn()))
      return C;
    return exprCompare(A->arg(), B->arg());
  }
  return 0;
}

std::pair<ExprPtr, std::vector<ExprPtr>> dc::applicationSpine(ExprPtr E) {
  std::vector<ExprPtr> Args;
  while (E->isApplication()) {
    Args.push_back(E->arg());
    E = E->fn();
  }
  std::reverse(Args.begin(), Args.end());
  return {E, std::move(Args)};
}
