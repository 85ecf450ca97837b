//===- core/Program.cpp - Hash-consed lambda calculus programs ------------===//

#include "core/Program.h"

#include <algorithm>
#include <array>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

using namespace dc;

namespace {

/// Combines hashes in the boost::hash_combine style.
size_t hashCombine(size_t Seed, size_t V) {
  return Seed ^ (V + 0x9e3779b97f4a7c15ULL + (Seed << 6) + (Seed >> 2));
}

/// Structural interning key. Primitive identity is (name, canonical type
/// string) so two registrations of the same primitive intern to one node.
struct ExprKey {
  ExprKind Kind;
  int Index;
  std::string Name;
  const Expr *A;
  const Expr *B;

  bool operator==(const ExprKey &O) const {
    return Kind == O.Kind && Index == O.Index && Name == O.Name &&
           A == O.A && B == O.B;
  }
};

struct ExprKeyHash {
  size_t operator()(const ExprKey &K) const {
    size_t H = std::hash<int>()(static_cast<int>(K.Kind));
    H = hashCombine(H, std::hash<int>()(K.Index));
    H = hashCombine(H, std::hash<std::string>()(K.Name));
    H = hashCombine(H, std::hash<const void *>()(K.A));
    H = hashCombine(H, std::hash<const void *>()(K.B));
    return H;
  }
};

/// Global arena owning every Expr ever created. Programs live for the whole
/// process; that is the standard hash-consing trade-off and it keeps
/// ExprPtr trivially copyable.
///
/// The intern table is sharded by key hash, each shard behind its own
/// mutex: parallel wake-phase enumeration interns nodes from many worker
/// threads at once, and a single table lock would serialize the hottest
/// allocation path in the system. Nodes are immutable after construction
/// and published under the shard lock, so readers on other threads always
/// observe fully-built nodes.
class ExprArenaImpl {
public:
  static ExprArenaImpl &get() {
    static ExprArenaImpl *Singleton = new ExprArenaImpl();
    return *Singleton;
  }

  ExprPtr intern(ExprKey Key, const TypePtr &DeclType = nullptr,
                 ValuePtr Val = nullptr);

private:
  static constexpr size_t NumShards = 64;
  struct Shard {
    std::mutex Mutex;
    std::unordered_map<ExprKey, ExprPtr, ExprKeyHash> Interned;
  };
  Shard Shards[NumShards];
};

} // namespace

// The friend declared in the header; it has access to Expr's private fields
// and performs the actual node construction on behalf of the interner.
namespace dc {
class ExprArena {
public:
  static Expr *create(ExprKind Kind, int Index, std::string Name,
                      TypePtr DeclType, ValuePtr Val, ExprPtr A, ExprPtr B,
                      size_t Hash) {
    auto *Node = new Expr();
    Node->TheKind = Kind;
    Node->IndexVal = Index;
    Node->Name = std::move(Name);
    Node->DeclType = std::move(DeclType);
    Node->Val = std::move(Val);
    Node->Left = A;
    Node->Right = B;
    Node->HashVal = Hash;
    return Node;
  }
};
} // namespace dc

namespace {

ExprPtr ExprArenaImpl::intern(ExprKey Key, const TypePtr &DeclType,
                              ValuePtr Val) {
  size_t Hash = ExprKeyHash()(Key);
  Shard &S = Shards[Hash % NumShards];
  std::lock_guard<std::mutex> Lock(S.Mutex);
  auto It = S.Interned.find(Key);
  if (It != S.Interned.end())
    return It->second;
  ExprPtr Node = dc::ExprArena::create(Key.Kind, Key.Index, Key.Name,
                                       DeclType, std::move(Val), Key.A, Key.B,
                                       Hash);
  S.Interned.emplace(std::move(Key), Node);
  return Node;
}

ExprPtr internIndex(int I) {
  ExprKey K{ExprKind::Index, I, "", nullptr, nullptr};
  return ExprArenaImpl::get().intern(std::move(K));
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
                        ValuePtr Value) {
  assert(Ty && "primitive requires a type");
  ExprKey K{ExprKind::Primitive, 0, Name, nullptr, nullptr};
  return ExprArenaImpl::get().intern(std::move(K), Ty, std::move(Value));
}

ExprPtr Expr::invented(ExprPtr Body) {
  assert(Body && "invention requires a body");
  ExprKey K{ExprKind::Invented, 0, "", Body, nullptr};
  TypePtr Ty = Body->inferType();
  assert(Ty && "invention body must be well typed");
  return ExprArenaImpl::get().intern(std::move(K), canonicalize(Ty));
}

ExprPtr Expr::abstraction(ExprPtr Body) {
  assert(Body && "abstraction requires a body");
  ExprKey K{ExprKind::Abstraction, 0, "", Body, nullptr};
  return ExprArenaImpl::get().intern(std::move(K));
}

ExprPtr Expr::application(ExprPtr Fn, ExprPtr Arg) {
  assert(Fn && Arg && "application requires both sides");
  ExprKey K{ExprKind::Application, 0, "", Fn, Arg};
  return ExprArenaImpl::get().intern(std::move(K));
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
