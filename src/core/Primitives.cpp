//===- core/Primitives.cpp - Primitive registry and standard library ------===//

#include "core/Primitives.h"

#include <cmath>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

using namespace dc;

namespace {

/// Process-wide primitive registry: the node registered under each name.
/// Each node carries its value, so evaluation never comes here; the lock
/// serializes registration (domain construction, and tests that register
/// while searches run) against lookups by name (the parser).
struct Registry {
  std::shared_mutex Mutex;
  std::unordered_map<std::string, ExprPtr> Exprs;

  static Registry &get() {
    static Registry *Singleton = new Registry();
    return *Singleton;
  }
};

ExprPtr registerEntry(const std::string &Name, const TypePtr &Ty,
                      ValuePtr Val) {
  Registry &R = Registry::get();
  std::unique_lock<std::shared_mutex> Lock(R.Mutex);
  auto It = R.Exprs.find(Name);
  if (It != R.Exprs.end())
    return It->second; // idempotent re-registration
  ExprPtr E = Expr::primitive(Name, canonicalize(Ty), std::move(Val));
  R.Exprs.emplace(Name, E);
  return E;
}

//===----------------------------------------------------------------------===//
// Argument checking helpers
//===----------------------------------------------------------------------===//

bool allInts(const std::vector<ValuePtr> &A) {
  for (const ValuePtr &V : A)
    if (!V->isInt())
      return false;
  return true;
}

bool allNumeric(const std::vector<ValuePtr> &A) {
  for (const ValuePtr &V : A)
    if (!V->isInt() && !V->isReal())
      return false;
  return true;
}

bool isPrimeLong(long N) {
  if (N < 2)
    return false;
  for (long D = 2; D * D <= N; ++D)
    if (N % D == 0)
      return false;
  return true;
}

bool isSquareLong(long N) {
  if (N < 0)
    return false;
  long R = static_cast<long>(std::llround(std::sqrt(static_cast<double>(N))));
  return R * R == N || (R + 1) * (R + 1) == N;
}

} // namespace

ExprPtr dc::definePrimitive(const std::string &Name, const TypePtr &Ty,
                            BuiltinFn Fn) {
  int Arity = functionArity(Ty);
  assert(Arity >= 1 && "function primitive must have an arrow type");
  return registerEntry(Name, Ty, Value::makeBuiltin(Name, Arity, std::move(Fn)));
}

ExprPtr dc::definePrimitive(const std::string &Name, const TypePtr &Ty,
                            ValuePtr Constant) {
  return registerEntry(Name, Ty, std::move(Constant));
}

ExprPtr dc::lookupPrimitive(const std::string &Name) {
  Registry &R = Registry::get();
  std::shared_lock<std::shared_mutex> Lock(R.Mutex);
  auto It = R.Exprs.find(Name);
  return It == R.Exprs.end() ? nullptr : It->second;
}

ExprPtr dc::intPrimitive(long N) {
  return definePrimitive(std::to_string(N), tInt(), Value::makeInt(N));
}

ExprPtr dc::realPrimitive(const std::string &Name, double V) {
  return definePrimitive(Name, tReal(), Value::makeReal(V));
}

//===----------------------------------------------------------------------===//
// Shared primitive definitions
//===----------------------------------------------------------------------===//

namespace {

ExprPtr defIf() {
  // Laziness is handled by the evaluator; this strict fallback only fires
  // when `if` is passed around unapplied.
  return definePrimitive(
      "if", Type::arrows({tBool(), t0(), t0()}, t0()),
      [](EvalState &, const std::vector<ValuePtr> &A) -> ValuePtr {
        if (!A[0]->isBool())
          return nullptr;
        return A[0]->asBool() ? A[1] : A[2];
      });
}

ExprPtr defCons() {
  return definePrimitive(
      "cons", Type::arrows({t0(), tList(t0())}, tList(t0())),
      [](EvalState &, const std::vector<ValuePtr> &A) -> ValuePtr {
        if (!A[1]->isList())
          return nullptr;
        std::vector<ValuePtr> L;
        L.reserve(A[1]->asList().size() + 1);
        L.push_back(A[0]);
        for (const ValuePtr &V : A[1]->asList())
          L.push_back(V);
        return Value::makeList(std::move(L));
      });
}

ExprPtr defCar() {
  return definePrimitive(
      "car", Type::arrows({tList(t0())}, t0()),
      [](EvalState &, const std::vector<ValuePtr> &A) -> ValuePtr {
        if (!A[0]->isList() || A[0]->asList().empty())
          return nullptr;
        return A[0]->asList().front();
      });
}

ExprPtr defCdr() {
  return definePrimitive(
      "cdr", Type::arrows({tList(t0())}, tList(t0())),
      [](EvalState &, const std::vector<ValuePtr> &A) -> ValuePtr {
        if (!A[0]->isList() || A[0]->asList().empty())
          return nullptr;
        const auto &L = A[0]->asList();
        return Value::makeList(std::vector<ValuePtr>(L.begin() + 1, L.end()));
      });
}

ExprPtr defNil() {
  return definePrimitive("nil", tList(t0()), Value::makeList({}));
}

ExprPtr defIsNil() {
  return definePrimitive(
      "is-nil", Type::arrows({tList(t0())}, tBool()),
      [](EvalState &, const std::vector<ValuePtr> &A) -> ValuePtr {
        if (!A[0]->isList())
          return nullptr;
        return Value::makeBool(A[0]->asList().empty());
      });
}

ExprPtr defMap() {
  return definePrimitive(
      "map", Type::arrows({Type::arrow(t0(), t1()), tList(t0())}, tList(t1())),
      [](EvalState &S, const std::vector<ValuePtr> &A) -> ValuePtr {
        if (!A[1]->isList() || !A[0]->isCallable())
          return nullptr;
        std::vector<ValuePtr> Out;
        Out.reserve(A[1]->asList().size());
        for (const ValuePtr &V : A[1]->asList()) {
          ValuePtr R = applyValue(A[0], V, S);
          if (!R)
            return nullptr;
          Out.push_back(std::move(R));
        }
        return Value::makeList(std::move(Out));
      });
}

ExprPtr defFold() {
  // Right fold: (fold f z [a b c]) = (f a (f b (f c z))).
  return definePrimitive(
      "fold",
      Type::arrows({Type::arrows({t0(), t1()}, t1()), t1(), tList(t0())},
                   t1()),
      [](EvalState &S, const std::vector<ValuePtr> &A) -> ValuePtr {
        if (!A[2]->isList() || !A[0]->isCallable())
          return nullptr;
        ValuePtr Acc = A[1];
        const auto &L = A[2]->asList();
        for (auto It = L.rbegin(); It != L.rend(); ++It) {
          ValuePtr Partial = applyValue(A[0], *It, S);
          if (!Partial)
            return nullptr;
          Acc = applyValue(Partial, Acc, S);
          if (!Acc)
            return nullptr;
        }
        return Acc;
      });
}

ExprPtr defLength() {
  return definePrimitive(
      "length", Type::arrows({tList(t0())}, tInt()),
      [](EvalState &, const std::vector<ValuePtr> &A) -> ValuePtr {
        if (!A[0]->isList())
          return nullptr;
        return Value::makeInt(static_cast<long>(A[0]->asList().size()));
      });
}

ExprPtr defIndex() {
  return definePrimitive(
      "index", Type::arrows({tInt(), tList(t0())}, t0()),
      [](EvalState &, const std::vector<ValuePtr> &A) -> ValuePtr {
        if (!A[0]->isInt() || !A[1]->isList())
          return nullptr;
        long I = A[0]->asInt();
        const auto &L = A[1]->asList();
        if (I < 0 || I >= static_cast<long>(L.size()))
          return nullptr;
        return L[I];
      });
}

ExprPtr defEq() {
  return definePrimitive(
      "=", Type::arrows({tInt(), tInt()}, tBool()),
      [](EvalState &, const std::vector<ValuePtr> &A) -> ValuePtr {
        if (!allInts(A))
          return nullptr;
        return Value::makeBool(A[0]->asInt() == A[1]->asInt());
      });
}

ExprPtr defPlus() {
  return definePrimitive(
      "+", Type::arrows({tInt(), tInt()}, tInt()),
      [](EvalState &, const std::vector<ValuePtr> &A) -> ValuePtr {
        if (!allInts(A))
          return nullptr;
        return Value::makeInt(A[0]->asInt() + A[1]->asInt());
      });
}

ExprPtr defMinus() {
  return definePrimitive(
      "-", Type::arrows({tInt(), tInt()}, tInt()),
      [](EvalState &, const std::vector<ValuePtr> &A) -> ValuePtr {
        if (!allInts(A))
          return nullptr;
        return Value::makeInt(A[0]->asInt() - A[1]->asInt());
      });
}

ExprPtr defTimes() {
  return definePrimitive(
      "*", Type::arrows({tInt(), tInt()}, tInt()),
      [](EvalState &, const std::vector<ValuePtr> &A) -> ValuePtr {
        if (!allInts(A))
          return nullptr;
        return Value::makeInt(A[0]->asInt() * A[1]->asInt());
      });
}

ExprPtr defMod() {
  return definePrimitive(
      "mod", Type::arrows({tInt(), tInt()}, tInt()),
      [](EvalState &, const std::vector<ValuePtr> &A) -> ValuePtr {
        if (!allInts(A) || A[1]->asInt() == 0)
          return nullptr;
        long M = A[0]->asInt() % A[1]->asInt();
        if (M < 0)
          M += std::labs(A[1]->asInt());
        return Value::makeInt(M);
      });
}

ExprPtr defGt() {
  return definePrimitive(
      ">", Type::arrows({tInt(), tInt()}, tBool()),
      [](EvalState &, const std::vector<ValuePtr> &A) -> ValuePtr {
        if (!allInts(A))
          return nullptr;
        return Value::makeBool(A[0]->asInt() > A[1]->asInt());
      });
}

ExprPtr defIsSquare() {
  return definePrimitive(
      "is-square", Type::arrows({tInt()}, tBool()),
      [](EvalState &, const std::vector<ValuePtr> &A) -> ValuePtr {
        if (!A[0]->isInt())
          return nullptr;
        return Value::makeBool(isSquareLong(A[0]->asInt()));
      });
}

ExprPtr defIsPrime() {
  return definePrimitive(
      "is-prime", Type::arrows({tInt()}, tBool()),
      [](EvalState &, const std::vector<ValuePtr> &A) -> ValuePtr {
        if (!A[0]->isInt())
          return nullptr;
        return Value::makeBool(isPrimeLong(A[0]->asInt()));
      });
}

ExprPtr defFix() {
  // fix : ((t0 -> t1) -> t0 -> t1) -> t0 -> t1 — the Y combinator, handled
  // natively so strict evaluation terminates under the step budget.
  auto Holder = std::make_shared<ValuePtr>();
  BuiltinFn Fn = [Holder](EvalState &S,
                          const std::vector<ValuePtr> &A) -> ValuePtr {
    // (fix f) x  ==>  (f (fix f)) x
    ValuePtr Self = Value::makeBuiltinPartial(**Holder, {A[0]});
    ValuePtr Unrolled = applyValue(A[0], Self, S);
    if (!Unrolled)
      return nullptr;
    return applyValue(Unrolled, A[1], S);
  };
  TypePtr FixTy = Type::arrows(
      {Type::arrow(Type::arrow(t0(), t1()), Type::arrow(t0(), t1())), t0()},
      t1());
  ExprPtr E = definePrimitive("fix", FixTy, Fn);
  *Holder = E->value();
  return E;
}

ExprPtr defEmpty() {
  return definePrimitive(
      "empty?", Type::arrows({tList(t0())}, tBool()),
      [](EvalState &, const std::vector<ValuePtr> &A) -> ValuePtr {
        if (!A[0]->isList())
          return nullptr;
        return Value::makeBool(A[0]->asList().empty());
      });
}

ExprPtr defFilter() {
  return definePrimitive(
      "filter",
      Type::arrows({Type::arrow(t0(), tBool()), tList(t0())}, tList(t0())),
      [](EvalState &S, const std::vector<ValuePtr> &A) -> ValuePtr {
        if (!A[1]->isList() || !A[0]->isCallable())
          return nullptr;
        std::vector<ValuePtr> Out;
        for (const ValuePtr &V : A[1]->asList()) {
          ValuePtr Keep = applyValue(A[0], V, S);
          if (!Keep || !Keep->isBool())
            return nullptr;
          if (Keep->asBool())
            Out.push_back(V);
        }
        return Value::makeList(std::move(Out));
      });
}

ExprPtr defRange() {
  return definePrimitive(
      "range", Type::arrows({tInt()}, tList(tInt())),
      [](EvalState &, const std::vector<ValuePtr> &A) -> ValuePtr {
        if (!A[0]->isInt())
          return nullptr;
        long N = A[0]->asInt();
        if (N < 0 || N > 10000)
          return nullptr;
        std::vector<ValuePtr> Out;
        Out.reserve(N);
        for (long I = 0; I < N; ++I)
          Out.push_back(Value::makeInt(I));
        return Value::makeList(std::move(Out));
      });
}

ExprPtr defAppend() {
  return definePrimitive(
      "append", Type::arrows({tList(t0()), tList(t0())}, tList(t0())),
      [](EvalState &, const std::vector<ValuePtr> &A) -> ValuePtr {
        if (!A[0]->isList() || !A[1]->isList())
          return nullptr;
        std::vector<ValuePtr> Out = A[0]->asList();
        for (const ValuePtr &V : A[1]->asList())
          Out.push_back(V);
        return Value::makeList(std::move(Out));
      });
}

ExprPtr defZip() {
  return definePrimitive(
      "zip",
      Type::arrows({Type::arrows({t0(), t1()}, t2()), tList(t0()),
                    tList(t1())},
                   tList(t2())),
      [](EvalState &S, const std::vector<ValuePtr> &A) -> ValuePtr {
        if (!A[0]->isCallable() || !A[1]->isList() || !A[2]->isList())
          return nullptr;
        const auto &L = A[1]->asList();
        const auto &R = A[2]->asList();
        size_t N = std::min(L.size(), R.size());
        std::vector<ValuePtr> Out;
        Out.reserve(N);
        for (size_t I = 0; I < N; ++I) {
          ValuePtr P = applyValue(A[0], L[I], S);
          if (!P)
            return nullptr;
          ValuePtr V = applyValue(P, R[I], S);
          if (!V)
            return nullptr;
          Out.push_back(std::move(V));
        }
        return Value::makeList(std::move(Out));
      });
}

//===----------------------------------------------------------------------===//
// Real arithmetic
//===----------------------------------------------------------------------===//

ExprPtr defRealBinary(const std::string &Name,
                      double (*Op)(double, double)) {
  return definePrimitive(
      Name, Type::arrows({tReal(), tReal()}, tReal()),
      [Op](EvalState &, const std::vector<ValuePtr> &A) -> ValuePtr {
        if (!allNumeric(A))
          return nullptr;
        double R = Op(A[0]->asReal(), A[1]->asReal());
        if (!std::isfinite(R))
          return nullptr;
        return Value::makeReal(R);
      });
}

} // namespace

std::vector<ExprPtr> dc::prims::functionalCore() {
  return {defMap(),  defFold(), defCons(),  defCar(),  defCdr(),
          defIf(),   defLength(), defIndex(), defEq(),   defPlus(),
          defMinus(), intPrimitive(0), intPrimitive(1), defNil(),
          defIsNil()};
}

std::vector<ExprPtr> dc::prims::arithmeticExtras() {
  return {defMod(), defTimes(), defGt(), defIsSquare(), defIsPrime()};
}

std::vector<ExprPtr> dc::prims::mcCarthy1959() {
  return {defIf(),  defEq(),  defGt(),  defPlus(), defMinus(),
          intPrimitive(0), intPrimitive(1), defCons(), defCar(),
          defCdr(), defNil(), defIsNil(), defFix()};
}

std::vector<ExprPtr> dc::prims::realArithmetic() {
  return {
      defRealBinary("+.", [](double A, double B) { return A + B; }),
      defRealBinary("-.", [](double A, double B) { return A - B; }),
      defRealBinary("*.", [](double A, double B) { return A * B; }),
      defRealBinary("/.", [](double A, double B) { return A / B; }),
      realPrimitive("1.", 1.0),
      realPrimitive("pi", 3.14159265358979323846),
      definePrimitive("sqrt.", Type::arrows({tReal()}, tReal()),
                      [](EvalState &, const std::vector<ValuePtr> &A)
                          -> ValuePtr {
                        if (!A[0]->isInt() && !A[0]->isReal())
                          return nullptr;
                        double R = std::sqrt(A[0]->asReal());
                        if (!std::isfinite(R))
                          return nullptr;
                        return Value::makeReal(R);
                      }),
      definePrimitive("square.", Type::arrows({tReal()}, tReal()),
                      [](EvalState &, const std::vector<ValuePtr> &A)
                          -> ValuePtr {
                        if (!A[0]->isInt() && !A[0]->isReal())
                          return nullptr;
                        double V = A[0]->asReal();
                        return Value::makeReal(V * V);
                      }),
  };
}

std::vector<ExprPtr> dc::prims::listExtras() {
  return {defEmpty(), defFilter(), defRange(), defAppend(), defZip()};
}
