//===- core/Evaluator.cpp - Budgeted lambda calculus evaluator ------------===//

#include "core/Evaluator.h"

using namespace dc;

namespace {

/// Calls builtin \p Fn on the N = Fn.builtinArity() arguments of the
/// saturated spine \p E = (f a1 ... aN), evaluated under \p Env; E's own
/// step and depth guard are evaluate()'s.
///
/// The curried path would spend, besides the arguments, one step on each
/// of the N-1 inner applications, one on the head and one on each of the N
/// applies: 2N in all. Its inner applications nest N-1 guards below this
/// node and the head one more, so the head's guard is its deepest. It
/// evaluates a_k inside the N-k applications above a_k's own, and runs the
/// builtin inside the last apply's guard. This charges the same steps and
/// puts every argument and the call at the same depth, so results, budgets
/// and depth limits are those of the curried path.
ValuePtr callSaturated(ExprPtr E, const Value &Fn, const EnvPtr &Env,
                       EvalState &State) {
  const int N = Fn.builtinArity();
  if (!State.tick(2L * N) || !State.fitsDepth(N)) {
    State.fail();
    return nullptr;
  }
  ExprPtr ArgExprs[MaxBuiltinArity];
  for (int K = N - 1; K >= 0; --K, E = E->fn())
    ArgExprs[K] = E->arg();
  ValuePtr Args[MaxBuiltinArity];
  for (int K = 0; K < N; ++K) {
    EvalState::DepthGuard Spine(State, N - 1 - K);
    Args[K] = evaluate(ArgExprs[K], Env, State);
    if (!Args[K])
      return nullptr;
  }
  EvalState::DepthGuard Apply(State);
  ValuePtr Out = Fn.builtinFn()(State, std::span<const ValuePtr>(Args, N));
  if (!Out)
    State.fail();
  return Out;
}

/// Evaluates closure body \p Body under \p Env extended with \p X.
ValuePtr evaluateBody(ExprPtr Body, const EnvPtr &Env, const ValuePtr &X,
                      EvalState &State) {
  if (Body->mayCapture())
    return evaluate(Body, envExtend(Env, X), State);
  // Nothing in the body can capture its environment, so the frame dies
  // with this call: it lives on the stack, and its tail borrows Env, which
  // the caller keeps alive. Lookups copy the heads, never the frame.
  const EnvNode Frame{X, EnvPtr(EnvPtr(), Env.get())};
  return evaluate(Body, EnvPtr(EnvPtr(), &Frame), State);
}

} // namespace

ValuePtr dc::evaluate(ExprPtr E, const EnvPtr &Env, EvalState &State) {
  EvalState::DepthGuard Guard(State);
  if (!State.tick())
    return nullptr;

  switch (E->kind()) {
  case ExprKind::Index: {
    ValuePtr V = envLookup(Env, E->index());
    if (!V)
      State.fail();
    return V;
  }
  case ExprKind::Primitive: {
    // The symbolic-regression constant placeholder reads the fit tape.
    if (E->special() == SpecialPrimitive::Real) {
      double C;
      if (!State.nextConstant(C))
        return nullptr;
      return Value::makeReal(C);
    }
    const ValuePtr &V = E->value();
    if (!V)
      State.fail();
    return V;
  }
  case ExprKind::Invented:
    // Invention bodies are closed; evaluate under the empty environment.
    return evaluate(E->body(), nullptr, State);
  case ExprKind::Abstraction:
    return Value::makeClosure(E->body(), Env);
  case ExprKind::Application: {
    // `if` is the one special form: evaluate the condition, then only the
    // selected branch. A saturated (if c t f) is App(App(App(if, c), t), f).
    ExprPtr IfT = E->fn();
    if (IfT->isApplication() && IfT->fn()->isApplication() &&
        IfT->fn()->fn()->special() == SpecialPrimitive::If) {
      ValuePtr Cond = evaluate(IfT->fn()->arg(), Env, State);
      if (!Cond || !Cond->isBool()) {
        State.fail();
        return nullptr;
      }
      return evaluate(Cond->asBool() ? IfT->arg() : E->arg(), Env, State);
    }
    int N = 1;
    ExprPtr Head = E->fn();
    for (; Head->isApplication(); Head = Head->fn())
      ++N;
    if (Head->isPrimitive()) {
      const Value *H = Head->value().get();
      if (H && H->isBuiltin() && H->builtinPendingCount() == 0 &&
          H->builtinArity() == N)
        return callSaturated(E, *H, Env, State);
    }
    ValuePtr F = evaluate(E->fn(), Env, State);
    if (!F)
      return nullptr;
    ValuePtr X = evaluate(E->arg(), Env, State);
    if (!X)
      return nullptr;
    return applyValue(F, X, State);
  }
  }
  State.fail();
  return nullptr;
}

ValuePtr dc::applyValue(const ValuePtr &F, const ValuePtr &X,
                        EvalState &State) {
  EvalState::DepthGuard Guard(State);
  if (!State.tick())
    return nullptr;
  if (!F || !X || !F->isCallable()) {
    State.fail();
    return nullptr;
  }
  if (F->isClosure())
    return evaluateBody(F->closureBody(), F->closureEnv(), X, State);

  // Builtin: collect arguments until the declared arity is reached.
  const int Have = F->builtinPendingCount() + 1;
  if (Have < F->builtinArity())
    return Value::makeBuiltinPartial(F, X);
  ValuePtr Args[MaxBuiltinArity];
  F->builtinPendingInto(Args);
  Args[Have - 1] = X;
  ValuePtr Out = F->builtinFn()(State, std::span<const ValuePtr>(Args, Have));
  if (!Out)
    State.fail();
  return Out;
}

ValuePtr dc::runProgram(ExprPtr E, const std::vector<ValuePtr> &Inputs,
                        long StepBudget) {
  EvalState State(StepBudget);
  ValuePtr V;
  size_t Next = 0;
  if (E->isAbstraction() && !Inputs.empty()) {
    // A program is usually a λ applied at once to its first input: run its
    // body without the closure. evaluate(E) and applyValue would each
    // take a step and a guard one level down, then evaluate the body
    // inside the apply's guard.
    if (!State.tick(2))
      return nullptr;
    EvalState::DepthGuard Apply(State);
    V = evaluateBody(E->body(), nullptr, Inputs[Next++], State);
  } else {
    V = evaluate(E, nullptr, State);
  }
  for (; Next < Inputs.size(); ++Next) {
    if (!V || State.failed())
      return nullptr;
    V = applyValue(V, Inputs[Next], State);
  }
  if (State.failed())
    return nullptr;
  return V;
}
