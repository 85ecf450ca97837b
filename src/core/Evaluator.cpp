//===- core/Evaluator.cpp - Budgeted lambda calculus evaluator ------------===//

#include "core/Evaluator.h"

using namespace dc;

namespace {

/// True when \p E is the `if` primitive (whose branches must stay lazy).
bool isIfPrimitive(ExprPtr E) {
  return E->isPrimitive() && E->name() == "if";
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
    if (E->name() == "REAL") {
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
        isIfPrimitive(IfT->fn()->fn())) {
      ValuePtr Cond = evaluate(IfT->fn()->arg(), Env, State);
      if (!Cond || !Cond->isBool()) {
        State.fail();
        return nullptr;
      }
      return evaluate(Cond->asBool() ? IfT->arg() : E->arg(), Env, State);
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
    return evaluate(F->closureBody(), envExtend(F->closureEnv(), X), State);

  // Builtin: collect arguments until the declared arity is reached.
  std::vector<ValuePtr> Args;
  Args.reserve(F->builtinArity());
  Args.insert(Args.end(), F->builtinPending().begin(),
              F->builtinPending().end());
  Args.push_back(X);
  if (static_cast<int>(Args.size()) < F->builtinArity())
    return Value::makeBuiltinPartial(*F, std::move(Args));
  ValuePtr Out = F->builtinFn()(State, Args);
  if (!Out)
    State.fail();
  return Out;
}

ValuePtr dc::runProgram(ExprPtr E, const std::vector<ValuePtr> &Inputs,
                        long StepBudget) {
  EvalState State(StepBudget);
  ValuePtr V = evaluate(E, nullptr, State);
  for (const ValuePtr &In : Inputs) {
    if (!V || State.failed())
      return nullptr;
    V = applyValue(V, In, State);
  }
  if (State.failed())
    return nullptr;
  return V;
}
