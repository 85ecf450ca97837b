//===- core/Evaluator.h - Budgeted lambda calculus evaluator --------------===//
//
// Part of the DreamCoder C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Environment-passing evaluator for hash-consed programs. Evaluation is
/// strict except for the `if` primitive (branches are evaluated lazily) and
/// the fixpoint combinators, which are handled natively so that recursive
/// programs written with the Y combinator terminate under a step budget.
///
/// Semantically every application is curried: each node evaluated and each
/// value applied costs one step and one level of depth. Three shortcuts
/// keep evaluation from allocating beyond the values a program produces,
/// and each charges exactly what the curried path would:
///  - a builtin given exactly its arity, `(f a1 ... an)` with `f` a
///    registered primitive, is called in place with its arguments in a
///    stack array, instead of through n-1 partial applications;
///  - a closure whose body cannot build a closure (Expr::mayCapture)
///    binds its argument in a stack frame instead of a heap EnvNode;
///  - runProgram runs a λ program's body on its first input without
///    building the λ's closure.
///
/// Failure (runtime type error, out-of-range access, exhausted budget) is
/// signalled by returning a null ValuePtr — no exceptions cross this API.
///
//===----------------------------------------------------------------------===//

#ifndef DC_CORE_EVALUATOR_H
#define DC_CORE_EVALUATOR_H

#include "core/Value.h"

namespace dc {

/// Mutable evaluation state threaded through a single program run: a step
/// budget guarding divergence, a recursion-depth guard protecting the C++
/// stack, and a sticky failure flag.
class EvalState {
public:
  explicit EvalState(long StepBudget = 50000, int MaxDepth = 2000)
      : StepsLeft(StepBudget), DepthLeft(MaxDepth) {}

  /// Consumes one step; returns false (and marks failure) when exhausted.
  bool tick() {
    if (StepsLeft-- <= 0 || Failed) {
      Failed = true;
      return false;
    }
    return true;
  }

  /// Consumes \p Steps steps at once; succeeds exactly when that many
  /// tick()s would.
  bool tick(long Steps) {
    const bool Ok = StepsLeft >= Steps && !Failed;
    StepsLeft -= Steps;
    Failed = !Ok;
    return Ok;
  }

  /// True when \p Levels more nested DepthGuards fit under the limit.
  bool fitsDepth(int Levels) const { return DepthLeft >= Levels; }

  /// Marks the evaluation as failed; subsequent results are null.
  void fail() { Failed = true; }
  bool failed() const { return Failed; }
  long stepsLeft() const { return StepsLeft; }

  /// Installs a tape of real constants consumed, in evaluation order, by
  /// occurrences of the symbolic-regression placeholder primitive "REAL"
  /// (paper §5: continuous parameters fit by an inner loop of gradient
  /// descent). Resets the read position.
  void setConstantTape(const std::vector<double> *Tape) {
    ConstantTape = Tape;
    TapePosition = 0;
  }

  /// Next constant from the tape; fails the evaluation when exhausted or
  /// when no tape is installed.
  bool nextConstant(double &Out) {
    if (!ConstantTape || TapePosition >= ConstantTape->size()) {
      Failed = true;
      return false;
    }
    Out = (*ConstantTape)[TapePosition++];
    return true;
  }

  /// RAII depth guard used around recursive eval/apply calls; \p Levels
  /// stands for that many nested guards.
  class DepthGuard {
  public:
    explicit DepthGuard(EvalState &S, int Levels = 1)
        : State(S), Levels(Levels) {
      if (State.DepthLeft < Levels)
        State.Failed = true;
      State.DepthLeft -= Levels;
    }
    ~DepthGuard() { State.DepthLeft += Levels; }

  private:
    EvalState &State;
    int Levels;
  };

private:
  long StepsLeft;
  int DepthLeft;
  bool Failed = false;
  const std::vector<double> *ConstantTape = nullptr;
  size_t TapePosition = 0;
};

/// Evaluates \p E under environment \p Env. Returns nullptr on failure.
ValuePtr evaluate(ExprPtr E, const EnvPtr &Env, EvalState &State);

/// Applies callable \p F to \p X. Returns nullptr on failure.
ValuePtr applyValue(const ValuePtr &F, const ValuePtr &X, EvalState &State);

/// Convenience: evaluates closed program \p E and applies it to \p Inputs in
/// order, under a fresh budget. Returns nullptr on any failure.
ValuePtr runProgram(ExprPtr E, const std::vector<ValuePtr> &Inputs,
                    long StepBudget = 50000);

} // namespace dc

#endif // DC_CORE_EVALUATOR_H
