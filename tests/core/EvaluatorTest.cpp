//===- tests/core/EvaluatorTest.cpp - Evaluator unit tests ----------------===//

#include "core/Evaluator.h"
#include "core/Primitives.h"
#include "core/ProgramParser.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <thread>

using namespace dc;

namespace {

class EvaluatorTest : public ::testing::Test {
protected:
  void SetUp() override {
    prims::functionalCore();
    prims::arithmeticExtras();
    prims::mcCarthy1959();
    prims::listExtras();
    prims::realArithmetic();
  }

  /// Runs \p Src on integer-list input \p In, expecting list output.
  std::vector<long> runOnList(const std::string &Src,
                              const std::vector<long> &In) {
    ExprPtr P = parseProgram(Src);
    EXPECT_NE(P, nullptr) << Src;
    std::vector<ValuePtr> Elems;
    for (long X : In)
      Elems.push_back(Value::makeInt(X));
    ValuePtr Out = runProgram(P, {Value::makeList(Elems)});
    EXPECT_NE(Out, nullptr) << Src;
    std::vector<long> Result;
    if (Out && Out->isList())
      for (const ValuePtr &V : Out->asList())
        Result.push_back(V->asInt());
    return Result;
  }
};

} // namespace

TEST_F(EvaluatorTest, Arithmetic) {
  ValuePtr V = runProgram(parseProgram("(+ 1 (* 2 3))"), {});
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->asInt(), 7);
}

TEST_F(EvaluatorTest, ClosureApplication) {
  ValuePtr V = runProgram(parseProgram("(lambda (+ $0 $0))"),
                          {Value::makeInt(21)});
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->asInt(), 42);
}

TEST_F(EvaluatorTest, NestedClosuresCaptureEnvironment) {
  // (lambda (lambda (- $1 $0))) 10 3 = 7
  ExprPtr P = parseProgram("(lambda (lambda (- $1 $0)))");
  ValuePtr V = runProgram(P, {Value::makeInt(10), Value::makeInt(3)});
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->asInt(), 7);
}

TEST_F(EvaluatorTest, MapDoublesList) {
  EXPECT_EQ(runOnList("(lambda (map (lambda (+ $0 $0)) $0))", {1, 2, 3}),
            (std::vector<long>{2, 4, 6}));
}

TEST_F(EvaluatorTest, FoldSumsList) {
  ExprPtr P = parseProgram("(lambda (fold (lambda (lambda (+ $1 $0))) 0 $0))");
  ASSERT_NE(P, nullptr);
  std::vector<ValuePtr> In = {Value::makeInt(1), Value::makeInt(2),
                              Value::makeInt(3), Value::makeInt(4)};
  ValuePtr V = runProgram(P, {Value::makeList(In)});
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->asInt(), 10);
}

TEST_F(EvaluatorTest, FoldIsRightFold) {
  // fold cons nil == identity on lists only for a right fold.
  EXPECT_EQ(runOnList("(lambda (fold (lambda (lambda (cons $1 $0))) nil $0))",
                      {1, 2, 3}),
            (std::vector<long>{1, 2, 3}));
}

TEST_F(EvaluatorTest, IfIsLazy) {
  // The dead branch (car nil) would fail if evaluated.
  ExprPtr P = parseProgram("(lambda (if (is-nil $0) 0 (car $0)))");
  ASSERT_NE(P, nullptr);
  ValuePtr V = runProgram(P, {Value::makeList({})});
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->asInt(), 0);
  V = runProgram(P, {Value::makeList({Value::makeInt(5)})});
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->asInt(), 5);
}

TEST_F(EvaluatorTest, CarOfEmptyFails) {
  EXPECT_EQ(runProgram(parseProgram("(car nil)"), {}), nullptr);
}

TEST_F(EvaluatorTest, DivergenceIsCutOffByStepBudget) {
  // (fix (lambda (lambda ($1 $0))) 0) never terminates.
  ExprPtr P = parseProgram("(lambda (fix (lambda (lambda ($1 $0))) $0))");
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(runProgram(P, {Value::makeInt(0)}, /*StepBudget=*/5000), nullptr);
}

TEST_F(EvaluatorTest, FixComputesRecursiveLength) {
  // length via the Y combinator, 1959-Lisp style.
  const char *Src = "(lambda (fix (lambda (lambda "
                    "(if (is-nil $0) 0 (+ 1 ($1 (cdr $0)))))) $0))";
  ExprPtr P = parseProgram(Src);
  ASSERT_NE(P, nullptr);
  std::vector<ValuePtr> In = {Value::makeInt(7), Value::makeInt(8),
                              Value::makeInt(9)};
  ValuePtr V = runProgram(P, {Value::makeList(In)});
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->asInt(), 3);
}

TEST_F(EvaluatorTest, FixComputesRecursiveMap) {
  // The paper's Fig 2 program: map (+ z z) via the Y combinator.
  const char *Src =
      "(lambda (fix (lambda (lambda (if (is-nil $0) nil "
      "(cons (+ (car $0) (car $0)) ($1 (cdr $0)))))) $0))";
  EXPECT_EQ(runOnList(Src, {1, 2, 3}), (std::vector<long>{2, 4, 6}));
}

TEST_F(EvaluatorTest, PartialApplicationOfBuiltins) {
  // (map (+ 1) xs): + partially applied to one argument.
  EXPECT_EQ(runOnList("(lambda (map (+ 1) $0))", {1, 2, 3}),
            (std::vector<long>{2, 3, 4}));
}

TEST_F(EvaluatorTest, InventionEvaluation) {
  ExprPtr P = parseProgram("(lambda (#(lambda (+ $0 1)) $0))");
  ASSERT_NE(P, nullptr);
  ValuePtr V = runProgram(P, {Value::makeInt(41)});
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->asInt(), 42);
}

TEST_F(EvaluatorTest, ModSemantics) {
  ValuePtr V = runProgram(parseProgram("(mod 7 3)"), {});
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->asInt(), 1);
  // Division by zero fails rather than crashing.
  EXPECT_EQ(runProgram(parseProgram("(mod 7 0)"), {}), nullptr);
}

TEST_F(EvaluatorTest, PredicatePrimitives) {
  auto Run = [](const std::string &S) {
    ValuePtr V = runProgram(parseProgram(S), {});
    return V && V->isBool() && V->asBool();
  };
  EXPECT_TRUE(Run("(is-prime (+ 6 1))"));
  EXPECT_FALSE(Run("(is-prime (+ 8 1))"));
  EXPECT_TRUE(Run("(is-square (* 4 4))"));
  EXPECT_FALSE(Run("(is-square (+ 4 4))"));
  EXPECT_TRUE(Run("(> 1 0)"));
  EXPECT_FALSE(Run("(> 0 1)"));
}

TEST_F(EvaluatorTest, ListExtras) {
  EXPECT_EQ(runOnList("(lambda (filter (lambda (> $0 1)) $0))", {0, 1, 2, 3}),
            (std::vector<long>{2, 3}));
  EXPECT_EQ(runOnList("(lambda (append $0 $0))", {1, 2}),
            (std::vector<long>{1, 2, 1, 2}));
  ValuePtr R = runProgram(parseProgram("(range (+ 2 2))"), {});
  ASSERT_NE(R, nullptr);
  EXPECT_EQ(R->asList().size(), 4u);
}

TEST_F(EvaluatorTest, RealArithmetic) {
  ValuePtr V = runProgram(parseProgram("(*. pi (sqrt. (+. 1. 1.)))"), {});
  ASSERT_NE(V, nullptr);
  EXPECT_NEAR(V->asReal(), 3.14159265 * std::sqrt(2.0), 1e-6);
  // Division by zero yields failure, not inf.
  EXPECT_EQ(runProgram(parseProgram("(/. 1. (-. 1. 1.))"), {}), nullptr);
}

TEST_F(EvaluatorTest, TypeErrorsFailGracefully) {
  // Applying an int as a function.
  EXPECT_EQ(runProgram(parseProgram("(1 1)"), {}), nullptr);
  // car of a non-list.
  ExprPtr P = parseProgram("(lambda (car $0))");
  EXPECT_EQ(runProgram(P, {Value::makeInt(3)}), nullptr);
}

TEST_F(EvaluatorTest, StringValues) {
  ValuePtr S = Value::makeString("hi");
  ASSERT_TRUE(S->isList());
  EXPECT_EQ(S->asList().size(), 2u);
  EXPECT_EQ(Value::toString(S).value(), "hi");
  EXPECT_EQ(S->show(), "\"hi\"");
}

TEST_F(EvaluatorTest, EvaluatesWhileAnotherThreadRegisters) {
  // Evaluation reads each primitive's value off its node and takes no
  // registry lock, so it runs on while another thread registers; the new
  // primitives evaluate as soon as their nodes are looked up.
  constexpr int NumNew = 64;
  std::atomic<int> Registered{0};
  std::thread Registrar([&] {
    for (int I = 0; I < NumNew; ++I) {
      long Offset = I;
      definePrimitive("evaluator_test_add" + std::to_string(I),
                      Type::arrow(tInt(), tInt()),
                      [Offset](EvalState &, std::span<const ValuePtr> A)
                          -> ValuePtr {
                        return A[0]->isInt()
                                   ? Value::makeInt(A[0]->asInt() + Offset)
                                   : nullptr;
                      });
      Registered.store(I + 1, std::memory_order_release);
    }
  });
  std::vector<std::thread> Evaluators;
  std::atomic<int> Wrong{0};
  for (int W = 0; W < 2; ++W)
    Evaluators.emplace_back([&] {
      ExprPtr P = parseProgram(
          "(lambda (map (lambda (if (> $0 1) (* $0 2) 0)) $0))");
      for (int Round = 0; Round < 200; ++Round) {
        ValuePtr Out = runProgram(
            P, {Value::makeList({Value::makeInt(1), Value::makeInt(3)})});
        if (!Out || Out->asList().size() != 2 ||
            Out->asList()[1]->asInt() != 6)
          ++Wrong;
        int Known = Registered.load(std::memory_order_acquire);
        if (Known == 0)
          continue;
        int I = Round % Known;
        ExprPtr Add =
            lookupPrimitive("evaluator_test_add" + std::to_string(I));
        ValuePtr Sum = Add ? runProgram(Add, {Value::makeInt(10)}) : nullptr;
        if (!Sum || Sum->asInt() != 10 + I)
          ++Wrong;
      }
    });
  Registrar.join();
  for (std::thread &T : Evaluators)
    T.join();
  EXPECT_EQ(Wrong.load(), 0);
}

TEST_F(EvaluatorTest, StepAndDepthAccountingMatchCurried) {
  // Saturated builtins are called in place, closures that capture
  // nothing bind their argument on the stack and runProgram skips a λ
  // program's closure, yet every program must use exactly the steps and
  // depth of plain curried evaluation. Each row's result, least step
  // budget and least MaxDepth were recorded with the curried evaluator
  // (each application evaluated and applied one argument at a time, every
  // environment on the heap). runProgram sets the budgets; the depths go
  // through evaluate and applyValue.
  auto Ints = [](std::vector<long> Xs) {
    std::vector<ValuePtr> Elems;
    for (long X : Xs)
      Elems.push_back(Value::makeInt(X));
    return Value::makeList(std::move(Elems));
  };
  auto Int = [](long X) { return Value::makeInt(X); };
  struct Case {
    const char *Source;
    std::vector<ValuePtr> Inputs;
    const char *Shown;
    long Steps;
    int Depth;
  };
  const std::vector<Case> Cases = {
      // Saturated, curried through a closure, under- and over-applied.
      {"(+ 1 (* 2 3))", {}, "7", 13, 4},
      {"(lambda (+ $0 1))", {Int(41)}, "42", 9, 4},
      {"(lambda (lambda (- $1 $0)))", {Int(10), Int(3)}, "7", 11, 4},
      {"(lambda (+ (length $0) (index 1 $0)))", {Ints({3, 4, 5})}, "7", 18,
       5},
      {"(lambda (car (cons (+ 1) nil) $0))", {Int(41)}, "42", 18, 7},
      {"(lambda (if (> $0 1) + - $0 1))", {Int(5)}, "6", 17, 7},
      // map, fold and zip given partials, closures and bare builtins.
      {"(lambda (map (+ 1) $0))", {Ints({1, 2, 3})}, "[2, 3, 4]", 15, 5},
      {"(lambda (map (lambda (* $0 $0)) $0))", {Ints({1, 2, 3})},
       "[1, 4, 9]", 33, 7},
      {"(lambda (map car (map (lambda (cons $0 nil)) $0)))", {Ints({4, 5})},
       "[4, 5]", 33, 8},
      {"(lambda (map (lambda (fold + $0 $1)) $0))", {Ints({1, 2})},
       "[4, 5]", 39, 8},
      {"(lambda (fold + 0 $0))", {Ints({1, 2, 3, 4})}, "10", 20, 5},
      {"(lambda (fold (lambda (lambda (cons $1 $0))) nil $0))",
       {Ints({1, 2, 3})}, "[1, 2, 3]", 42, 7},
      {"(lambda (fold (lambda (+ $0)) 1 $0))", {Ints({1, 2, 3})}, "7", 30,
       6},
      {"(lambda (zip + $0 $0))", {Ints({1, 2, 3})}, "[2, 4, 6]", 18, 5},
      {"(lambda (zip (lambda (lambda (* $1 $0))) $0 (cdr $0)))",
       {Ints({2, 3, 4})}, "[6, 12]", 35, 7},
      {"(lambda (zip (lambda (- $0)) $0 (map (+ 1) $0)))", {Ints({1, 5})},
       "[-1, -1]", 35, 6},
      // fix recursion.
      {"(lambda (fix (lambda (lambda (if (is-nil $0) 0 (+ 1 ($1 (cdr "
       "$0)))))) $0))",
       {Ints({7, 8, 9})}, "3", 81, 22},
      {"(lambda (fix (lambda (lambda (if (is-nil $0) nil (cons (+ (car $0) "
       "(car $0)) ($1 (cdr $0)))))) $0))",
       {Ints({1, 2, 3})}, "[2, 4, 6]", 117, 22},
      // if taking either branch.
      {"(lambda (if (is-nil $0) 0 (car $0)))", {Ints({})}, "0", 8, 4},
      {"(lambda (if (is-nil $0) 0 (car $0)))", {Ints({5})}, "5", 11, 4},
      // Inventions.
      {"(lambda (#(lambda (+ $0 1)) $0))", {Int(41)}, "42", 14, 6},
      {"(lambda (#(lambda (lambda (+ $0 $1))) $0 1))", {Int(41)}, "42", 18,
       6},
      {"(lambda (map #(lambda (* $0 2)) (filter (lambda (> $0 1)) $0)))",
       {Ints({0, 1, 2, 3})}, "[4, 6]", 64, 8},
  };
  // runProgram with an explicit depth limit.
  auto RunWithDepth = [](ExprPtr P, const std::vector<ValuePtr> &Inputs,
                         int MaxDepth) -> ValuePtr {
    EvalState State(50000, MaxDepth);
    ValuePtr V = evaluate(P, nullptr, State);
    for (const ValuePtr &In : Inputs) {
      if (!V || State.failed())
        return nullptr;
      V = applyValue(V, In, State);
    }
    return State.failed() ? nullptr : V;
  };
  for (const Case &C : Cases) {
    ExprPtr P = parseProgram(C.Source);
    ASSERT_NE(P, nullptr) << C.Source;
    ValuePtr Out = runProgram(P, C.Inputs, C.Steps);
    ASSERT_NE(Out, nullptr) << C.Source;
    EXPECT_EQ(Out->show(), C.Shown) << C.Source;
    EXPECT_EQ(runProgram(P, C.Inputs, C.Steps - 1), nullptr) << C.Source;
    ValuePtr Deep = RunWithDepth(P, C.Inputs, C.Depth);
    ASSERT_NE(Deep, nullptr) << C.Source;
    EXPECT_EQ(Deep->show(), C.Shown) << C.Source;
    EXPECT_EQ(RunWithDepth(P, C.Inputs, C.Depth - 1), nullptr) << C.Source;
  }
}
