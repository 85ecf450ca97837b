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
                      [Offset](EvalState &, const std::vector<ValuePtr> &A)
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
