//===- tests/core/TypeTest.cpp - Type system unit tests -------------------===//

#include "core/Type.h"

#include <gtest/gtest.h>

#include <set>
#include <thread>

using namespace dc;

TEST(Type, ShowGroundTypes) {
  EXPECT_EQ(tInt()->show(), "int");
  EXPECT_EQ(tList(tInt())->show(), "list(int)");
  EXPECT_EQ(tString()->show(), "list(char)");
  EXPECT_EQ(t0()->show(), "t0");
}

TEST(Type, ShowArrows) {
  TypePtr T = Type::arrow(tInt(), tBool());
  EXPECT_EQ(T->show(), "int -> bool");
  TypePtr Curried = Type::arrows({tInt(), tInt()}, tBool());
  EXPECT_EQ(Curried->show(), "int -> int -> bool");
  TypePtr HigherOrder = Type::arrow(Type::arrow(tInt(), tBool()), tInt());
  EXPECT_EQ(HigherOrder->show(), "(int -> bool) -> int");
}

TEST(Type, ArrowAccessors) {
  TypePtr T = Type::arrows({tInt(), tBool()}, tChar());
  EXPECT_TRUE(T->isArrow());
  EXPECT_EQ(functionArity(T), 2);
  EXPECT_EQ(functionReturn(T)->show(), "char");
  auto Args = functionArguments(T);
  ASSERT_EQ(Args.size(), 2u);
  EXPECT_EQ(Args[0]->show(), "int");
  EXPECT_EQ(Args[1]->show(), "bool");
}

TEST(Type, NonArrowHasArityZero) {
  EXPECT_EQ(functionArity(tInt()), 0);
  EXPECT_TRUE(functionArguments(tInt()).empty());
  EXPECT_EQ(functionReturn(tInt())->show(), "int");
}

TEST(Type, Monomorphism) {
  EXPECT_TRUE(tInt()->isMonomorphic());
  EXPECT_TRUE(tList(tInt())->isMonomorphic());
  EXPECT_FALSE(t0()->isMonomorphic());
  EXPECT_FALSE(tList(t0())->isMonomorphic());
}

TEST(Type, StructuralEquality) {
  // Interned: structurally equal types are one node.
  EXPECT_EQ(tList(tInt()), tList(tInt()));
  EXPECT_NE(tList(tInt()), tList(tBool()));
  EXPECT_EQ(t0(), Type::variable(0));
  EXPECT_NE(t0(), t1());
}

TEST(TypeContext, FreshVariablesAreDistinct) {
  TypeContext Ctx;
  TypePtr A = Ctx.makeVariable();
  TypePtr B = Ctx.makeVariable();
  EXPECT_NE(A->variableId(), B->variableId());
}

TEST(TypeContext, UnifyVariableWithGround) {
  TypeContext Ctx;
  TypePtr V = Ctx.makeVariable();
  EXPECT_TRUE(Ctx.unify(V, tInt()));
  EXPECT_EQ(Ctx.apply(V)->show(), "int");
}

TEST(TypeContext, UnifyCongruence) {
  TypeContext Ctx;
  TypePtr V = Ctx.makeVariable();
  EXPECT_TRUE(Ctx.unify(tList(V), tList(tBool())));
  EXPECT_EQ(Ctx.apply(V)->show(), "bool");
}

TEST(TypeContext, UnifyFailsOnMismatch) {
  TypeContext Ctx;
  EXPECT_FALSE(Ctx.unify(tInt(), tBool()));
  EXPECT_FALSE(Ctx.unify(tList(tInt()), tInt()));
}

TEST(TypeContext, OccursCheck) {
  TypeContext Ctx;
  TypePtr V = Ctx.makeVariable();
  EXPECT_FALSE(Ctx.unify(V, tList(V)));
}

TEST(TypeContext, UnifyThroughChains) {
  TypeContext Ctx;
  TypePtr A = Ctx.makeVariable();
  TypePtr B = Ctx.makeVariable();
  EXPECT_TRUE(Ctx.unify(A, B));
  EXPECT_TRUE(Ctx.unify(B, tChar()));
  EXPECT_EQ(Ctx.apply(A)->show(), "char");
}

TEST(TypeContext, InstantiateRenamesConsistently) {
  TypeContext Ctx;
  // t0 -> t0 -> t1 must rename t0 to one fresh variable used twice.
  TypePtr Poly = Type::arrows({t0(), t0()}, t1());
  TypePtr Inst = Ctx.instantiate(Poly);
  auto Args = functionArguments(Inst);
  ASSERT_EQ(Args.size(), 2u);
  EXPECT_EQ(Args[0], Args[1]);
  EXPECT_NE(Args[0], functionReturn(Inst));
}

TEST(TypeContext, UnifyArrowDecomposition) {
  TypeContext Ctx;
  TypePtr A = Ctx.makeVariable();
  TypePtr B = Ctx.makeVariable();
  TypePtr Fn = Type::arrow(A, B);
  EXPECT_TRUE(Ctx.unify(Fn, Type::arrow(tInt(), tList(tInt()))));
  EXPECT_EQ(Ctx.apply(A)->show(), "int");
  EXPECT_EQ(Ctx.apply(B)->show(), "list(int)");
}

TEST(Type, Canonicalize) {
  TypePtr Messy = Type::arrows({Type::variable(7), Type::variable(3)},
                               Type::variable(7));
  TypePtr Canon = canonicalize(Messy);
  EXPECT_EQ(Canon->show(), "t0 -> t1 -> t0");
}

TEST(Type, CollectVariables) {
  TypePtr T = Type::arrows({t1(), t0()}, t1());
  std::vector<int> Vars;
  T->collectVariables(Vars);
  ASSERT_EQ(Vars.size(), 2u);
  EXPECT_EQ(Vars[0], 1);
  EXPECT_EQ(Vars[1], 0);
}

TEST(Type, EqualTypesAreOneNode) {
  EXPECT_EQ(tList(tInt()), Type::constructor("list", {tInt()}));
  EXPECT_EQ(Type::arrow(tInt(), tBool()),
            Type::constructor("->", {tInt(), tBool()}));
  EXPECT_TRUE(Type::constructor("->", {tInt(), tBool()})->isArrow());
  EXPECT_EQ(tList(tInt())->head(), tList(tBool())->head());
  EXPECT_NE(tList(tInt())->head(), tInt()->head());
  EXPECT_EQ(Type::arrows({t1(), t0()}, t1())->maxVariable(), 1);
  EXPECT_EQ(tList(tInt())->maxVariable(), -1);
}

TEST(TypeContext, InstantiateIsTheSameFromColdAndWarmMemo) {
  TypePtr Poly = Type::arrows({Type::arrow(t0(), t1()), tList(t0())},
                              tList(t1()));
  auto InstantiateAfterOffset = [&](int Offset, int &Count) {
    TypeContext Ctx;
    for (int I = 0; I < Offset; ++I)
      Ctx.makeVariable();
    TypePtr Inst = Ctx.instantiate(Poly);
    Count = Ctx.variableCount();
    return Inst;
  };
  // The memo is per thread, so a new thread starts cold.
  TypePtr Cold = nullptr;
  int ColdCount = 0;
  std::thread([&] { Cold = InstantiateAfterOffset(5, ColdCount); }).join();
  int WarmCount = 0;
  InstantiateAfterOffset(5, WarmCount);
  TypePtr Warm = InstantiateAfterOffset(5, WarmCount);
  EXPECT_EQ(Cold, Warm);
  EXPECT_EQ(ColdCount, 7);
  EXPECT_EQ(WarmCount, ColdCount);
  EXPECT_EQ(Warm->show(), "(t5 -> t6) -> list(t5) -> list(t6)");
  // A different offset is a different entry.
  int Count = 0;
  EXPECT_EQ(InstantiateAfterOffset(2, Count)->show(),
            "(t2 -> t3) -> list(t2) -> list(t3)");
  EXPECT_EQ(Count, 4);
}

TEST(TypeContext, NestedMarksUndoInnerThenOuter) {
  TypeContext Ctx;
  TypePtr A = Ctx.makeVariable();
  TypePtr B = Ctx.makeVariable();
  TypePtr C = Ctx.makeVariable();
  TypeContext::Mark Outer = Ctx.mark();
  ASSERT_TRUE(Ctx.unify(A, tInt()));
  TypeContext::Mark Inner = Ctx.mark();
  ASSERT_TRUE(Ctx.unify(B, tList(A)));
  EXPECT_EQ(Ctx.apply(B), tList(tInt()));
  Ctx.undo(Inner);
  EXPECT_EQ(Ctx.apply(A), tInt()) << "bound before the inner mark";
  EXPECT_EQ(Ctx.apply(B), B);
  // A second inner branch from the same point, then back out of both.
  ASSERT_TRUE(Ctx.unify(C, tBool()));
  ASSERT_TRUE(Ctx.unify(B, tChar()));
  Ctx.undo(Outer);
  EXPECT_EQ(Ctx.apply(A), A);
  EXPECT_EQ(Ctx.apply(B), B);
  EXPECT_EQ(Ctx.apply(C), C);
  EXPECT_EQ(Ctx.variableCount(), 3);
}

TEST(TypeContext, UndoRollsBackAFailedUnify) {
  TypeContext Ctx;
  TypePtr A = Ctx.makeVariable();
  TypePtr B = Ctx.makeVariable();
  TypeContext::Mark M = Ctx.mark();
  // Binds A := int and B := bool, then fails on bool against int.
  EXPECT_FALSE(Ctx.unify(Type::arrows({A, B}, tBool()),
                         Type::arrows({tInt(), tBool()}, tInt())));
  EXPECT_EQ(Ctx.apply(A), tInt()) << "the failed attempt left its bindings";
  Ctx.undo(M);
  EXPECT_EQ(Ctx.apply(A), A);
  EXPECT_EQ(Ctx.apply(B), B);
  EXPECT_TRUE(Ctx.unify(A, tBool())) << "A is free again";
}

TEST(TypeContext, UndoRestoresTheVariableCount) {
  TypeContext Ctx;
  Ctx.makeVariable();
  TypeContext::Mark M = Ctx.mark();
  Ctx.instantiate(Type::arrows({Type::arrow(t0(), t1()), tList(t0())},
                               tList(t1())));
  Ctx.makeVariable();
  EXPECT_EQ(Ctx.variableCount(), 4);
  Ctx.undo(M);
  EXPECT_EQ(Ctx.variableCount(), 1);
  EXPECT_EQ(Ctx.makeVariable(), Type::variable(1));
}

TEST(TypeContext, InstantiateAfterUndoEqualsInstantiateBefore) {
  TypePtr Poly = Type::arrows({Type::arrow(t0(), t1()), tList(t0())},
                              tList(t1()));
  TypeContext Ctx;
  Ctx.makeVariable();
  TypeContext::Mark M = Ctx.mark();
  TypePtr Before = Ctx.instantiate(Poly);
  ASSERT_TRUE(Ctx.unify(functionReturn(Before), tList(tInt())));
  EXPECT_EQ(Ctx.apply(Before)->show(), "(t1 -> int) -> list(t1) -> list(int)");
  Ctx.undo(M);
  TypePtr After = Ctx.instantiate(Poly);
  EXPECT_EQ(After, Before);
  EXPECT_EQ(Ctx.apply(After), After) << "its variables are free again";
  EXPECT_EQ(Ctx.variableCount(), 3);
}

TEST(Type, CanonicalizeIsIdempotent) {
  TypePtr Messy = Type::arrows(
      {Type::variable(9), tList(Type::variable(4))}, Type::variable(9));
  TypePtr Canon = canonicalize(Messy);
  EXPECT_EQ(canonicalize(Canon), Canon);
  EXPECT_EQ(Canon, Type::arrows({t0(), tList(t1())}, t0()));
  EXPECT_EQ(canonicalize(tList(tInt())), tList(tInt()));
}

TEST(Type, ConcurrentInterningYieldsOneNodePerType) {
  // Every thread builds the same shapes, in a different order, from
  // scratch; all must come back with the same nodes.
  constexpr int NumThreads = 8;
  constexpr int NumShapes = 64;
  auto Build = [](int Shape) {
    TypePtr T = Shape % 2 ? tInt() : Type::variable(Shape % 7);
    for (int Depth = 0; Depth < Shape % 5; ++Depth)
      T = Depth % 2 ? tList(T) : Type::arrow(T, Type::constructor("grid"));
    return Type::constructor("shape" + std::to_string(Shape % 16), {T});
  };
  std::vector<std::vector<TypePtr>> Seen(NumThreads,
                                         std::vector<TypePtr>(NumShapes));
  std::vector<std::thread> Threads;
  for (int W = 0; W < NumThreads; ++W)
    Threads.emplace_back([&, W] {
      for (int I = 0; I < NumShapes; ++I) {
        int Shape = (I * 7 + W * 13) % NumShapes;
        Seen[W][Shape] = Build(Shape);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  for (int W = 1; W < NumThreads; ++W)
    EXPECT_EQ(Seen[W], Seen[0]) << "thread " << W;
  std::set<std::string> Shown;
  std::set<TypePtr> Nodes(Seen[0].begin(), Seen[0].end());
  for (TypePtr T : Seen[0])
    Shown.insert(T->show());
  EXPECT_EQ(Nodes.size(), Shown.size());
}
