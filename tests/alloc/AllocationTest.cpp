//===- tests/alloc/AllocationTest.cpp - Heap allocations on the hot path --===//
//
// This executable replaces the global operator new with one that counts
// the calls made on the calling thread, so a test can pin how many heap
// allocations a piece of code makes. The replacement is process-wide,
// which is why these tests are not part of dc_tests, and the sanitizers
// bring their own allocator, which is why the executable is only built
// without them.
//
//===----------------------------------------------------------------------===//

#include "core/Enumeration.h"
#include "core/Primitives.h"
#include "core/ProgramParser.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

namespace {
thread_local long Allocations = 0;
} // namespace

void *operator new(std::size_t Size) {
  ++Allocations;
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t Size) { return ::operator new(Size); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

using namespace dc;

namespace {

/// EnumerationTest's fixture grammar: the list domain's base language,
/// uniformly weighted.
Grammar uniformListGrammar() {
  std::vector<ExprPtr> Core = prims::functionalCore();
  std::vector<ExprPtr> Extra = prims::arithmeticExtras();
  Core.insert(Core.end(), Extra.begin(), Extra.end());
  return Grammar::uniform(Core);
}

struct WindowCount {
  long Nodes = 0;
  long Programs = 0;
  long Allocations = 0;
};

/// One enumerateWindow over [0, 11) nats, counting what it allocates.
WindowCount countWindow(const Grammar &G, TypePtr Request,
                        ProductionFilterMemo *Memo = nullptr) {
  WindowCount Out;
  long NodesLeft = 1000000;
  const std::function<bool(ExprPtr, double)> Emit = [&](ExprPtr, double) {
    ++Out.Programs;
    return true;
  };
  const long Before = Allocations;
  enumerateWindow(G, Request, 0, 11, NodesLeft, Emit, {}, Memo);
  Out.Allocations = Allocations - Before;
  Out.Nodes = 1000000 - NodesLeft;
  return Out;
}

} // namespace

TEST(AllocationTest, CounterSeesAllocations) {
  const long Before = Allocations;
  auto *Box = new long(7);
  EXPECT_EQ(Allocations - Before, 1);
  delete Box;
}

TEST(AllocationTest, WarmWindowAllocatesNothingPerHole) {
  // Warmed, a window's programs and types are interned and its
  // instantiations memoized, so what is left is the search's own buffers
  // growing: a few dozen allocations, however many holes it fills.
  const Grammar G = uniformListGrammar();
  struct Case {
    TypePtr Request;
    long Nodes;
  };
  for (const Case &C : {Case{Type::arrow(tList(tInt()), tList(tInt())), 19139},
                        Case{Type::arrow(tInt(), tInt()), 13400}}) {
    WindowCount Cold = countWindow(G, C.Request);
    WindowCount Warm = countWindow(G, C.Request);
    EXPECT_EQ(Cold.Nodes, C.Nodes) << C.Request->show();
    EXPECT_EQ(Warm.Nodes, C.Nodes) << C.Request->show();
    EXPECT_EQ(Warm.Programs, Cold.Programs) << C.Request->show();
    EXPECT_LE(Warm.Allocations, 64) << C.Request->show();
  }
}

TEST(AllocationTest, WarmMemoAllocatesNothingPerHole) {
  // A search's production filter memo grows once per distinct request it
  // meets and is only read after that: a window over a warm memo
  // allocates no more than one without it, and filling a fresh memo costs
  // at most one allocation per request remembered.
  const Grammar G = uniformListGrammar();
  for (TypePtr Request : {Type::arrow(tList(tInt()), tList(tInt())),
                          Type::arrow(tInt(), tInt())}) {
    // Warm the arenas and the instantiation memo, with and without a memo.
    ProductionFilterMemo Throwaway;
    countWindow(G, Request, &Throwaway);
    const WindowCount Plain = countWindow(G, Request);

    ProductionFilterMemo Memo;
    const WindowCount Filling = countWindow(G, Request, &Memo);
    const WindowCount Warm = countWindow(G, Request, &Memo);
    EXPECT_EQ(Memo.size(), Throwaway.size()) << Request->show();
    EXPECT_GT(Memo.size(), 0u) << Request->show();
    EXPECT_EQ(Filling.Nodes, Plain.Nodes) << Request->show();
    EXPECT_EQ(Warm.Nodes, Plain.Nodes) << Request->show();
    EXPECT_EQ(Warm.Programs, Plain.Programs) << Request->show();
    EXPECT_LE(Filling.Allocations,
              Plain.Allocations + static_cast<long>(Memo.size()))
        << Request->show();
    EXPECT_LE(Warm.Allocations, Plain.Allocations) << Request->show();
    EXPECT_LE(Warm.Allocations, 64) << Request->show();
  }
}

namespace {

/// Allocations of one runProgram of \p Source on \p Inputs, after a first
/// run has warmed the arenas, and the result's rendering.
std::pair<long, std::string> countRun(const char *Source,
                                      const std::vector<ValuePtr> &Inputs) {
  prims::functionalCore();
  ExprPtr P = parseProgram(Source);
  EXPECT_NE(P, nullptr) << Source;
  runProgram(P, Inputs);
  const long Before = Allocations;
  ValuePtr Out = runProgram(P, Inputs);
  const long Made = Allocations - Before;
  return {Made, Out ? Out->show() : "<failed>"};
}

} // namespace

TEST(AllocationTest, SaturatedCallAllocatesOnlyItsResult) {
  // Only the sum: runProgram runs the λ's body without building its
  // closure and binds $0 in a stack frame, `+` is called in place with no
  // partial application or argument vector, and `1` is the registered
  // value itself.
  auto [Made, Shown] = countRun("(lambda (+ $0 1))", {Value::makeInt(41)});
  EXPECT_EQ(Shown, "42");
  EXPECT_LE(Made, 1);
}

TEST(AllocationTest, MapOverListAllocationsAreBounded) {
  // The outer λ's heap frame (its body builds a closure), the inner
  // closure, the output list and its buffer, and one int per element.
  std::vector<ValuePtr> Elems;
  for (long I = 0; I < 10; ++I)
    Elems.push_back(Value::makeInt(I));
  auto [Made, Shown] = countRun("(lambda (map (lambda (+ $0 1)) $0))",
                                {Value::makeList(std::move(Elems))});
  EXPECT_EQ(Shown, "[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]");
  EXPECT_LE(Made, 14);
}
