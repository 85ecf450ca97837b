//===- bench/bench_fig5_vs_ops.cpp - Version-space operator microbenches --===//
//
// google-benchmark timings for the Fig 5 operators (incorporate, shift,
// one-step inversion, n-step closures, extraction) on representative list
// programs. These bound the cost of one abstraction-sleep phase.
//
//===----------------------------------------------------------------------===//

#include "core/Primitives.h"
#include "core/ProgramParser.h"
#include "vs/VersionSpace.h"

#include <benchmark/benchmark.h>

using namespace dc;

namespace {

ExprPtr fixtureProgram() {
  prims::functionalCore();
  prims::arithmeticExtras();
  prims::mcCarthy1959();
  return parseProgram("(lambda (map (lambda (+ $0 $0)) (cdr $0)))");
}

ExprPtr recursiveProgram() {
  prims::mcCarthy1959();
  return parseProgram(
      "(lambda (fix (lambda (lambda (if (is-nil $0) nil "
      "(cons (+ (car $0) (car $0)) ($1 (cdr $0)))))) $0))");
}

void BM_Incorporate(benchmark::State &State) {
  ExprPtr P = fixtureProgram();
  for (auto _ : State) {
    VersionTable VT;
    benchmark::DoNotOptimize(VT.incorporate(P));
  }
}
BENCHMARK(BM_Incorporate);

void BM_ShiftFree(benchmark::State &State) {
  ExprPtr P = fixtureProgram();
  VersionTable VT;
  VsId V = VT.incorporate(P);
  for (auto _ : State) {
    benchmark::DoNotOptimize(VT.shiftFree(V, 1));
    benchmark::DoNotOptimize(VT.shiftFree(V, -1));
  }
}
BENCHMARK(BM_ShiftFree);

void BM_OneStepInversion(benchmark::State &State) {
  ExprPtr P = fixtureProgram();
  for (auto _ : State) {
    VersionTable VT;
    benchmark::DoNotOptimize(VT.inversion(VT.incorporate(P)));
  }
}
BENCHMARK(BM_OneStepInversion);

void BM_BetaClosure(benchmark::State &State) {
  ExprPtr P = recursiveProgram();
  int N = static_cast<int>(State.range(0));
  for (auto _ : State) {
    VersionTable VT;
    benchmark::DoNotOptimize(VT.betaClosure(P, N));
  }
  VersionTable VT;
  VsId C = VT.betaClosure(P, N);
  State.counters["graph_nodes"] = static_cast<double>(VT.size());
  State.counters["refactorings"] = VT.extensionSize(C, 1e30);
}
BENCHMARK(BM_BetaClosure)->Arg(1)->Arg(2)->Arg(3);

void BM_ExtractionAfterClosure(benchmark::State &State) {
  ExprPtr P = recursiveProgram();
  VersionTable VT;
  VsId C = VT.betaClosure(P, 2);
  for (auto _ : State) {
    ExtractionMemo Cache;
    benchmark::DoNotOptimize(VT.extractMinimal(C, {}, Cache));
  }
}
BENCHMARK(BM_ExtractionAfterClosure);

void BM_MembershipCheck(benchmark::State &State) {
  ExprPtr P = fixtureProgram();
  VersionTable VT;
  VsId C = VT.betaClosure(P, 2);
  for (auto _ : State)
    benchmark::DoNotOptimize(VT.extensionContains(C, P));
}
BENCHMARK(BM_MembershipCheck);

} // namespace

BENCHMARK_MAIN();
