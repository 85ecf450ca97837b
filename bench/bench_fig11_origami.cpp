//===- bench/bench_fig11_origami.cpp - Paper Fig 11B: origami Lisp --------===//
//
// The "learning a language for recursive list routines" experiment: only
// the 1959 McCarthy primitives plus the fixpoint combinator, 20 intro
// tasks. The paper needed ~5 days on 64 CPUs to cold-start this domain;
// at bench scale we therefore run three stages:
//
//   1. cold start: wake-sleep from scratch with the reduced budget
//      (solves only the shallow tasks — reported honestly);
//   2. simulated cluster-scale wake: the recursive ground-truth solutions
//      a long search would find are handed to abstraction sleep, under
//      both DreamCoder (refactoring) and EC (subtree-only) conditions —
//      the paper's library comparison (fold-family recursion schemes vs
//      a flatter, less generic library);
//   3. bootstrap: the remaining unsolved tasks are attempted again under
//      each learned library with the same reduced search budget.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "core/ProgramParser.h"
#include "core/WakeSleep.h"
#include "domains/OrigamiDomain.h"
#include "obs/Metrics.h"
#include "obs/Telemetry.h"
#include "obs/Trace.h"

#include <set>

using namespace dc;
using namespace dcbench;

namespace {

/// Ground-truth recursive solutions (what a multi-day wake would find).
const std::pair<const char *, const char *> GroundTruth[] = {
    {"length",
     "(lambda (fix (lambda (lambda (if (is-nil $0) 0 "
     "(+ 1 ($1 (cdr $0)))))) $0))"},
    {"sum",
     "(lambda (fix (lambda (lambda (if (is-nil $0) 0 "
     "(+ (car $0) ($1 (cdr $0)))))) $0))"},
    {"increment-each",
     "(lambda (fix (lambda (lambda (if (is-nil $0) nil "
     "(cons (+ (car $0) 1) ($1 (cdr $0)))))) $0))"},
    {"decrement-each",
     "(lambda (fix (lambda (lambda (if (is-nil $0) nil "
     "(cons (- (car $0) 1) ($1 (cdr $0)))))) $0))"},
    {"double-each",
     "(lambda (fix (lambda (lambda (if (is-nil $0) nil "
     "(cons (+ (car $0) (car $0)) ($1 (cdr $0)))))) $0))"},
    {"zero-out",
     "(lambda (fix (lambda (lambda (if (is-nil $0) nil "
     "(cons 0 ($1 (cdr $0)))))) $0))"},
    {"stutter-ones",
     "(lambda (fix (lambda (lambda (if (is-nil $0) nil "
     "(cons 1 ($1 (cdr $0)))))) $0))"},
    {"append-one",
     "(lambda (fix (lambda (lambda (if (is-nil $0) (cons 1 nil) "
     "(cons (car $0) ($1 (cdr $0)))))) $0))"},
    {"keep-positive",
     "(lambda (fix (lambda (lambda (if (is-nil $0) nil "
     "(if (> (car $0) 0) (cons (car $0) ($1 (cdr $0))) "
     "($1 (cdr $0)))))) $0))"},
    {"countdown",
     "(lambda (fix (lambda (lambda (if (= $0 0) nil "
     "(cons $0 ($1 (- $0 1)))))) $0))"},
    {"repeat-ones",
     "(lambda (fix (lambda (lambda (if (= $0 0) nil "
     "(cons 1 ($1 (- $0 1)))))) $0))"},
};

int countHigherOrder(const Grammar &G) {
  int N = 0;
  for (const Production &P : G.productions())
    if (P.Program->isInvented())
      for (const TypePtr &Arg : functionArguments(P.Ty))
        if (Arg->isArrow()) {
          ++N;
          break;
        }
  return N;
}

} // namespace

int main() {
  dcbench::JsonReport Report("fig11_origami");
  banner("Fig 11B stage 1: cold start (reduced budget)");
  DomainSpec Cold = makeOrigamiDomain(5);
  Cold.Search.NodeBudget = 400000;
  Cold.Search.MaxBudget = 15.0;
  WakeSleepConfig ColdConfig;
  ColdConfig.Variant = SystemVariant::NoRecognition;
  ColdConfig.Iterations = 2;
  ColdConfig.EvaluateTestEachCycle = false;
  ColdConfig.Seed = 13;
  WakeSleepResult ColdResult = runWakeSleep(Cold, ColdConfig);
  row("tasks solved cold %", percent(ColdResult.trainSolved(),
                                     static_cast<int>(
                                         Cold.TrainTasks.size())));
  note("(the paper cold-started this domain with ~5 days x 64 CPUs;");
  note(" stages 2-3 below substitute the long wake with ground truth)");

  banner("Fig 11B stage 2: library learned from recursive solutions");
  for (SystemVariant V : {SystemVariant::NoRecognition, SystemVariant::Ec}) {
    DomainSpec D = makeOrigamiDomain(5);
    Grammar G = Grammar::uniform(D.BasePrimitives);

    std::vector<Frontier> Corpus;
    std::set<std::string> SolvedNames;
    for (const auto &[Name, Src] : GroundTruth) {
      ExprPtr P = parseProgram(Src);
      if (!P) {
        note(std::string("ground truth parse failure: ") + Name);
        continue;
      }
      for (const TaskPtr &T : D.TrainTasks)
        if (T->name() == Name) {
          if (T->logLikelihood(P) != 0.0) {
            note(std::string("ground truth does not solve ") + Name);
            break;
          }
          Frontier F(T);
          F.record({P, G.logLikelihood(T->request(), P), 0.0});
          Corpus.push_back(F);
          SolvedNames.insert(Name);
          break;
        }
    }

    CompressionParams CP;
    CP.StructurePenalty = 0.5;
    CP.RefactorSteps = V == SystemVariant::Ec ? 0 : 3;
    // Telemetry on around this stage only, to read how many rounds
    // overflowed MaxVersionNodes and fell back to top-down proposals: a
    // silent fallback would change the learned library. (Telemetry is
    // write-only: it changes what is recorded, never what is computed.)
    obs::Telemetry::setEnabled(true);
    obs::MetricsRegistry::global().reset();
    CompressionResult CR = compressLibrary(G, Corpus, CP);
    const long Fallbacks = obs::MetricsRegistry::global()
                               .counter("compress.overflow_fallbacks")
                               .value();
    obs::Telemetry::setEnabled(false);
    obs::Tracer::global().clear();

    const char *Label =
        V == SystemVariant::Ec ? "EC (no refactoring)" : "DreamCoder";
    std::printf("  --- %s ---\n", Label);
    row("routines learned",
        static_cast<double>(CR.NewGrammar.inventionCount()));
    row("higher-order (fold-family) routines",
        static_cast<double>(countHigherOrder(CR.NewGrammar)));
    row("library depth",
        static_cast<double>(CR.NewGrammar.libraryDepth()));
    row("rounds falling back to top-down (version table overflow)",
        static_cast<double>(Fallbacks));
    for (const Production &P : CR.NewGrammar.productions())
      if (P.Program->isInvented())
        note("  " + P.Program->show() + " : " + P.Ty->show());

    // Stage 3: can the learned language reach tasks the cold search
    // could not?
    std::vector<TaskPtr> Remaining;
    for (const TaskPtr &T : D.TrainTasks)
      if (!SolvedNames.count(T->name()))
        Remaining.push_back(T);
    EnumerationParams Search = D.Search;
    Search.NodeBudget = 400000;
    Search.MaxBudget = 15.0;
    auto [Solved, Efforts] =
        evaluateTasks(CR.NewGrammar, nullptr, Remaining, Search);
    (void)Efforts;
    row("remaining tasks solved with this library %",
        percent(Solved, static_cast<int>(Remaining.size())));
  }
  note("(paper shape: refactoring yields recursion schemes — higher-order");
  note(" routines — and a deeper bootstrap than subtree-only EC)");
  return 0;
}
