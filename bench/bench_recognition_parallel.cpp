//===- bench/bench_recognition_parallel.cpp - Parallel dream training -----===//
//
// Dream-phase training on one (task, program) corpus at NumThreads=1
// and in parallel (only the per-pair featurization and decision walks
// fan out; the minibatch steps are serial). The determinism contract
// says trained weights and lastLoss() are bit-identical at every thread
// count — verified here by parameter fingerprint at 1/4/8 threads,
// exiting nonzero on any divergence. The printed weights fingerprint is
// also compared against the committed baseline by tools/check_bench.py,
// which pins trained weights across commits and compilers. Also drives
// predict() from many threads at once and checks every caller sees the
// serial answer (the thread-safety contract wake-phase guide fan-out
// relies on).
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "core/Primitives.h"
#include "core/ProgramParser.h"
#include "core/Recognition.h"
#include "core/ThreadPool.h"

#include <cstdio>
#include <thread>

using namespace dc;
using namespace dcbench;

namespace {

TaskPtr intTask(const std::string &Name,
                const std::function<long(long)> &F) {
  std::vector<Example> Ex;
  for (long X : {1, 2, 3, 5, 8, 13})
    Ex.push_back({{Value::makeInt(X)}, Value::makeInt(F(X))});
  return std::make_shared<Task>(Name, Type::arrow(tInt(), tInt()), Ex);
}

/// A small corpus of arithmetic idioms: eight pairs, each presented
/// about 500 times, so the timing is the minibatch steps themselves.
std::vector<Fantasy> buildCorpus() {
  struct Spec {
    const char *Name;
    const char *Src;
    std::function<long(long)> F;
  };
  const Spec Specs[] = {
      {"inc", "(lambda (+ $0 1))", [](long X) { return X + 1; }},
      {"dec", "(lambda (- $0 1))", [](long X) { return X - 1; }},
      {"dbl", "(lambda (+ $0 $0))", [](long X) { return X + X; }},
      {"sqr", "(lambda (* $0 $0))", [](long X) { return X * X; }},
      {"inc2", "(lambda (+ (+ $0 1) 1))", [](long X) { return X + 2; }},
      {"dbl-inc", "(lambda (+ (+ $0 $0) 1))",
       [](long X) { return 2 * X + 1; }},
      {"sqr-inc", "(lambda (+ (* $0 $0) 1))",
       [](long X) { return X * X + 1; }},
      {"tri", "(lambda (+ (* $0 $0) $0))",
       [](long X) { return X * X + X; }},
  };
  std::vector<Fantasy> Pairs;
  for (const Spec &S : Specs) {
    ExprPtr P = parseProgram(S.Src);
    if (!P) {
      std::fprintf(stderr, "bad corpus program: %s\n", S.Src);
      std::exit(1);
    }
    Pairs.push_back({intTask(S.Name, S.F), P, -3.0});
  }
  return Pairs;
}

} // namespace

int main() {
  dcbench::JsonReport Report("recognition_parallel");
  banner("Parallel recognition-model training (thread pool)");
  const int Threads = threadsFromEnv();
  const unsigned Resolved = ThreadPool::resolveThreadCount(Threads);

  std::vector<ExprPtr> Core = prims::functionalCore();
  std::vector<ExprPtr> Extra = prims::arithmeticExtras();
  Core.insert(Core.end(), Extra.begin(), Extra.end());
  Grammar G = Grammar::uniform(Core);
  IoFeaturizer Featurizer;
  std::vector<Fantasy> Corpus = buildCorpus();
  row("corpus pairs", static_cast<double>(Corpus.size()));

  RecognitionParams RP;
  RP.TrainingSteps = 4000;
  RP.Seed = 7;

  auto TrainAt = [&](int NumThreads, double *Seconds) {
    RP.NumThreads = NumThreads;
    RecognitionModel Model(G, Featurizer, RP);
    WallTimer Timer;
    Model.trainOnPairs(Corpus);
    if (Seconds)
      *Seconds = Timer.seconds();
    return std::make_pair(Model.weightFingerprint(), Model.lastLoss());
  };

  // Determinism gate: bit-identical weights and loss at 1/4/8 threads.
  double SerialSec = 0, ParallelSec = 0;
  auto [Fp1, Loss1] = TrainAt(1, &SerialSec);
  auto [Fp4, Loss4] = TrainAt(4, nullptr);
  auto [Fp8, Loss8] = TrainAt(8, nullptr);
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", Loss1);
  note(std::string("final training loss ") + Buf);
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(Fp1));
  note(std::string("trained weights fingerprint: ") + Buf);
  const bool Identical = Fp1 == Fp4 && Fp1 == Fp8 && Loss1 == Loss4 &&
                         Loss1 == Loss8;
  note(Identical ? "trained weights identical at 1/4/8 threads "
                   "(determinism)"
                 : "ERROR: trained weights differ across thread counts");
  if (!Identical)
    std::exit(1);

  // Timing: serial above vs the environment's thread count.
  TrainAt(Threads, &ParallelSec);
  row("serial training (1 thread)", SerialSec, "s");
  row("parallel training (" + std::to_string(Resolved) + " threads)",
      ParallelSec, "s");
  if (ParallelSec > 0)
    row("speedup", SerialSec / ParallelSec, "x");
  if (std::thread::hardware_concurrency() <= 1)
    note("(single hardware core: no wall-clock speedup is possible on "
         "this machine)");

  // Concurrent-prediction gate: many threads sharing one model must each
  // reproduce the serial guide exactly.
  RP.NumThreads = Threads;
  RecognitionModel Model(G, Featurizer, RP);
  Model.trainOnPairs(Corpus);
  auto Signature = [&](const Task &T) {
    std::string Sig;
    ContextualGrammar CG = Model.predict(T);
    char W[64];
    const double *Start = CG.row(CG.slotIndex(ParentStart, 0));
    for (size_t I = 0; I < CG.productions().size(); ++I) {
      std::snprintf(W, sizeof(W), "%.17g;", Start[I]);
      Sig += W;
    }
    return Sig;
  };
  std::vector<std::string> Expected;
  for (const Fantasy &P : Corpus)
    Expected.push_back(Signature(*P.T));
  constexpr int PredictThreads = 8;
  std::vector<char> ThreadOk(PredictThreads, 1);
  {
    std::vector<std::thread> Workers;
    for (int W = 0; W < PredictThreads; ++W)
      Workers.emplace_back([&, W] {
        for (int Round = 0; Round < 20; ++Round)
          for (size_t I = 0; I < Corpus.size(); ++I)
            if (Signature(*Corpus[I].T) != Expected[I])
              ThreadOk[W] = 0;
      });
    for (std::thread &T : Workers)
      T.join();
  }
  bool PredictIdentical = true;
  for (char Ok : ThreadOk)
    PredictIdentical = PredictIdentical && Ok;
  row("concurrent predict threads", PredictThreads);
  note(PredictIdentical
           ? "concurrent predictions identical to serial (thread safety)"
           : "ERROR: concurrent predictions diverged");
  if (!PredictIdentical)
    std::exit(1);
  note("(set DC_THREADS to change the parallel thread count; 0 = one");
  note(" per hardware core)");
  return 0;
}
