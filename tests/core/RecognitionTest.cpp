//===- tests/core/RecognitionTest.cpp - Recognition model unit tests ------===//

#include "core/Recognition.h"

#include "core/Enumeration.h"
#include "core/Primitives.h"
#include "core/ProgramParser.h"

#include <gtest/gtest.h>

#include <set>
#include <thread>

using namespace dc;

namespace {

class RecognitionTest : public ::testing::Test {
protected:
  void SetUp() override {
    std::vector<ExprPtr> Prims = prims::functionalCore();
    G = Grammar::uniform(Prims);
  }

  TaskPtr intTask(const std::string &Name,
                  const std::function<long(long)> &F) {
    std::vector<Example> Ex;
    for (long X : {1, 2, 3, 5, 8})
      Ex.push_back({{Value::makeInt(X)}, Value::makeInt(F(X))});
    return std::make_shared<Task>(Name, Type::arrow(tInt(), tInt()), Ex);
  }

  Grammar G;
  IoFeaturizer Featurizer;
};

} // namespace

TEST_F(RecognitionTest, PredictionsAreWellFormedGrammars) {
  RecognitionParams RP;
  RP.TrainingSteps = 50;
  RecognitionModel Model(G, Featurizer, RP);
  TaskPtr T = intTask("inc", [](long X) { return X + 1; });
  ContextualGrammar CG = Model.predict(*T);
  EXPECT_EQ(CG.productions().size(), G.productions().size());
  // All slot weights are clamped.
  const double *Start = CG.row(CG.slotIndex(ParentStart, 0));
  for (size_t I = 0; I < CG.productions().size(); ++I)
    EXPECT_LE(std::fabs(Start[I]), RP.LogitClamp + 1e-5);
}

TEST_F(RecognitionTest, TrainingReducesLoss) {
  RecognitionParams RP;
  RP.TrainingSteps = 60;
  RP.Seed = 1;
  RecognitionModel Short(G, Featurizer, RP);
  RP.TrainingSteps = 2000;
  RecognitionModel Long(G, Featurizer, RP);

  std::vector<Fantasy> Pairs;
  TaskPtr T1 = intTask("inc", [](long X) { return X + 1; });
  TaskPtr T2 = intTask("dec", [](long X) { return X - 1; });
  Pairs.push_back({T1, parseProgram("(lambda (+ $0 1))"), -3.0});
  Pairs.push_back({T2, parseProgram("(lambda (- $0 1))"), -3.0});
  Short.trainOnPairs(Pairs);
  Long.trainOnPairs(Pairs);
  EXPECT_LT(Long.lastLoss(), Short.lastLoss());
}

TEST_F(RecognitionTest, GuidanceIsTaskConditioned) {
  // Train on two tasks with different solutions; the predicted grammar
  // must assign the right program more probability under its own task.
  RecognitionParams RP;
  RP.TrainingSteps = 3000;
  RP.Seed = 2;
  RecognitionModel Model(G, Featurizer, RP);
  TaskPtr Inc = intTask("inc", [](long X) { return X + 1; });
  TaskPtr Dbl = intTask("dbl", [](long X) { return X + X; });
  ExprPtr IncProgram = parseProgram("(lambda (+ $0 1))");
  ExprPtr DblProgram = parseProgram("(lambda (+ $0 $0))");
  Model.trainOnPairs({{Inc, IncProgram, -3.0}, {Dbl, DblProgram, -3.0}});

  TypePtr Req = Type::arrow(tInt(), tInt());
  auto ScoreUnder = [&](const Task &T, ExprPtr P) {
    ContextualGrammar Q = Model.predict(T);
    double LL = 0;
    bool Ok = walkProgramDecisions(Q, Req, P,
                                   [&](int, int, const GrammarCandidate &C,
                                       std::span<const GrammarCandidate>) {
                                     LL += C.LogProb;
                                   });
    return Ok ? LL : -1e9;
  };
  EXPECT_GT(ScoreUnder(*Inc, IncProgram), ScoreUnder(*Inc, DblProgram));
  EXPECT_GT(ScoreUnder(*Dbl, DblProgram), ScoreUnder(*Dbl, IncProgram));
}

TEST_F(RecognitionTest, GuidedSearchBeatsUniformSearch) {
  RecognitionParams RP;
  RP.TrainingSteps = 3000;
  RP.Seed = 3;
  RecognitionModel Model(G, Featurizer, RP);
  TaskPtr Inc = intTask("inc", [](long X) { return X + 1; });
  Model.trainOnPairs({{Inc, parseProgram("(lambda (+ $0 1))"), -3.0}});

  EnumerationParams Params;
  Params.NodeBudget = 300000;
  EnumerationStats Uniform, Guided;
  solveTask(G, Inc, Params, &Uniform);
  ContextualGrammar Q = Model.predict(*Inc);
  Frontier F = solveTask(Q, Inc, Params, &Guided);
  ASSERT_FALSE(F.empty());
  ASSERT_FALSE(Guided.EffortToSolve.empty());
  if (Uniform.EffortToSolve[0] > 0 && Guided.EffortToSolve[0] > 0) {
    EXPECT_LE(Guided.EffortToSolve[0], Uniform.EffortToSolve[0]);
  }
}

TEST_F(RecognitionTest, UnigramModeCollapsesSlots) {
  RecognitionParams RP;
  RP.Bigram = false;
  RP.TrainingSteps = 10;
  RecognitionModel Model(G, Featurizer, RP);
  EXPECT_EQ(Model.slotCount(), 1);
  TaskPtr T = intTask("inc", [](long X) { return X + 1; });
  Grammar U = Model.predictUnigram(*T);
  EXPECT_EQ(U.productions().size(), G.productions().size());
}

TEST_F(RecognitionTest, AppliedVariableArgumentsHaveTheirOwnRows) {
  // The head has one row per argument of an applied variable, and the
  // guide predict() returns reads each of them: with L3 zeroed and the
  // variable-child bias of head row (variable, A) set to A + 1, the
  // guide's (ParentVariable, A) row reads the base weight plus A + 1.
  RecognitionParams RP;
  RP.Seed = 7;
  RecognitionModel Model(G, Featurizer, RP);
  nn::Linear &L3 = Model.net().L3;
  L3.W.fill(0.0f);
  std::fill(L3.B.begin(), L3.B.end(), 0.0f);
  ContextualGrammar Layout(G);
  const int Var = Layout.childCount() - 1;
  ASSERT_EQ(Layout.maxArity(), 3);
  for (int A = 0; A < Layout.maxArity(); ++A)
    L3.B[Layout.slotIndex(ParentVariable, A) * Layout.childCount() + Var] =
        static_cast<float>(A + 1);
  TaskPtr T = intTask("inc", [](long X) { return X + 1; });
  ContextualGrammar CG = Model.predict(*T);
  for (int A = 0; A < CG.maxArity(); ++A)
    EXPECT_EQ(CG.row(CG.slotIndex(ParentVariable, A))[Var],
              G.logVariable() + (A + 1))
        << "argument " << A;

  // One training step on a program through an applied binary variable
  // moves exactly the guide rows its decisions read (the rows of the
  // variable's third argument, which it never fills, stay put).
  TypePtr Req = Type::arrow(Type::arrows({tInt(), tInt()}, tInt()), tInt());
  ExprPtr Program = parseProgram("(lambda ($0 1 (+ 1 0)))");
  nn::Workspace WS;
  nn::Gradients Grad(Model.net());
  ASSERT_GT(Model.exampleLossAndGrad(Featurizer.featurize(*T), Req, Program,
                                     WS, Grad),
            0.0);
  for (size_t I = 0; I < L3.B.size(); ++I)
    L3.B[I] -= Grad.D.L3.B[I];
  ContextualGrammar Trained = Model.predict(*T);
  std::set<int> Moved, Read;
  for (int S = 0; S < CG.slotCount(); ++S)
    if (!std::equal(CG.row(S), CG.row(S) + CG.childCount(), Trained.row(S)))
      Moved.insert(S);
  ASSERT_TRUE(walkProgramDecisions(
      Trained, Req, Program,
      [&](int ParentIdx, int ArgIdx, const GrammarCandidate &,
          std::span<const GrammarCandidate>) {
        Read.insert(Trained.slotIndex(ParentIdx, ArgIdx));
      }));
  EXPECT_EQ(Moved, Read);
  EXPECT_EQ(Read.size(), 5u); // start, (var, 0..1), (+, 0..1)
}

TEST_F(RecognitionTest, TrainHandlesEmptyReplays) {
  RecognitionParams RP;
  RP.TrainingSteps = 100;
  RP.FantasyCount = 30;
  RecognitionModel Model(G, Featurizer, RP);
  std::vector<TaskPtr> Seeds = {intTask("seed", [](long X) { return X; })};
  Model.train({}, Seeds); // fantasies only
  SUCCEED();
}

TEST_F(RecognitionTest, ParallelTrainingIsBitIdentical) {
  // The determinism contract: trained weights and lastLoss() are a pure
  // function of the seed, never of NumThreads. Gradients reduce in
  // example order before each Adam step, so 1, 4, and 8 threads must
  // produce bit-for-bit identical nets.
  std::vector<Fantasy> Pairs;
  TaskPtr T1 = intTask("inc", [](long X) { return X + 1; });
  TaskPtr T2 = intTask("dec", [](long X) { return X - 1; });
  TaskPtr T3 = intTask("dbl", [](long X) { return X + X; });
  Pairs.push_back({T1, parseProgram("(lambda (+ $0 1))"), -3.0});
  Pairs.push_back({T2, parseProgram("(lambda (- $0 1))"), -3.0});
  Pairs.push_back({T3, parseProgram("(lambda (+ $0 $0))"), -3.0});

  auto TrainAt = [&](int Threads) {
    RecognitionParams RP;
    RP.TrainingSteps = 400;
    RP.Seed = 17;
    RP.NumThreads = Threads;
    RecognitionModel Model(G, Featurizer, RP);
    Model.trainOnPairs(Pairs);
    return std::make_pair(Model.weightFingerprint(), Model.lastLoss());
  };
  auto [Fp1, Loss1] = TrainAt(1);
  auto [Fp4, Loss4] = TrainAt(4);
  auto [Fp8, Loss8] = TrainAt(8);
  EXPECT_EQ(Fp1, Fp4);
  EXPECT_EQ(Fp1, Fp8);
  EXPECT_EQ(Loss1, Loss4); // exact: same reduction order bit-for-bit
  EXPECT_EQ(Loss1, Loss8);
}

TEST_F(RecognitionTest, ConcurrentPredictReturnsIdenticalGrammars) {
  // predict() is const and reentrant: eight threads sharing one trained
  // model must each get exactly the serial answer. Run under TSan in CI
  // — this is the regression test for the old mutable-Net data race.
  RecognitionParams RP;
  RP.TrainingSteps = 200;
  RP.Seed = 5;
  RecognitionModel Model(G, Featurizer, RP);
  TaskPtr Inc = intTask("inc", [](long X) { return X + 1; });
  Model.trainOnPairs({{Inc, parseProgram("(lambda (+ $0 1))"), -3.0}});

  auto Signature = [&](const ContextualGrammar &CG) {
    const double *Rows = CG.row(0);
    return std::vector<double>(Rows, Rows + CG.slotCount() * CG.childCount());
  };
  std::vector<double> Serial = Signature(Model.predict(*Inc));

  constexpr int NumThreads = 8;
  std::vector<std::vector<double>> Observed(NumThreads);
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      for (int Round = 0; Round < 10; ++Round)
        Observed[T] = Signature(Model.predict(*Inc));
    });
  for (std::thread &T : Threads)
    T.join();
  for (int T = 0; T < NumThreads; ++T)
    EXPECT_EQ(Observed[T], Serial) << "thread " << T << " diverged";
}

TEST_F(RecognitionTest, ExampleGradMatchesFiniteDifference) {
  // Central-difference check of the full pipeline (forward → masked
  // log-softmax over each decision's support → backward) on a tiny
  // bigram net.
  RecognitionParams RP;
  RP.HiddenDim = 8;
  RP.Seed = 23;
  RecognitionModel Model(G, Featurizer, RP);
  TaskPtr T = intTask("inc", [](long X) { return X + 1; });
  ExprPtr Program = parseProgram("(lambda (+ $0 1))");
  std::vector<float> Features = Featurizer.featurize(*T);
  TypePtr Req = T->request();

  nn::Workspace WS;
  nn::Gradients Grad(Model.net());
  double Loss = Model.exampleLossAndGrad(Features, Req, Program, WS, Grad);
  ASSERT_GT(Loss, 0.0) << "program must be in the grammar's support";

  auto Segments = Model.net().parameterSegments();
  auto GradSegments = Grad.D.parameterSegments();
  ASSERT_EQ(Segments.size(), GradSegments.size());
  const float H = 1e-2f;
  int Checked = 0;
  for (size_t S = 0; S < Segments.size(); ++S) {
    // Spot-check a few parameters per segment; a full sweep is O(P²).
    for (size_t I = 0; I < Segments[S].Size;
         I += std::max<size_t>(1, Segments[S].Size / 3)) {
      float P0 = Segments[S].Param[I];
      nn::Workspace ScratchWS;
      nn::Gradients ScratchG(Model.net());
      Segments[S].Param[I] = P0 + H;
      double Up = Model.exampleLossAndGrad(Features, Req, Program,
                                           ScratchWS, ScratchG);
      Segments[S].Param[I] = P0 - H;
      double Down = Model.exampleLossAndGrad(Features, Req, Program,
                                             ScratchWS, ScratchG);
      Segments[S].Param[I] = P0;
      double Numeric = (Up - Down) / (2.0 * H);
      EXPECT_NEAR(GradSegments[S].Param[I], Numeric, 2e-2)
          << "segment " << S << " param " << I;
      ++Checked;
    }
  }
  EXPECT_GE(Checked, 12);
}

TEST_F(RecognitionTest, GradScaleScalesGradients) {
  RecognitionParams RP;
  RP.HiddenDim = 8;
  RP.Seed = 29;
  RecognitionModel Model(G, Featurizer, RP);
  TaskPtr T = intTask("inc", [](long X) { return X + 1; });
  ExprPtr Program = parseProgram("(lambda (+ $0 1))");
  std::vector<float> Features = Featurizer.featurize(*T);

  nn::Workspace WS;
  nn::Gradients Full(Model.net()), Quarter(Model.net());
  double L1 = Model.exampleLossAndGrad(Features, T->request(), Program, WS,
                                       Full, 1.0f);
  double L2 = Model.exampleLossAndGrad(Features, T->request(), Program, WS,
                                       Quarter, 0.25f);
  EXPECT_DOUBLE_EQ(L1, L2) << "returned loss is unscaled";
  const nn::Matrix &FullW3 = Full.D.L3.W, &QuarterW3 = Quarter.D.L3.W;
  for (size_t I = 0; I < FullW3.size(); ++I)
    EXPECT_NEAR(QuarterW3.data()[I], 0.25f * FullW3.data()[I], 1e-6);
}

namespace {

/// FNV-1a over \p S, continuing from \p H.
uint64_t fnv1a(const std::string &S, uint64_t H) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ULL;
  }
  return H;
}

/// A search result as a comparable string: frontier programs with
/// bit-exact scores plus the stats block.
std::string searchSignature(const Frontier &F, const EnumerationStats &S) {
  std::string Sig;
  char Buf[128];
  for (const FrontierEntry &E : F.entries()) {
    std::snprintf(Buf, sizeof(Buf), "|%a|%a;", E.LogPrior, E.LogLikelihood);
    Sig += E.Program->show() + Buf;
  }
  std::snprintf(Buf, sizeof(Buf), " nodes=%ld progs=%ld budget=%a\n",
                S.NodesExpanded, S.ProgramsEnumerated, S.BudgetReached);
  Sig += Buf;
  for (long E : S.EffortToSolve)
    Sig += std::to_string(E) + " ";
  return Sig;
}

/// Forwards to a guide and counts the holes filled under an applied
/// variable (the ParentVariable rows).
class VariableHoleCounter : public EnumerationSource {
public:
  explicit VariableHoleCounter(const EnumerationSource &Inner)
      : Inner(Inner) {}

  void candidates(int ParentIdx, int ArgIdx, TypePtr Request,
                  const TypeEnv *Environment, TypeContext &Ctx,
                  std::vector<GrammarCandidate> &Out,
                  ProductionFilterMemo *Memo) const override {
    if (ParentIdx == ParentVariable)
      ++Holes;
    Inner.candidates(ParentIdx, ArgIdx, Request, Environment, Ctx, Out, Memo);
  }

  mutable long Holes = 0; ///< single-threaded enumeration only

private:
  const EnumerationSource &Inner;
};

} // namespace

TEST_F(RecognitionTest, TrainingAndGuidedSearchMatchGolden) {
  // Pins dream sleep and the guided wake search across builds: trained
  // weights and loss (replays plus fantasies, through train()), the
  // unigram head, and a guided search under each task's predicted grammar,
  // for a bigram L^MAP model at 1 and 4 threads and a unigram L^post one.
  // None of these searches fills a hole under an applied variable, so the
  // literal does not depend on the guide's variable-parent rows.
  TaskPtr Inc = intTask("inc", [](long X) { return X + 1; });
  TaskPtr Dbl = intTask("dbl", [](long X) { return X + X; });
  TaskPtr Dec2 = intTask("dec2", [](long X) { return X - 2; });
  std::vector<TaskPtr> Tasks = {Inc, Dbl, Dec2};
  std::vector<Frontier> Replays;
  for (auto [T, Programs] :
       std::vector<std::pair<TaskPtr, std::vector<const char *>>>{
           {Inc, {"(lambda (+ $0 1))", "(lambda (+ 1 $0))"}},
           {Dbl, {"(lambda (+ $0 $0))"}},
           {Dec2, {}}}) {
    Frontier F(T);
    for (const char *Src : Programs)
      F.record({parseProgram(Src), -4.0, 0.0});
    Replays.push_back(F);
  }

  uint64_t H = 1469598103934665603ULL;
  char Buf[64];
  long VariableHoles = 0;
  auto Pin = [&](const RecognitionParams &RP) {
    RecognitionModel Model(G, Featurizer, RP);
    Model.train(Replays, Tasks);
    std::snprintf(Buf, sizeof(Buf), "%016llx %a\n",
                  static_cast<unsigned long long>(Model.weightFingerprint()),
                  Model.lastLoss());
    H = fnv1a(Buf, H);
    Grammar U = Model.predictUnigram(*Dbl);
    for (const Production &P : U.productions()) {
      std::snprintf(Buf, sizeof(Buf), "%a ", P.LogWeight);
      H = fnv1a(Buf, H);
    }
    std::snprintf(Buf, sizeof(Buf), "%a\n", U.logVariable());
    H = fnv1a(Buf, H);

    EnumerationParams Params;
    Params.MaxBudget = 13;
    Params.NodeBudget = 30000;
    for (const TaskPtr &T : Tasks) {
      ContextualGrammar Guide = Model.predict(*T);
      VariableHoleCounter Counted(Guide);
      EnumerationStats Stats;
      Frontier F = solveTask(Counted, T, Params, &Stats);
      H = fnv1a(searchSignature(F, Stats), H);
      VariableHoles += Counted.Holes;
    }
  };

  RecognitionParams RP;
  RP.TrainingSteps = 240;
  RP.FantasyCount = 24;
  RP.Seed = 31;
  for (int Threads : {1, 4}) {
    RP.NumThreads = Threads;
    Pin(RP);
  }
  RP.Bigram = false;
  RP.MapObjective = false;
  Pin(RP);

  EXPECT_EQ(VariableHoles, 0);
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(H));
  EXPECT_STREQ(Buf, "b0c43e969ed97b2e");
}

TEST_F(RecognitionTest, FeaturizerDistinguishesTaskFamilies) {
  TaskPtr A = intTask("inc", [](long X) { return X + 1; });
  TaskPtr B = intTask("big", [](long X) { return 7 * X + 3; });
  std::vector<float> FA = Featurizer.featurize(*A);
  std::vector<float> FB = Featurizer.featurize(*B);
  ASSERT_EQ(FA.size(), FB.size());
  double Diff = 0;
  for (size_t I = 0; I < FA.size(); ++I)
    Diff += std::fabs(FA[I] - FB[I]);
  EXPECT_GT(Diff, 0.1);
  // Determinism.
  EXPECT_EQ(FA, Featurizer.featurize(*A));
}
