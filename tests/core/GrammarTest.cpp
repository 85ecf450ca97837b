//===- tests/core/GrammarTest.cpp - Grammar and likelihood unit tests -----===//

#include "core/ContextualGrammar.h"
#include "core/Grammar.h"
#include "core/LikelihoodSummary.h"
#include "core/Primitives.h"
#include "core/ProgramParser.h"
#include "core/Sampling.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace dc;

namespace {

class GrammarTest : public ::testing::Test {
protected:
  void SetUp() override {
    std::vector<ExprPtr> Core = prims::functionalCore();
    std::vector<ExprPtr> Extra = prims::arithmeticExtras();
    Core.insert(Core.end(), Extra.begin(), Extra.end());
    G = Grammar::uniform(Core);
  }

  Grammar G;
};

} // namespace

TEST_F(GrammarTest, CandidatesRespectTypes) {
  TypeContext Ctx;
  std::vector<GrammarCandidate> Cands;
  G.candidates(ParentStart, 0, tBool(), nullptr, Ctx, Cands);
  // Booleans can come from: if, =, >, is-square, is-prime, is-nil. A
  // candidate holds no context: bind it on one, then resolve its type.
  for (const auto &C : Cands) {
    TypeContext Local = Ctx;
    TypePtr Ret = Local.apply(functionReturn(bindCandidate(C, tBool(), Local)));
    EXPECT_EQ(Ret->show(), "bool") << C.Leaf->show();
  }
  EXPECT_FALSE(Cands.empty());
  // Trying the candidates left the caller's context as it was.
  EXPECT_EQ(Ctx.variableCount(), 0);
}

TEST_F(GrammarTest, CandidatesIncludeTypeMatchingVariables) {
  TypeContext Ctx;
  // Outermost first: the int is $1, the list is $0.
  TypeEnv Outer{tInt(), nullptr};
  TypeEnv Inner{tList(tInt()), &Outer};
  std::vector<GrammarCandidate> Cands;
  G.candidates(ParentStart, 0, tInt(), &Inner, Ctx, Cands);
  bool SawVariable = false;
  for (const auto &C : Cands)
    if (C.ProductionIdx == -1) {
      SawVariable = true;
      EXPECT_EQ(C.Leaf->show(), "$1");
    }
  EXPECT_TRUE(SawVariable);
}

TEST_F(GrammarTest, CandidateProbabilitiesNormalize) {
  TypeContext Ctx;
  TypeEnv Env{tInt(), nullptr};
  std::vector<GrammarCandidate> Cands;
  G.candidates(ParentStart, 0, tInt(), &Env, Ctx, Cands);
  double Total = 0;
  for (const auto &C : Cands)
    Total += std::exp(C.LogProb);
  EXPECT_NEAR(Total, 1.0, 1e-9);
}

TEST_F(GrammarTest, LikelihoodOfSimplePrograms) {
  // All of these must be inside the support (finite likelihood).
  const char *Programs[] = {
      "(lambda (+ $0 1))",
      "(lambda (map (lambda (+ $0 $0)) $0))",
      "(lambda (fold (lambda (lambda (+ $1 $0))) 0 $0))",
  };
  TypePtr Requests[] = {
      Type::arrow(tInt(), tInt()),
      Type::arrow(tList(tInt()), tList(tInt())),
      Type::arrow(tList(tInt()), tInt()),
  };
  for (int I = 0; I < 3; ++I) {
    double LL = G.logLikelihood(Requests[I], parseProgram(Programs[I]));
    EXPECT_TRUE(std::isfinite(LL)) << Programs[I];
    EXPECT_LT(LL, 0.0) << Programs[I];
  }
}

TEST_F(GrammarTest, LikelihoodRejectsIllTyped) {
  double LL = G.logLikelihood(Type::arrow(tInt(), tBool()),
                              parseProgram("(lambda (+ $0 1))"));
  EXPECT_TRUE(std::isinf(LL));
}

TEST_F(GrammarTest, LikelihoodHandlesEtaExpansion) {
  // (map car ...) passes car unapplied; likelihood must eta-expand.
  ExprPtr P = parseProgram("(lambda (map car $0))");
  ASSERT_NE(P, nullptr);
  TypePtr Req =
      Type::arrow(tList(tList(tInt())), tList(tInt()));
  double Applied = G.logLikelihood(
      Req, parseProgram("(lambda (map (lambda (car $0)) $0))"));
  double Unapplied = G.logLikelihood(Req, P);
  EXPECT_TRUE(std::isfinite(Applied));
  EXPECT_TRUE(std::isfinite(Unapplied));
  EXPECT_NEAR(Applied, Unapplied, 1e-9)
      << "eta-equivalent programs must score identically";
}

TEST_F(GrammarTest, DeeperProgramsAreLessLikely) {
  TypePtr Req = Type::arrow(tInt(), tInt());
  double Short = G.logLikelihood(Req, parseProgram("(lambda (+ $0 1))"));
  double Long =
      G.logLikelihood(Req, parseProgram("(lambda (+ (+ $0 1) (+ 1 1)))"));
  EXPECT_GT(Short, Long);
}

TEST_F(GrammarTest, SummaryMatchesDirectLikelihood) {
  TypePtr Req = Type::arrow(tList(tInt()), tList(tInt()));
  ExprPtr P = parseProgram("(lambda (map (lambda (* $0 $0)) $0))");
  LikelihoodSummary S = LikelihoodSummary::build(G, Req, P);
  ASSERT_TRUE(S.valid());
  EXPECT_NEAR(S.logLikelihood(G), G.logLikelihood(Req, P), 1e-9);
}

TEST_F(GrammarTest, SummaryTracksReweighting) {
  TypePtr Req = Type::arrow(tInt(), tInt());
  ExprPtr P = parseProgram("(lambda (+ $0 1))");
  LikelihoodSummary S = LikelihoodSummary::build(G, Req, P);
  ASSERT_TRUE(S.valid());
  Grammar G2 = G;
  G2.productions()[G2.productionIndex(lookupPrimitive("+"))].LogWeight = 2.0;
  EXPECT_NEAR(S.logLikelihood(G2), G2.logLikelihood(Req, P), 1e-9)
      << "summaries must track weight changes exactly";
}

TEST_F(GrammarTest, AccumulatedSummariesPoolCounts) {
  TypePtr Req = Type::arrow(tInt(), tInt());
  LikelihoodSummary A =
      LikelihoodSummary::build(G, Req, parseProgram("(lambda (+ $0 1))"));
  LikelihoodSummary B =
      LikelihoodSummary::build(G, Req, parseProgram("(lambda (- $0 1))"));
  ASSERT_TRUE(A.valid());
  ASSERT_TRUE(B.valid());
  double SumSeparate = A.logLikelihood(G) + B.logLikelihood(G);
  LikelihoodSummary Pooled = A;
  Pooled.accumulate(B, 1.0);
  EXPECT_NEAR(Pooled.logLikelihood(G), SumSeparate, 1e-9)
      << "pooling with weight 1 must add likelihoods";
  // Weighted accumulation scales the contribution.
  LikelihoodSummary Half = A;
  Half.accumulate(B, 0.5);
  EXPECT_NEAR(Half.logLikelihood(G),
              A.logLikelihood(G) + 0.5 * B.logLikelihood(G), 1e-9);
}

TEST_F(GrammarTest, RefitConcentratesOnUsedProductions) {
  TypePtr Req = Type::arrow(tInt(), tInt());
  ExprPtr P = parseProgram("(lambda (+ $0 1))");
  LikelihoodSummary S = LikelihoodSummary::build(G, Req, P);
  ASSERT_TRUE(S.valid());
  ExpectedCounts Counts;
  Counts.add(S, 1.0);
  Grammar Fit = G;
  refitGrammar(Fit, Counts);
  double Before = G.logLikelihood(Req, P);
  double After = Fit.logLikelihood(Req, P);
  EXPECT_GT(After, Before) << "fitting must increase data likelihood";
}

TEST_F(GrammarTest, SamplesAreWellTypedAndScoreFinite) {
  std::mt19937 Rng(7);
  TypePtr Req = Type::arrow(tList(tInt()), tList(tInt()));
  int Successes = 0;
  for (int I = 0; I < 50; ++I) {
    ExprPtr P = G.sample(Req, Rng);
    if (!P)
      continue;
    ++Successes;
    TypePtr T = P->inferType();
    ASSERT_NE(T, nullptr) << P->show();
    TypeContext Ctx;
    TypePtr Want = Ctx.instantiate(Req);
    TypePtr Got = Ctx.instantiate(T);
    EXPECT_TRUE(Ctx.unify(Want, Got)) << P->show();
    EXPECT_TRUE(std::isfinite(G.logLikelihood(Req, P))) << P->show();
  }
  EXPECT_GT(Successes, 10);
}

TEST_F(GrammarTest, ContextualGrammarMatchesBaseWhenUntrained) {
  ContextualGrammar CG(G);
  TypePtr Req = Type::arrow(tInt(), tInt());
  ExprPtr P = parseProgram("(lambda (+ $0 1))");
  double Unigram = G.logLikelihood(Req, P);
  double Bigram = 0;
  bool Ok = walkProgramDecisions(CG, Req, P,
                                 [&](int, int, const GrammarCandidate &C,
                                     std::span<const GrammarCandidate>) {
                                   Bigram += C.LogProb;
                                 });
  ASSERT_TRUE(Ok);
  EXPECT_NEAR(Unigram, Bigram, 1e-9);
}

TEST_F(GrammarTest, ContextualGrammarSlotWeightsBite) {
  ContextualGrammar CG(G);
  // Forbid 1 as the second argument of +.
  int PlusIdx = G.productionIndex(lookupPrimitive("+"));
  int OneIdx = G.productionIndex(lookupPrimitive("1"));
  ASSERT_GE(PlusIdx, 0);
  ASSERT_GE(OneIdx, 0);
  CG.row(CG.slotIndex(PlusIdx, 1))[OneIdx] = -30.0;

  TypePtr Req = Type::arrow(tInt(), tInt());
  double BadScore = 0;
  walkProgramDecisions(CG, Req, parseProgram("(lambda (+ $0 1))"),
                       [&](int, int, const GrammarCandidate &C,
                           std::span<const GrammarCandidate>) {
                         BadScore += C.LogProb;
                       });
  double GoodScore = 0;
  walkProgramDecisions(CG, Req, parseProgram("(lambda (+ 1 $0))"),
                       [&](int, int, const GrammarCandidate &C,
                           std::span<const GrammarCandidate>) {
                         GoodScore += C.LogProb;
                       });
  EXPECT_LT(BadScore, GoodScore - 10)
      << "argument-position-specific weights must affect scoring";
}

TEST_F(GrammarTest, FantasiesProduceConsistentTasks) {
  std::mt19937 Rng(3);
  std::vector<Example> Ex;
  for (long I = 1; I <= 3; ++I)
    Ex.push_back({{Value::makeList({Value::makeInt(I), Value::makeInt(I + 1)})},
                  Value::makeList({})});
  auto Seed = std::make_shared<Task>(
      "seed", Type::arrow(tList(tInt()), tList(tInt())), Ex);
  auto Fantasies =
      sampleFantasies(G, {Seed}, 20, Rng, /*MapVariant=*/true);
  EXPECT_FALSE(Fantasies.empty());
  for (const Fantasy &F : Fantasies) {
    // The target program must actually solve the dreamed task.
    EXPECT_EQ(F.T->logLikelihood(F.Program), 0.0) << F.Program->show();
    EXPECT_TRUE(std::isfinite(F.LogPrior));
  }
}

TEST_F(GrammarTest, MapFantasiesPickHighestPriorRepresentative) {
  std::mt19937 Rng(11);
  std::vector<Example> Ex = {
      {{Value::makeInt(1)}, Value::makeInt(0)},
      {{Value::makeInt(5)}, Value::makeInt(0)},
  };
  auto Seed = std::make_shared<Task>("seed", Type::arrow(tInt(), tInt()), Ex);
  auto Fantasies = sampleFantasies(G, {Seed}, 30, Rng, /*MapVariant=*/true);
  // No two fantasies share an observation signature.
  std::set<std::string> Names;
  for (const Fantasy &F : Fantasies)
    EXPECT_TRUE(Names.insert(F.T->name()).second) << F.T->name();
}

TEST_F(GrammarTest, GrammarShowListsLibrary) {
  std::string S = G.show();
  EXPECT_NE(S.find("map"), std::string::npos);
  EXPECT_NE(S.find("logVariable"), std::string::npos);
}

TEST_F(GrammarTest, AddProductionIsIdempotent) {
  Grammar G2 = G;
  size_t Before = G2.productions().size();
  ExprPtr Inv = Expr::invented(parseProgram("(lambda (+ $0 1))"));
  int A = G2.addProduction(Inv);
  int B = G2.addProduction(Inv);
  EXPECT_EQ(A, B);
  EXPECT_EQ(G2.productions().size(), Before + 1);
  EXPECT_EQ(G2.inventionCount(), 1);
  EXPECT_EQ(G2.libraryDepth(), 1);
  EXPECT_GT(G2.structureSize(), 0);
}
