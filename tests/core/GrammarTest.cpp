//===- tests/core/GrammarTest.cpp - Grammar and likelihood unit tests -----===//

#include "core/ContextualGrammar.h"
#include "core/Grammar.h"
#include "core/LikelihoodSummary.h"
#include "core/Primitives.h"
#include "core/ProgramParser.h"
#include "core/Sampling.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

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
  G.candidates(ParentStart, 0, tBool(), nullptr, Ctx, Cands, nullptr);
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
  G.candidates(ParentStart, 0, tInt(), &Inner, Ctx, Cands, nullptr);
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
  G.candidates(ParentStart, 0, tInt(), &Env, Ctx, Cands, nullptr);
  double Total = 0;
  for (const auto &C : Cands)
    Total += std::exp(C.LogProb);
  EXPECT_NEAR(Total, 1.0, 1e-9);
}

namespace {

/// Expects \p Memoized to list \p Plain's choices, the log probabilities
/// bit for bit.
void expectSameChoices(const std::vector<GrammarCandidate> &Plain,
                       const std::vector<GrammarCandidate> &Memoized,
                       const std::string &What) {
  ASSERT_EQ(Memoized.size(), Plain.size()) << What;
  for (size_t I = 0; I < Plain.size(); ++I) {
    EXPECT_EQ(Memoized[I].Leaf, Plain[I].Leaf) << What << ", choice " << I;
    EXPECT_EQ(Memoized[I].Declared, Plain[I].Declared)
        << What << ", choice " << I;
    EXPECT_EQ(Memoized[I].ProductionIdx, Plain[I].ProductionIdx)
        << What << ", choice " << I;
    EXPECT_EQ(std::bit_cast<uint64_t>(Memoized[I].LogProb),
              std::bit_cast<uint64_t>(Plain[I].LogProb))
        << What << ", choice " << I;
  }
}

bool hasLeaf(const std::vector<GrammarCandidate> &Cands, ExprPtr Leaf) {
  for (const GrammarCandidate &C : Cands)
    if (C.Leaf == Leaf)
      return true;
  return false;
}

} // namespace

TEST_F(GrammarTest, MemoizedCandidatesMatchPlain) {
  // Two pair-building productions: against pair(t, list(t)) the one
  // returning pair(a, a) fails the occurs check and the other fits.
  auto Pair = [](TypePtr A, TypePtr B) {
    return Type::constructor("pair", {A, B});
  };
  auto NeverRun = [](EvalState &, std::span<const ValuePtr>) {
    return ValuePtr();
  };
  ExprPtr Dup = definePrimitive("grammar_test_dup",
                                Type::arrow(t0(), Pair(t0(), t0())), NeverRun);
  ExprPtr Zip = definePrimitive(
      "grammar_test_pair", Type::arrows({t0(), t1()}, Pair(t0(), t1())),
      NeverRun);

  // Distinct weights everywhere, so a row or weight mix-up shows.
  Grammar Wide = G;
  Wide.addProduction(Dup);
  Wide.addProduction(Zip);
  for (size_t I = 0; I < Wide.productions().size(); ++I)
    Wide.productions()[I].LogWeight = -0.125 * static_cast<double>(I % 7);
  ContextualGrammar Guide(Wide);
  for (int S = 0; S < Guide.slotCount(); ++S)
    for (int C = 0; C < Guide.childCount(); ++C)
      Guide.row(S)[C] = std::sin(31.0 * S + C);
  const int PlusIdx = Wide.productionIndex(lookupPrimitive("+"));
  ASSERT_GE(PlusIdx, 0);
  // A second library, searched on the same thread with its own memo.
  Grammar Small = Grammar::uniform(
      {lookupPrimitive("+"), lookupPrimitive("1"), lookupPrimitive("car"),
       lookupPrimitive("cons"), Zip});

  // A context with t0 bound to int, t1 free, and t2 bound to list(t1).
  TypeContext Ctx;
  TypePtr A = Ctx.makeVariable();
  TypePtr B = Ctx.makeVariable();
  TypePtr C = Ctx.makeVariable();
  ASSERT_TRUE(Ctx.unify(A, tInt()));
  ASSERT_TRUE(Ctx.unify(C, tList(B)));
  const TypeEnv Outer{tInt(), nullptr};
  const TypeEnv Inner{tList(A), &Outer};
  const TypeEnv Poly{B, &Inner};

  struct Hole {
    const char *What;
    TypePtr Request;
    const TypeEnv *Env;
  };
  const Hole Holes[] = {
      {"int", tInt(), nullptr},
      {"list(int)", tList(tInt()), nullptr},
      {"bool with binders", tBool(), &Inner},
      {"t0, bound to int", A, &Outer},
      {"list(t0)", tList(A), &Inner},
      {"free t1", B, &Poly},
      {"list(t2), t2 bound to list(t1)", tList(C), &Poly},
      {"pair(t1, list(t1))", Pair(B, tList(B)), nullptr},
      {"pair(t1, t1)", Pair(B, B), &Poly},
      {"int with binders", tInt(), &Poly},
  };
  // The applied requests: int, list(int), bool, t1, list(list(t1)),
  // pair(t1, list(t1)) and pair(t1, t1).
  constexpr size_t DistinctRequests = 7;

  struct Source {
    const char *Name;
    const EnumerationSource &Src;
    int ParentIdx;
    int ArgIdx;
    ProductionFilterMemo *Memo;
  };
  ProductionFilterMemo WideMemo, GuideMemo, SmallMemo;
  // The guide's two rows share its memo: one production list.
  const Source Sources[] = {
      {"grammar", Wide, ParentStart, 0, &WideMemo},
      {"guide start row", Guide, ParentStart, 0, &GuideMemo},
      {"guide + row", Guide, PlusIdx, 1, &GuideMemo},
      {"second library", Small, ParentStart, 0, &SmallMemo},
  };

  for (int Pass = 0; Pass < 2; ++Pass)
    for (const Hole &H : Holes)
      for (const Source &S : Sources) {
        const std::string What = std::string(S.Name) + " at " + H.What +
                                 (Pass ? " (memo warm)" : "");
        std::vector<GrammarCandidate> Plain, Memoized;
        S.Src.candidates(S.ParentIdx, S.ArgIdx, H.Request, H.Env, Ctx, Plain,
                         nullptr);
        S.Src.candidates(S.ParentIdx, S.ArgIdx, H.Request, H.Env, Ctx,
                         Memoized, S.Memo);
        expectSameChoices(Plain, Memoized, What);
        // Every trial was undone.
        EXPECT_EQ(Ctx.variableCount(), 3) << What;
        EXPECT_EQ(Ctx.apply(A), tInt()) << What;
        EXPECT_EQ(Ctx.apply(B), B) << What;
        EXPECT_EQ(Ctx.apply(C), tList(B)) << What;
        if (H.Request == Pair(B, tList(B))) {
          EXPECT_FALSE(hasLeaf(Memoized, Dup)) << What;
          EXPECT_TRUE(hasLeaf(Memoized, Zip)) << What;
        }
        if (&S.Src == &Wide && H.Request == Pair(B, B)) {
          EXPECT_TRUE(hasLeaf(Memoized, Dup)) << What;
        }
      }
  EXPECT_EQ(WideMemo.size(), DistinctRequests);
  EXPECT_EQ(GuideMemo.size(), DistinctRequests);
  EXPECT_EQ(SmallMemo.size(), DistinctRequests);
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
