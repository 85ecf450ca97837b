//===- tests/vs/TopDownTest.cpp - Top-down backend + differential harness -===//
//
// The test centerpiece of the TopDown compression backend (DESIGN.md
// §10): on shared corpus fixtures where both backends are tractable, the
// top-down backend's adopted library, rewritten frontiers, refit weights,
// and scores must be bit-identical to the version-space backend's — at
// 1, 4, and 8 threads, with the caches on or off. On an overflow-shaped
// corpus (no closure fits MaxVersionNodes), both backends must propose
// and adopt the planted abstraction top-down.
//
//===----------------------------------------------------------------------===//

#include "vs/TopDown.h"

#include "core/Evaluator.h"
#include "core/Primitives.h"
#include "core/ProgramParser.h"
#include "vs/VersionSpaceCache.h"

#include <gtest/gtest.h>

using namespace dc;

namespace {

class TopDownTest : public ::testing::Test {
protected:
  void SetUp() override {
    std::vector<ExprPtr> Core = prims::functionalCore();
    std::vector<ExprPtr> Extra = prims::arithmeticExtras();
    Core.insert(Core.end(), Extra.begin(), Extra.end());
    G = Grammar::uniform(Core);
  }

  Frontier solvedFrontier(const std::string &Name, const std::string &Src,
                          TypePtr Request) {
    ExprPtr P = parseProgram(Src);
    EXPECT_NE(P, nullptr) << Src;
    auto T = std::make_shared<Task>(Name, Request, std::vector<Example>{});
    Frontier F(T);
    F.record({P, G.logLikelihood(Request, P), 0.0});
    return F;
  }

  /// The shared-corpus fixtures of the differential harness. Each is a
  /// corpus where the winning abstraction is exposed as a common subtree
  /// or a single-variable capture pattern with a strict score winner —
  /// the regime where the two backends provably coincide (DESIGN.md §10
  /// spells out the contract and the known divergence edges that these
  /// fixtures deliberately avoid).
  std::vector<std::pair<std::string, std::vector<Frontier>>>
  sharedCorpora() {
    TypePtr Req = Type::arrow(tList(tInt()), tList(tInt()));
    std::vector<std::pair<std::string, std::vector<Frontier>>> Out;

    // The CompressionTest idiom corpus: "double" both as a literal map
    // body and behind a capture site (+ (car $0) (car $0)).
    Out.push_back({"idioms",
                   {
                       solvedFrontier(
                           "double", "(lambda (map (lambda (+ $0 $0)) $0))",
                           Req),
                       solvedFrontier(
                           "double-tail",
                           "(lambda (map (lambda (+ $0 $0)) (cdr $0)))",
                           Req),
                       solvedFrontier(
                           "double-head",
                           "(lambda (cons (+ (car $0) (car $0)) nil))", Req),
                       solvedFrontier("quadruple",
                                      "(lambda (map (lambda (+ $0 $0)) "
                                      "(map (lambda (+ $0 $0)) $0)))",
                                      Req),
                       solvedFrontier(
                           "square", "(lambda (map (lambda (* $0 $0)) $0))",
                           Req),
                       solvedFrontier(
                           "incr-all", "(lambda (map (lambda (+ $0 1)) $0))",
                           Req),
                   }});

    // Pure literal-subtree sharing: the same map-increment pipeline stage
    // appears in every beam (no captures involved at all).
    Out.push_back(
        {"literal",
         {
             solvedFrontier("incr", "(lambda (map (lambda (+ $0 1)) $0))",
                            Req),
             solvedFrontier(
                 "incr-tail",
                 "(lambda (map (lambda (+ $0 1)) (cdr $0)))", Req),
             solvedFrontier("incr-twice",
                            "(lambda (map (lambda (+ $0 1)) "
                            "(map (lambda (+ $0 1)) $0)))",
                            Req),
             solvedFrontier(
                 "sq", "(lambda (map (lambda (* $0 $0)) (cdr $0)))", Req),
         }});

    // Capture-heavy: the shared idiom (cons x (cons x nil)) only matches
    // with a captured argument; each beam instantiates it differently and
    // no argument subtree repeats within a beam.
    Out.push_back(
        {"capture",
         {
             solvedFrontier("pair-head",
                            "(lambda (cons (car $0) "
                            "(cons (car $0) nil)))",
                            Req),
             solvedFrontier("pair-sum",
                            "(lambda (cons (fold (lambda (lambda "
                            "(+ $1 $0))) 0 $0) (cons (fold (lambda "
                            "(lambda (+ $1 $0))) 0 $0) nil)))",
                            Req),
             solvedFrontier("pair-len",
                            "(lambda (cons (length $0) "
                            "(cons (length $0) nil)))",
                            Req),
             solvedFrontier(
                 "noise", "(lambda (map (lambda (- $0 1)) $0))", Req),
         }});
    return Out;
  }

  Grammar G;
};

/// Bit-identity between two compression results (the same contract
/// CompressionTest's determinism suite enforces within one backend).
void expectIdenticalResults(const CompressionResult &A,
                            const CompressionResult &B,
                            const std::string &Label) {
  SCOPED_TRACE(Label);
  ASSERT_EQ(A.NewInventions.size(), B.NewInventions.size());
  for (size_t I = 0; I < A.NewInventions.size(); ++I)
    EXPECT_EQ(A.NewInventions[I], B.NewInventions[I])
        << A.NewInventions[I]->show() << " vs "
        << B.NewInventions[I]->show();
  EXPECT_EQ(A.InitialScore, B.InitialScore);
  EXPECT_EQ(A.FinalScore, B.FinalScore);
  const auto &PA = A.NewGrammar.productions();
  const auto &PB = B.NewGrammar.productions();
  ASSERT_EQ(PA.size(), PB.size());
  for (size_t I = 0; I < PA.size(); ++I) {
    EXPECT_EQ(PA[I].Program, PB[I].Program);
    EXPECT_EQ(PA[I].LogWeight, PB[I].LogWeight);
  }
  ASSERT_EQ(A.RewrittenFrontiers.size(), B.RewrittenFrontiers.size());
  for (size_t X = 0; X < A.RewrittenFrontiers.size(); ++X) {
    const auto &EA = A.RewrittenFrontiers[X].entries();
    const auto &EB = B.RewrittenFrontiers[X].entries();
    ASSERT_EQ(EA.size(), EB.size());
    for (size_t I = 0; I < EA.size(); ++I) {
      EXPECT_EQ(EA[I].Program, EB[I].Program)
          << EA[I].Program->show() << " vs " << EB[I].Program->show();
      EXPECT_EQ(EA[I].LogPrior, EB[I].LogPrior);
      EXPECT_EQ(EA[I].LogLikelihood, EB[I].LogLikelihood);
    }
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Unit tests: capture matcher
//===----------------------------------------------------------------------===//

TEST_F(TopDownTest, MatchCaptureRecoversTheArgument) {
  // (+ $0 $0) matches (+ (car $1) (car $1)) with a = (car $1).
  ExprPtr Anchor = parseProgram("(+ $0 $0)");
  ExprPtr Subject = parseProgram("(+ (car $1) (car $1))");
  EXPECT_EQ(detail::matchCapture(Anchor, Subject),
            parseProgram("(car $1)"));

  // Inconsistent capture positions must not match.
  EXPECT_EQ(detail::matchCapture(Anchor, parseProgram("(+ 1 2)")), nullptr);

  // The identity instantiation a = $0 is still a match (the rewrite DP
  // prices it above the literal-anchor rule, so it never wins).
  EXPECT_EQ(detail::matchCapture(Anchor, Anchor), parseProgram("$0"));
}

TEST_F(TopDownTest, MatchCaptureShiftsUnderBinders) {
  // Anchor (map (lambda (+ $0 $1)) $0): the capture index at depth 1 is
  // $1; a subject instantiating it with (car $2) at root level carries
  // (car $3) under the binder.
  ExprPtr Anchor = parseProgram("(map (lambda (+ $0 $1)) $0)");
  // Wrong: $0 at anchor root is the capture; build subject accordingly.
  ExprPtr Subject =
      parseProgram("(map (lambda (+ $0 (car $3))) (car $2))");
  EXPECT_EQ(detail::matchCapture(Anchor, Subject),
            parseProgram("(car $2)"));

  // A subject whose captured-position subtree leans on the pattern's own
  // binder cannot be un-shifted — no match.
  ExprPtr Leaky = parseProgram("(map (lambda (+ $0 $0)) (car $2))");
  EXPECT_EQ(detail::matchCapture(Anchor, Leaky), nullptr);
}

TEST_F(TopDownTest, MatchCaptureShiftsOuterFreeIndices) {
  // Anchor free indices above 0 sit above the introduced binder: subject
  // carries them one lower.
  ExprPtr Anchor = parseProgram("(+ $0 $2)");
  EXPECT_EQ(detail::matchCapture(Anchor, parseProgram("(+ (car $0) $1)")),
            parseProgram("(car $0)"));
  EXPECT_EQ(detail::matchCapture(Anchor, parseProgram("(+ (car $0) $2)")),
            nullptr);
}

//===----------------------------------------------------------------------===//
// Unit tests: rewrite DP cost calculus
//===----------------------------------------------------------------------===//

namespace {

/// The candidate anchored at \p Anchor, built without the usefulness
/// filter so that unit tests can price any anchor.
CompressionCandidate makeCandidate(const std::string &Anchor) {
  ExprPtr Term = parseProgram(Anchor);
  EXPECT_NE(Term, nullptr) << Anchor;
  std::set<int> FreeSet;
  detail::collectFreeIndices(Term, 0, FreeSet);
  std::vector<int> Free(FreeSet.begin(), FreeSet.end());
  ExprPtr Body =
      Free.empty() ? Term : detail::closeOverFreeIndices(Term, Free);
  return detail::makeCandidate({Term, Body}, 0);
}

} // namespace

TEST_F(TopDownTest, RewriteFiresOnLiteralAnchors) {
  // A literal anchor occurrence costs 1.0 — strictly cheaper than its
  // structure — so the member replaces it with the rewrite expression.
  CompressionCandidate C = makeCandidate("(+ $0 $0)");
  std::unordered_map<ExprPtr, Extraction> Memo;
  ExprPtr Beam = parseProgram("(lambda (map (lambda (+ $0 $0)) $0))");
  Extraction R = topDownRewriteMember(Beam, C, Memo);
  ASSERT_NE(R.Program, nullptr);
  EXPECT_NE(R.Program, Beam) << "the anchor occurrence must fire";
  ExprPtr Normal = R.Program->betaNormalForm(512);
  ASSERT_NE(Normal, nullptr);
  // The normalized rewrite applies the invention to the bound variable.
  EXPECT_NE(Normal->show().find(C.Invention->show()), std::string::npos);
}

TEST_F(TopDownTest, CaptureDoesNotPayForSingleUseArguments) {
  // The version-space cost calculus: rewriting (length x) under candidate
  // (length $0) via capture costs 1 + 2ε + cost(x), which always loses to
  // the structural 1 + ε + cost(x) of a unary application. Single-use
  // unary captures never fire — the DP must agree or the backends drift.
  CompressionCandidate C = makeCandidate("(length $0)");
  ASSERT_TRUE(C.CapturesArgument);
  std::unordered_map<ExprPtr, Extraction> Memo;
  ExprPtr Beam = parseProgram("(lambda (length (cdr $0)))");
  Extraction R = topDownRewriteMember(Beam, C, Memo);
  EXPECT_EQ(R.Program, Beam) << R.Program->show();
}

TEST_F(TopDownTest, CapturePaysForDuplicatedArguments) {
  // (+ x x) under candidate (+ $0 $0): the capture member
  // ((λ (#inv $0)) x) costs 1 + 2ε + cost(x), beating the structural
  // 1 + ε + 2·cost(x) whenever x is not a leaf... and for leaf x the
  // RewriteExpr applied at the literal-match rule handles it. Either
  // way the beam rewrites.
  CompressionCandidate C = makeCandidate("(+ $0 $0)");
  std::unordered_map<ExprPtr, Extraction> Memo;
  ExprPtr Beam = parseProgram("(+ (car $0) (car $0))");
  Extraction R = topDownRewriteMember(Beam, C, Memo);
  ASSERT_NE(R.Program, nullptr);
  EXPECT_NE(R.Program, Beam) << "duplicated-argument capture must fire";
  ExprPtr Normal = R.Program->betaNormalForm(512);
  ASSERT_NE(Normal, nullptr);
  EXPECT_EQ(Normal,
            Expr::application(C.Invention, parseProgram("(car $0)")));
}

//===----------------------------------------------------------------------===//
// Unit tests: the proposer
//===----------------------------------------------------------------------===//

TEST_F(TopDownTest, ProposerFindsLiteralAndCapturePatterns) {
  TypePtr Req = Type::arrow(tList(tInt()), tList(tInt()));
  std::vector<Frontier> Fs = {
      solvedFrontier("double", "(lambda (map (lambda (+ $0 $0)) $0))", Req),
      solvedFrontier("double-tail",
                     "(lambda (map (lambda (+ $0 $0)) (cdr $0)))", Req),
      solvedFrontier("double-head",
                     "(lambda (cons (+ (car $0) (car $0)) nil))", Req),
  };
  CompressionParams Params;
  TopDownStats Stats;
  std::vector<CompressionCandidate> Cands =
      proposeTopDown(G, Fs, Params, &Stats);
  ASSERT_FALSE(Cands.empty());
  EXPECT_GT(Stats.SubtreeSites, 0);
  EXPECT_GT(Stats.StatesExpanded, 0);
  EXPECT_FALSE(Stats.BudgetExhausted);

  // The planted "double" idiom must be proposed, and its coverage must
  // count the capture-only site (+ (car $0) (car $0)) — 3 tasks, not 2.
  ExprPtr DoubleBody = parseProgram("(lambda (+ $0 $0))");
  bool Found = false;
  for (const CompressionCandidate &C : Cands)
    if (C.Invention->body() == DoubleBody) {
      Found = true;
      EXPECT_EQ(C.TasksCovered, 3);
      EXPECT_TRUE(C.CapturesArgument);
    }
  EXPECT_TRUE(Found) << "planted (+ $0 $0) idiom not proposed";

  // Candidates arrive ranked by coverage, deduplicated, and within the
  // MaxCandidates cap.
  for (size_t I = 1; I < Cands.size(); ++I)
    EXPECT_GE(Cands[I - 1].TasksCovered, Cands[I].TasksCovered);
  EXPECT_LE(static_cast<int>(Cands.size()), MaxCandidates);
}

TEST_F(TopDownTest, ProposerRespectsTheExpansionBudget) {
  TypePtr Req = Type::arrow(tList(tInt()), tList(tInt()));
  std::vector<Frontier> Fs = {
      solvedFrontier("a", "(lambda (map (lambda (+ $0 $0)) $0))", Req),
      solvedFrontier("b", "(lambda (map (lambda (+ $0 $0)) (cdr $0)))",
                     Req),
  };
  CompressionParams Tight;
  Tight.TopDownExpansionBudget = 4;
  TopDownStats Stats;
  std::vector<CompressionCandidate> Capped =
      proposeTopDown(G, Fs, Tight, &Stats);
  EXPECT_TRUE(Stats.BudgetExhausted);
  EXPECT_LE(Stats.StatesExpanded, 4);
  // Literal subtree proposals survive budget exhaustion (they are
  // enumerated outside the growth loop), so the planted idiom is still
  // found even with no capture search to speak of.
  ExprPtr DoubleBody = parseProgram("(lambda (+ $0 $0))");
  bool Found = false;
  for (const CompressionCandidate &C : Capped)
    Found = Found || C.Invention->body() == DoubleBody;
  EXPECT_TRUE(Found);
}

TEST_F(TopDownTest, ProposalIsDeterministic) {
  std::vector<std::pair<std::string, std::vector<Frontier>>> Corpora =
      sharedCorpora();
  for (auto &[Name, Fs] : Corpora) {
    SCOPED_TRACE(Name);
    CompressionParams Params;
    TopDownStats S1, S2;
    std::vector<CompressionCandidate> A = proposeTopDown(G, Fs, Params, &S1);
    std::vector<CompressionCandidate> B = proposeTopDown(G, Fs, Params, &S2);
    ASSERT_EQ(A.size(), B.size());
    for (size_t I = 0; I < A.size(); ++I) {
      EXPECT_EQ(A[I].AnchorTerm, B[I].AnchorTerm);
      EXPECT_EQ(A[I].Invention, B[I].Invention);
      EXPECT_EQ(A[I].RewriteExpr, B[I].RewriteExpr);
      EXPECT_EQ(A[I].TasksCovered, B[I].TasksCovered);
    }
    EXPECT_EQ(S1.StatesExpanded, S2.StatesExpanded);
    EXPECT_EQ(S1.StatesPruned, S2.StatesPruned);
  }
}

//===----------------------------------------------------------------------===//
// The differential harness
//===----------------------------------------------------------------------===//

TEST_F(TopDownTest, DifferentialBitIdenticalAcrossBackendsAndThreads) {
  // The headline gate: on every shared-corpus fixture, at 1/4/8 threads,
  // the top-down backend's adopted library and rewritten frontiers are
  // bit-identical to the version-space backend's.
  for (auto &[Name, Fs] : sharedCorpora()) {
    CompressionParams Params;
    Params.StructurePenalty = 0.5;
    Params.Backend = CompressionBackend::VersionSpace;
    Params.NumThreads = 1;
    VersionSpaceCache::global().clear();
    CompressionResult Reference = compressLibrary(G, Fs, Params);
    ASSERT_FALSE(Reference.NewInventions.empty())
        << Name << ": fixture must exercise adoption";

    for (int Threads : {1, 4, 8}) {
      Params.Backend = CompressionBackend::TopDown;
      Params.NumThreads = Threads;
      expectIdenticalResults(
          Reference, compressLibrary(G, Fs, Params),
          Name + " topdown threads=" + std::to_string(Threads));

      Params.Backend = CompressionBackend::VersionSpace;
      VersionSpaceCache::global().clear();
      expectIdenticalResults(
          Reference, compressLibrary(G, Fs, Params),
          Name + " vs threads=" + std::to_string(Threads));
    }
  }
}

TEST_F(TopDownTest, DifferentialHoldsWithRewriteMemoOff) {
  // The topdown.rewrite memo (UseVsCache) must be a pure replay, exactly
  // like the version-space rewrite memo it mirrors.
  for (auto &[Name, Fs] : sharedCorpora()) {
    CompressionParams Params;
    Params.StructurePenalty = 0.5;
    Params.Backend = CompressionBackend::TopDown;
    Params.UseVsCache = true;
    CompressionResult Memoized = compressLibrary(G, Fs, Params);
    Params.UseVsCache = false;
    expectIdenticalResults(Memoized, compressLibrary(G, Fs, Params),
                           Name + " memo off");
  }
}

TEST_F(TopDownTest, OverflowCorpusStillYieldsThePlantedAbstraction) {
  // An overflow-shaped corpus: MaxVersionNodes so small that no closure
  // fits. The top-down backend never builds version spaces, and the
  // version-space backend falls back to top-down in every such round, so
  // both must surface the planted idiom — with identical results.
  TypePtr Req = Type::arrow(tList(tInt()), tList(tInt()));
  std::vector<Frontier> Fs = {
      solvedFrontier("double", "(lambda (map (lambda (+ $0 $0)) $0))", Req),
      solvedFrontier("double-tail",
                     "(lambda (map (lambda (+ $0 $0)) (cdr $0)))", Req),
      solvedFrontier("quadruple",
                     "(lambda (map (lambda (+ $0 $0)) "
                     "(map (lambda (+ $0 $0)) $0)))",
                     Req),
  };
  CompressionParams Params;
  Params.StructurePenalty = 0.5;
  Params.MaxVersionNodes = 8; // even one-step closures overflow

  Params.Backend = CompressionBackend::TopDown;
  CompressionResult TD = compressLibrary(G, Fs, Params);
  Params.Backend = CompressionBackend::VersionSpace;
  CompressionResult VS = compressLibrary(G, Fs, Params);
  for (const CompressionResult *R : {&TD, &VS}) {
    ASSERT_FALSE(R->NewInventions.empty());
    // The planted idiom surfaces either as the bare double body or as the
    // whole map-double pipeline stage (a literal common subtree covering
    // every beam — an even stronger compression).
    bool Planted = false;
    for (ExprPtr Inv : R->NewInventions)
      Planted = Planted ||
                Inv->show().find("(+ $0 $0)") != std::string::npos;
    EXPECT_TRUE(Planted) << R->NewInventions.front()->show();
    EXPECT_GT(R->FinalScore, R->InitialScore);
  }
  expectIdenticalResults(TD, VS, "version-space backend, every round over");
}

TEST_F(TopDownTest, TopDownRewritesPreserveSemantics) {
  TypePtr Req = Type::arrow(tList(tInt()), tList(tInt()));
  const char *Sources[] = {
      "(lambda (map (lambda (+ $0 $0)) $0))",
      "(lambda (map (lambda (* $0 $0)) $0))",
      "(lambda (map (lambda (+ $0 1)) $0))",
      "(lambda (map (lambda (- $0 1)) $0))",
  };
  std::vector<Frontier> Fs;
  for (const char *Src : Sources)
    Fs.push_back(solvedFrontier(Src, Src, Req));
  CompressionParams Params;
  Params.StructurePenalty = 0.5;
  Params.Backend = CompressionBackend::TopDown;
  CompressionResult R = compressLibrary(G, Fs, Params);

  std::vector<ValuePtr> In;
  for (long X : {3, 1, 4, 1, 5})
    In.push_back(Value::makeInt(X));
  ValuePtr Input = Value::makeList(In);
  for (size_t I = 0; I < Fs.size(); ++I) {
    ExprPtr Original = parseProgram(Sources[I]);
    ExprPtr Rewritten = R.RewrittenFrontiers[I].best()->Program;
    ValuePtr A = runProgram(Original, {Input});
    ValuePtr B = runProgram(Rewritten, {Input});
    ASSERT_NE(A, nullptr);
    ASSERT_NE(B, nullptr) << Rewritten->show();
    EXPECT_TRUE(A->equals(*B))
        << Original->show() << " vs " << Rewritten->show();
  }
}
