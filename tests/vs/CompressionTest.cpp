//===- tests/vs/CompressionTest.cpp - Abstraction sleep unit tests --------===//

#include "vs/Compression.h"

#include "core/Primitives.h"
#include "core/ProgramParser.h"
#include "vs/VersionSpaceCache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>

using namespace dc;

namespace {

class CompressionTest : public ::testing::Test {
protected:
  void SetUp() override {
    std::vector<ExprPtr> Core = prims::functionalCore();
    std::vector<ExprPtr> Extra = prims::arithmeticExtras();
    Core.insert(Core.end(), Extra.begin(), Extra.end());
    G = Grammar::uniform(Core);
  }

  /// Builds a one-entry frontier around a known solution (likelihood 0).
  Frontier solvedFrontier(const std::string &Name, const std::string &Src,
                          TypePtr Request) {
    ExprPtr P = parseProgram(Src);
    EXPECT_NE(P, nullptr) << Src;
    auto T = std::make_shared<Task>(Name, Request, std::vector<Example>{});
    Frontier F(T);
    F.record({P, G.logLikelihood(Request, P), 0.0});
    return F;
  }

  /// A corpus where several beams share the "double" idiom — enough
  /// signal for compression to adopt at least one invention.
  std::vector<Frontier> idiomCorpus() {
    TypePtr Req = Type::arrow(tList(tInt()), tList(tInt()));
    return {
        solvedFrontier("double", "(lambda (map (lambda (+ $0 $0)) $0))",
                       Req),
        solvedFrontier("double-tail",
                       "(lambda (map (lambda (+ $0 $0)) (cdr $0)))", Req),
        solvedFrontier("double-head",
                       "(lambda (cons (+ (car $0) (car $0)) nil))", Req),
        solvedFrontier("quadruple",
                       "(lambda (map (lambda (+ $0 $0)) "
                       "(map (lambda (+ $0 $0)) $0)))",
                       Req),
        solvedFrontier("square", "(lambda (map (lambda (* $0 $0)) $0))",
                       Req),
        solvedFrontier("incr-all", "(lambda (map (lambda (+ $0 1)) $0))",
                       Req),
    };
  }

  /// The paper's Fig 2 corpus: recursive list maps whose only shared
  /// structure is exposed by refactoring, as frontiers over \p Base.
  std::vector<Frontier> figureTwoCorpus(const Grammar &Base) {
    TypePtr Req = Type::arrow(tList(tInt()), tList(tInt()));
    std::vector<Frontier> Fs;
    for (const char *Body : {"(+ (car $0) (car $0))", "(- (car $0) 1)",
                             "(+ (car $0) 1)"}) {
      std::string Src = std::string("(lambda (fix (lambda (lambda (if "
                                    "(is-nil $0) nil (cons ") +
                        Body + " ($1 (cdr $0)))))) $0))";
      ExprPtr P = parseProgram(Src);
      EXPECT_NE(P, nullptr) << Src;
      auto T = std::make_shared<Task>(Src, Req, std::vector<Example>{});
      Frontier F(T);
      F.record({P, Base.logLikelihood(Req, P), 0.0});
      Fs.push_back(F);
    }
    return Fs;
  }

  Grammar G;
};

/// Asserts two compression results are bit-identical: same inventions,
/// same scores, same grammar (programs, types, weights), and the same
/// rewritten beams entry for entry. Programs are hash-consed, so pointer
/// equality is structural equality.
void expectIdenticalResults(const CompressionResult &A,
                            const CompressionResult &B,
                            const std::string &Label) {
  SCOPED_TRACE(Label);
  ASSERT_EQ(A.NewInventions.size(), B.NewInventions.size());
  for (size_t I = 0; I < A.NewInventions.size(); ++I)
    EXPECT_EQ(A.NewInventions[I], B.NewInventions[I]);
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
      EXPECT_EQ(EA[I].Program, EB[I].Program);
      EXPECT_EQ(EA[I].LogPrior, EB[I].LogPrior);
      EXPECT_EQ(EA[I].LogLikelihood, EB[I].LogLikelihood);
    }
  }
}

uint64_t fnv1a(const std::string &S, uint64_t H) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ULL;
  }
  return H;
}

} // namespace

TEST_F(CompressionTest, LibraryScoreIsFiniteOnSolvedFrontiers) {
  std::vector<Frontier> Fs = {
      solvedFrontier("t1", "(lambda (+ $0 1))", Type::arrow(tInt(), tInt())),
  };
  Grammar G2 = G;
  double S = libraryScore(G2, Fs);
  EXPECT_TRUE(std::isfinite(S));
}

TEST_F(CompressionTest, NoInventionFromASingleSimpleProgram) {
  // One tiny program cannot justify paying the structure penalty.
  std::vector<Frontier> Fs = {
      solvedFrontier("t1", "(lambda (+ $0 1))", Type::arrow(tInt(), tInt())),
  };
  CompressionParams Params;
  CompressionResult R = compressLibrary(G, Fs, Params);
  EXPECT_TRUE(R.NewInventions.empty());
  EXPECT_EQ(R.NewGrammar.productions().size(), G.productions().size());
}

TEST_F(CompressionTest, SharedIdiomBecomesAnInvention) {
  // Several tasks share the "double" idiom (+ x x) — one primitive with a
  // repeated variable, exactly the kind of routine worth inventing.
  TypePtr Req = Type::arrow(tList(tInt()), tList(tInt()));
  std::vector<Frontier> Fs = {
      solvedFrontier("double", "(lambda (map (lambda (+ $0 $0)) $0))", Req),
      solvedFrontier("double-tail",
                     "(lambda (map (lambda (+ $0 $0)) (cdr $0)))", Req),
      solvedFrontier("double-head",
                     "(lambda (cons (+ (car $0) (car $0)) nil))", Req),
      solvedFrontier("quadruple",
                     "(lambda (map (lambda (+ $0 $0)) "
                     "(map (lambda (+ $0 $0)) $0)))",
                     Req),
  };
  CompressionParams Params;
  Params.StructurePenalty = 0.5;
  CompressionResult R = compressLibrary(G, Fs, Params);
  ASSERT_FALSE(R.NewInventions.empty());
  EXPECT_GT(R.FinalScore, R.InitialScore);
  // Rewritten programs must still be well typed and different from raw.
  for (const Frontier &F : R.RewrittenFrontiers) {
    ASSERT_FALSE(F.empty());
    EXPECT_NE(F.best()->Program->inferType(), nullptr);
  }
}

TEST_F(CompressionTest, RewritingPreservesSemantics) {
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

TEST_F(CompressionTest, PaperFigureTwoMapRediscovery) {
  // The paper's Fig 2: two recursive Y-combinator programs whose only
  // common structure is exposed by refactoring — compression should find a
  // map-like higher-order routine.
  std::vector<ExprPtr> Lisp = prims::mcCarthy1959();
  Grammar Base = Grammar::uniform(Lisp);
  TypePtr Req = Type::arrow(tList(tInt()), tList(tInt()));
  const char *DoubleSrc =
      "(lambda (fix (lambda (lambda (if (is-nil $0) nil "
      "(cons (+ (car $0) (car $0)) ($1 (cdr $0)))))) $0))";
  const char *DecrSrc =
      "(lambda (fix (lambda (lambda (if (is-nil $0) nil "
      "(cons (- (car $0) 1) ($1 (cdr $0)))))) $0))";
  const char *IncrSrc =
      "(lambda (fix (lambda (lambda (if (is-nil $0) nil "
      "(cons (+ (car $0) 1) ($1 (cdr $0)))))) $0))";

  std::vector<Frontier> Fs;
  for (const char *Src : {DoubleSrc, DecrSrc, IncrSrc}) {
    ExprPtr P = parseProgram(Src);
    ASSERT_NE(P, nullptr) << Src;
    auto T = std::make_shared<Task>(Src, Req, std::vector<Example>{});
    Frontier F(T);
    F.record({P, Base.logLikelihood(Req, P), 0.0});
    Fs.push_back(F);
  }

  CompressionParams Params;
  Params.RefactorSteps = 3;
  Params.StructurePenalty = 0.5;
  CompressionResult R = compressLibrary(Base, Fs, Params);
  ASSERT_FALSE(R.NewInventions.empty()) << "refactoring must find structure";

  // Some invention must be higher-order (take a function argument) — the
  // essence of map.
  bool FoundHigherOrder = false;
  for (ExprPtr Inv : R.NewInventions) {
    TypePtr T = Inv->declaredType();
    for (const TypePtr &Arg : functionArguments(T))
      if (Arg->isArrow())
        FoundHigherOrder = true;
  }
  EXPECT_TRUE(FoundHigherOrder)
      << "expected a map-like higher-order invention; got "
      << R.NewInventions.front()->show();

  // Rewritten programs shrink.
  for (size_t I = 0; I < Fs.size(); ++I)
    EXPECT_LT(R.RewrittenFrontiers[I].best()->Program->size(),
              Fs[I].best()->Program->size());
}

TEST_F(CompressionTest, EcBaselineOnlyProposesSubtrees) {
  // With RefactorSteps = 0 the Fig 2 programs share no closed subtree
  // except trivia, so EC finds no higher-order routine.
  std::vector<ExprPtr> Lisp = prims::mcCarthy1959();
  Grammar Base = Grammar::uniform(Lisp);
  TypePtr Req = Type::arrow(tList(tInt()), tList(tInt()));
  const char *DoubleSrc =
      "(lambda (fix (lambda (lambda (if (is-nil $0) nil "
      "(cons (+ (car $0) (car $0)) ($1 (cdr $0)))))) $0))";
  const char *DecrSrc =
      "(lambda (fix (lambda (lambda (if (is-nil $0) nil "
      "(cons (- (car $0) 1) ($1 (cdr $0)))))) $0))";
  std::vector<Frontier> Fs;
  for (const char *Src : {DoubleSrc, DecrSrc}) {
    ExprPtr P = parseProgram(Src);
    auto T = std::make_shared<Task>(Src, Req, std::vector<Example>{});
    Frontier F(T);
    F.record({P, Base.logLikelihood(Req, P), 0.0});
    Fs.push_back(F);
  }
  CompressionParams Params;
  Params.RefactorSteps = 0;
  CompressionResult R = compressLibrary(Base, Fs, Params);
  for (ExprPtr Inv : R.NewInventions) {
    bool HigherOrder = false;
    for (const TypePtr &Arg : functionArguments(Inv->declaredType()))
      if (Arg->isArrow())
        HigherOrder = true;
    EXPECT_FALSE(HigherOrder) << Inv->show();
  }
}

TEST_F(CompressionTest, ResultsIdenticalAcrossThreads) {
  // The determinism contract (DESIGN.md): compression is bit-identical at
  // every thread count — same inventions, same θ, same rewritten beams,
  // byte-for-byte equal scores. Shards merge in frontier order and the
  // candidate argmax breaks ties toward the lowest index, so the parallel
  // schedule can never leak into the result.
  CompressionParams Params;
  Params.StructurePenalty = 0.5;
  Params.NumThreads = 1;
  CompressionResult Serial = compressLibrary(G, idiomCorpus(), Params);
  ASSERT_FALSE(Serial.NewInventions.empty())
      << "corpus must be rich enough to exercise adoption";
  for (int Threads : {4, 8}) {
    Params.NumThreads = Threads;
    CompressionResult Parallel = compressLibrary(G, idiomCorpus(), Params);
    expectIdenticalResults(Serial, Parallel,
                           "threads=" + std::to_string(Threads));
  }
}

TEST_F(CompressionTest, ResultsIdenticalWithAndWithoutCache) {
  // The caching contract (DESIGN.md §8): the shard cache and the rewrite
  // memo only skip recomputing pure values, so compression is
  // bit-identical with caching on or off, cold or warm, at every thread
  // count.
  CompressionParams Params;
  Params.StructurePenalty = 0.5;
  Params.UseVsCache = false;
  Params.NumThreads = 1;
  CompressionResult Reference = compressLibrary(G, idiomCorpus(), Params);
  ASSERT_FALSE(Reference.NewInventions.empty())
      << "corpus must be rich enough to exercise adoption";
  for (int Threads : {1, 4, 8}) {
    Params.NumThreads = Threads;
    Params.UseVsCache = false;
    expectIdenticalResults(Reference, compressLibrary(G, idiomCorpus(), Params),
                           "uncached threads=" + std::to_string(Threads));
    Params.UseVsCache = true;
    VersionSpaceCache::global().clear();
    expectIdenticalResults(Reference, compressLibrary(G, idiomCorpus(), Params),
                           "cached cold threads=" + std::to_string(Threads));
    expectIdenticalResults(Reference, compressLibrary(G, idiomCorpus(), Params),
                           "cached warm threads=" + std::to_string(Threads));
  }
}

TEST_F(CompressionTest, VerboseSurvivesNormalizationBudgetExhaustion) {
  // Regression: a beam whose program needs more than the 512-step rewrite
  // budget makes betaNormalForm return null mid-scoring; with Verbose on,
  // the old code printed Normal->show() before the null check and
  // dereferenced nullptr. The buster is a chain of duplicating redexes,
  // C_n = ((lambda (+ $0 $0)) C_{n-1}), needing 2^n - 1 > 512 steps.
  // The buster's duplicating body (* $0 $0) must not be shared with any
  // other task: a shared idiom would become the adopted invention, whose
  // rewrite replaces the duplicating redexes with single-use invention
  // calls — and the chain would then normalize in 12 steps. Drop the
  // "square" frontier so every candidate leaves the buster un-rewritten
  // and scoring must survive its unnormalizable original.
  std::vector<Frontier> Fs = idiomCorpus();
  Fs.erase(Fs.begin() + 4); // "square", the only other (* $0 $0) user
  std::string Buster = "1";
  for (int I = 0; I < 12; ++I)
    Buster = "((lambda (* $0 $0)) " + Buster + ")";
  Fs.push_back(solvedFrontier("buster", Buster, tInt()));
  ExprPtr Original = Fs.back().best()->Program;

  CompressionParams Params;
  Params.StructurePenalty = 0.5;
  Params.Verbose = true; // the crash path was verbose-only
  CompressionResult R = compressLibrary(G, Fs, Params);
  ASSERT_FALSE(R.NewInventions.empty());
  // The un-normalizable beam entry must never be replaced by a
  // half-reduced term: either it survives untouched or (being a raw
  // redex outside the grammar's support) the final rescore drops it.
  if (!R.RewrittenFrontiers.back().empty()) {
    EXPECT_EQ(R.RewrittenFrontiers.back().best()->Program, Original);
  }
}

TEST_F(CompressionTest, CloseOverFreeIndicesRejectsIncompleteSets) {
  // Regression: with an incomplete closure set the old code hit
  // assert(false) in Debug but silently returned the raw index in
  // Release, miscapturing the invention body. The contract is now a null
  // return in every build mode.
  ExprPtr Term = parseProgram("(+ $0 $1)");
  ASSERT_NE(Term, nullptr);
  EXPECT_EQ(detail::closeOverFreeIndices(Term, {0}), nullptr);
  EXPECT_EQ(detail::closeOverFreeIndices(Term, {1}), nullptr);
  EXPECT_EQ(detail::closeOverFreeIndices(Term, {}), nullptr);

  // The complete set closes the term: $0 binds to the innermost lambda,
  // $1 to the outermost.
  ExprPtr Closed = detail::closeOverFreeIndices(Term, {0, 1});
  ASSERT_NE(Closed, nullptr);
  EXPECT_TRUE(Closed->isClosed());
  EXPECT_EQ(Closed, parseProgram("(lambda (lambda (+ $1 $0)))"));

  // Deeper free indices under a binder are renumbered, not leaked.
  ExprPtr Under = parseProgram("(lambda (+ $0 $2))");
  ASSERT_NE(Under, nullptr);
  EXPECT_EQ(detail::closeOverFreeIndices(Under, {0}), nullptr);
  ExprPtr ClosedUnder = detail::closeOverFreeIndices(Under, {1});
  ASSERT_NE(ClosedUnder, nullptr);
  EXPECT_TRUE(ClosedUnder->isClosed());
}

TEST_F(CompressionTest, OverflowDegradeNeverLeaksPartialClosures) {
  // A round whose closure table overflows MaxVersionNodes proposes and
  // rewrites top-down, and no partially built closure may reach candidate
  // scoring. At caps 1 and 8 every round overflows, so the version-space
  // backend must reproduce the top-down backend bit for bit.
  std::vector<Frontier> Fs = idiomCorpus();
  for (size_t Cap : {size_t(1), size_t(8)}) {
    for (int Steps : {0, 3}) {
      CompressionParams Params;
      Params.RefactorSteps = Steps;
      Params.MaxVersionNodes = Cap;
      Params.Backend = CompressionBackend::TopDown;
      CompressionResult TD = compressLibrary(G, Fs, Params);
      ASSERT_FALSE(TD.NewInventions.empty());
      Params.Backend = CompressionBackend::VersionSpace;
      expectIdenticalResults(TD, compressLibrary(G, Fs, Params),
                             "cap=" + std::to_string(Cap) +
                                 " steps=" + std::to_string(Steps));
    }
  }
  // Caps that fit some closures but not others mix version-space and
  // top-down rounds; the result must stay well formed.
  for (size_t Cap : {size_t(40), size_t(3000)}) {
    SCOPED_TRACE("mixed cap=" + std::to_string(Cap));
    CompressionParams Params;
    Params.StructurePenalty = 0.5;
    Params.MaxVersionNodes = Cap;
    CompressionResult R = compressLibrary(G, Fs, Params);
    ASSERT_EQ(R.RewrittenFrontiers.size(), Fs.size());
    for (size_t X = 0; X < Fs.size(); ++X)
      ASSERT_EQ(R.RewrittenFrontiers[X].entries().size(),
                Fs[X].entries().size());
  }
}

TEST_F(CompressionTest, EmptyFrontiersPassThrough) {
  auto T = std::make_shared<Task>("unsolved", Type::arrow(tInt(), tInt()),
                                  std::vector<Example>{});
  std::vector<Frontier> Fs = {Frontier(T)};
  CompressionResult R = compressLibrary(G, Fs);
  EXPECT_TRUE(R.NewInventions.empty());
  EXPECT_TRUE(R.RewrittenFrontiers[0].empty());
}

TEST_F(CompressionTest, CompressedLibraryMatchesGolden) {
  // Pins compressLibrary's observable output across builds, not just
  // across thread counts or backends: the adopted inventions, every refit
  // weight and both scores bit for bit, and every rewritten beam. Four
  // cases — the idiom corpus under both backends, the Fig 2 corpus under
  // version spaces, and the EC baseline (no refactoring) — each at 1 and
  // 4 threads. Any change to proposal, extraction, rewriting, scoring or
  // adoption changes the literal.
  struct Case {
    Grammar Base;
    std::vector<Frontier> Frontiers;
    CompressionBackend Backend;
    int RefactorSteps;
  };
  Grammar Lisp = Grammar::uniform(prims::mcCarthy1959());
  std::vector<Case> Cases = {
      {G, idiomCorpus(), CompressionBackend::VersionSpace, 3},
      {G, idiomCorpus(), CompressionBackend::TopDown, 3},
      {Lisp, figureTwoCorpus(Lisp), CompressionBackend::VersionSpace, 3},
      {G, idiomCorpus(), CompressionBackend::VersionSpace, 0},
  };
  uint64_t H = 1469598103934665603ULL;
  char Buf[128];
  for (const Case &C : Cases)
    for (int Threads : {1, 4}) {
      CompressionParams Params;
      Params.StructurePenalty = 0.5;
      Params.Backend = C.Backend;
      Params.RefactorSteps = C.RefactorSteps;
      Params.NumThreads = Threads;
      CompressionResult R = compressLibrary(C.Base, C.Frontiers, Params);
      for (ExprPtr Inv : R.NewInventions)
        H = fnv1a(Inv->show() + "\n", H);
      for (const Production &P : R.NewGrammar.productions()) {
        std::snprintf(Buf, sizeof(Buf), " %a\n", P.LogWeight);
        H = fnv1a(Buf, H);
      }
      std::snprintf(Buf, sizeof(Buf), "%a %a %a\n",
                    R.NewGrammar.logVariable(), R.InitialScore,
                    R.FinalScore);
      H = fnv1a(Buf, H);
      for (const Frontier &F : R.RewrittenFrontiers)
        for (const FrontierEntry &E : F.entries())
          H = fnv1a(E.Program->show() + "\n", H);
    }
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(H));
  EXPECT_STREQ(Buf, "0d9649ca13d9c7bb");
}
