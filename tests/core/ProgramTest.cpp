//===- tests/core/ProgramTest.cpp - Program representation unit tests -----===//

#include "core/Primitives.h"
#include "core/Program.h"
#include "core/ProgramParser.h"

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string_view>
#include <thread>

using namespace dc;

namespace {

/// Registers the shared primitives once for every test in this file.
class ProgramTest : public ::testing::Test {
protected:
  void SetUp() override {
    prims::functionalCore();
    prims::arithmeticExtras();
  }
};

} // namespace

TEST_F(ProgramTest, HashConsingGivesPointerEquality) {
  ExprPtr A = Expr::application(lookupPrimitive("+"), Expr::index(0));
  ExprPtr B = Expr::application(lookupPrimitive("+"), Expr::index(0));
  EXPECT_EQ(A, B);
  EXPECT_EQ(Expr::index(3), Expr::index(3));
  EXPECT_NE(Expr::index(3), Expr::index(4));
}

TEST_F(ProgramTest, ShowRendersSpine) {
  ExprPtr P = Expr::abstraction(Expr::applications(
      lookupPrimitive("+"), {Expr::index(0), lookupPrimitive("1")}));
  EXPECT_EQ(P->show(), "(lambda (+ $0 1))");
}

TEST_F(ProgramTest, ParseRoundTrip) {
  const char *Sources[] = {
      "(lambda (+ $0 1))",
      "(lambda (map (lambda (+ $0 $0)) $0))",
      "(lambda (fold (lambda (lambda (+ $0 $1))) 0 $0))",
      "$0",
      "(lambda (if (is-nil $0) 0 (car $0)))",
  };
  for (const char *Src : Sources) {
    std::string Err;
    ExprPtr P = parseProgram(Src, &Err);
    ASSERT_NE(P, nullptr) << Src << ": " << Err;
    EXPECT_EQ(P->show(), Src);
    // Parsing the rendering must intern to the same node.
    EXPECT_EQ(parseProgram(P->show()), P);
  }
}

TEST_F(ProgramTest, ParseErrors) {
  std::string Err;
  EXPECT_EQ(parseProgram("(lambda", &Err), nullptr);
  EXPECT_FALSE(Err.empty());
  EXPECT_EQ(parseProgram("(unknown-prim 1)", &Err), nullptr);
  EXPECT_EQ(parseProgram("($)", &Err), nullptr);
  EXPECT_EQ(parseProgram("", &Err), nullptr);
  EXPECT_EQ(parseProgram("(lambda $0) extra", &Err), nullptr);
}

TEST_F(ProgramTest, SizeAndDepth) {
  ExprPtr P = parseProgram("(lambda (+ $0 1))");
  ASSERT_NE(P, nullptr);
  // lambda, app, app, +, $0, 1 — with the spine counted as binary apps.
  EXPECT_EQ(P->size(), 6);
  EXPECT_EQ(P->depth(), 4);
}

TEST_F(ProgramTest, FreeVariables) {
  EXPECT_TRUE(parseProgram("(lambda $0)")->isClosed());
  EXPECT_FALSE(Expr::index(0)->isClosed());
  ExprPtr Nested = parseProgram("(lambda (lambda $1))");
  EXPECT_TRUE(Nested->isClosed());
  ExprPtr Escaping = Expr::abstraction(Expr::index(1));
  EXPECT_FALSE(Escaping->isClosed());
}

TEST_F(ProgramTest, ShiftRespectsCutoff) {
  // (lambda ($0 $1)): $0 is bound, $1 free.
  ExprPtr P = Expr::abstraction(
      Expr::application(Expr::index(0), Expr::index(1)));
  ExprPtr Shifted = P->shift(2);
  ASSERT_NE(Shifted, nullptr);
  EXPECT_EQ(Shifted->show(), "(lambda ($0 $3))");
  // Shifting below zero fails.
  EXPECT_EQ(Expr::index(0)->shift(-1), nullptr);
}

TEST_F(ProgramTest, BetaReduction) {
  // ((lambda (+ $0 1)) 1) reduces to (+ 1 1).
  ExprPtr Redex =
      Expr::application(parseProgram("(lambda (+ $0 1))"),
                        lookupPrimitive("1"));
  EXPECT_EQ(Redex->betaNormalForm()->show(), "(+ 1 1)");
}

TEST_F(ProgramTest, BetaReductionUnderBinders) {
  // (lambda ((lambda $0) $0)) reduces to (lambda $0).
  ExprPtr P = parseProgram("(lambda ((lambda $0) $0))");
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(P->betaNormalForm()->show(), "(lambda $0)");
}

TEST_F(ProgramTest, BetaNormalFormNullWhenBudgetExhausted) {
  // Ω = ((lambda ($0 $0)) (lambda ($0 $0))) reduces to itself forever; a
  // bounded normalizer must report failure, not hand back a half-reduced
  // term for callers to score or print.
  ExprPtr Omega = parseProgram("((lambda ($0 $0)) (lambda ($0 $0)))");
  ASSERT_NE(Omega, nullptr);
  EXPECT_EQ(Omega->betaNormalForm(8), nullptr);

  // A terminating chain of duplicating redexes: C_0 = 1 and
  // C_n = ((lambda (+ $0 $0)) C_{n-1}) needs 2^n - 1 leftmost-outermost
  // steps, so a too-small budget fails while a sufficient one converges.
  std::string Src = "1";
  for (int I = 0; I < 10; ++I)
    Src = "((lambda (+ $0 $0)) " + Src + ")";
  ExprPtr Chain = parseProgram(Src);
  ASSERT_NE(Chain, nullptr);
  EXPECT_EQ(Chain->betaNormalForm(512), nullptr);
  ExprPtr Normal = Chain->betaNormalForm(2048);
  ASSERT_NE(Normal, nullptr);
  EXPECT_TRUE(Normal->isClosed());
}

TEST_F(ProgramTest, TypeInferenceSimple) {
  TypePtr T = parseProgram("(lambda (+ $0 1))")->inferType();
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->show(), "int -> int");
}

TEST_F(ProgramTest, TypeInferencePolymorphic) {
  TypePtr T = parseProgram("(lambda (map (lambda $0) $0))")->inferType();
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->show(), "list(t0) -> list(t0)");
}

TEST_F(ProgramTest, TypeInferenceHigherOrder) {
  TypePtr T = parseProgram("(lambda (lambda (map $1 $0)))")->inferType();
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->show(), "(t0 -> t1) -> list(t0) -> list(t1)");
}

TEST_F(ProgramTest, IllTypedProgramsRejected) {
  EXPECT_EQ(parseProgram("(+ 1 nil)")->inferType(), nullptr);
  EXPECT_EQ(parseProgram("(car 1)")->inferType(), nullptr);
  // Self-application is untypeable in HM.
  EXPECT_EQ(parseProgram("(lambda ($0 $0))")->inferType(), nullptr);
}

TEST_F(ProgramTest, InventionsParseAndType) {
  std::string Err;
  ExprPtr Inv = parseProgram("#(lambda (+ $0 1))", &Err);
  ASSERT_NE(Inv, nullptr) << Err;
  EXPECT_TRUE(Inv->isInvented());
  EXPECT_EQ(Inv->declaredType()->show(), "int -> int");
  EXPECT_EQ(Inv->size(), 1) << "inventions count as a single token";

  ExprPtr Use = parseProgram("(lambda (#(lambda (+ $0 1)) $0))", &Err);
  ASSERT_NE(Use, nullptr) << Err;
  EXPECT_EQ(Use->inferType()->show(), "int -> int");
}

TEST_F(ProgramTest, InventionBodyMustBeClosed) {
  std::string Err;
  EXPECT_EQ(parseProgram("#((+ $0 1))", &Err), nullptr);
  EXPECT_FALSE(Err.empty());
}

TEST_F(ProgramTest, StripInventions) {
  ExprPtr Use = parseProgram("(lambda (#(lambda (+ $0 1)) $0))");
  ASSERT_NE(Use, nullptr);
  EXPECT_EQ(Use->stripInventions()->show(),
            "(lambda ((lambda (+ $0 1)) $0))");
}

TEST_F(ProgramTest, InventionDepth) {
  ExprPtr Base = parseProgram("(lambda (+ $0 1))");
  EXPECT_EQ(Base->inventionDepth(), 0);
  ExprPtr Inv1 = Expr::invented(Base);
  EXPECT_EQ(Inv1->inventionDepth(), 1);
  // An invention whose body calls Inv1 has depth 2.
  ExprPtr Body2 = Expr::abstraction(
      Expr::application(Inv1, Expr::application(Inv1, Expr::index(0))));
  ExprPtr Inv2 = Expr::invented(Body2);
  EXPECT_EQ(Inv2->inventionDepth(), 2);
}

TEST_F(ProgramTest, ApplicationSpine) {
  ExprPtr P = parseProgram("(+ 1 0)");
  auto [Head, Args] = applicationSpine(P);
  EXPECT_EQ(Head, lookupPrimitive("+"));
  ASSERT_EQ(Args.size(), 2u);
  EXPECT_EQ(Args[0], lookupPrimitive("1"));
  EXPECT_EQ(Args[1], lookupPrimitive("0"));
}

TEST_F(ProgramTest, SubexpressionsDeduplicated) {
  ExprPtr P = parseProgram("(+ 1 1)");
  auto Subs = P->subexpressions();
  // (+ 1 1), (+ 1), +, 1 — the second "1" is shared.
  EXPECT_EQ(Subs.size(), 4u);
}

TEST_F(ProgramTest, RequireNormalFormPassesThroughSuccess) {
  ExprPtr Reduced =
      requireNormalForm(parseProgram("((lambda $0) 1)")->betaNormalForm());
  ASSERT_NE(Reduced, nullptr);
  EXPECT_EQ(Reduced->show(), "1");
}

TEST_F(ProgramTest, RequireNormalFormDiesOnExhaustion) {
  // The assertion helper turns the silent null footgun into a loud debug
  // failure at call sites that believe exhaustion cannot happen. (The
  // repo builds with assertions on in every configuration.)
  ExprPtr Omega = parseProgram("((lambda ($0 $0)) (lambda ($0 $0)))");
  ASSERT_NE(Omega, nullptr);
  EXPECT_DEATH((void)requireNormalForm(Omega->betaNormalForm(8)),
               "exhausted its step budget");
}

TEST_F(ProgramTest, ConcurrentInterningYieldsOneNode) {
  // Every thread builds the same terms, in a different order, from the
  // index table (small indices), the arena (large ones) and applications
  // and abstractions over them; all must come back with the same nodes.
  constexpr int NumThreads = 8;
  constexpr int NumShapes = 96;
  ExprPtr Plus = lookupPrimitive("+");
  auto Build = [Plus](int Shape) {
    ExprPtr E = Expr::index(Shape % 48);
    for (int Depth = 0; Depth < Shape % 4; ++Depth)
      E = Depth % 2 ? Expr::abstraction(E)
                    : Expr::application(Expr::application(Plus, E),
                                        Expr::index(Shape % 40));
    return E;
  };
  std::vector<std::vector<ExprPtr>> Seen(NumThreads,
                                         std::vector<ExprPtr>(NumShapes));
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
  std::set<ExprPtr> Nodes(Seen[0].begin(), Seen[0].end());
  for (ExprPtr E : Seen[0])
    Shown.insert(E->show());
  EXPECT_EQ(Nodes.size(), Shown.size());
  for (int I : {0, 31, 32, 47})
    EXPECT_EQ(Expr::index(I)->index(), I);
}

TEST_F(ProgramTest, ConcurrentInterningThroughRegrowth) {
  // Enough distinct applications and abstractions that every shard's slot
  // array doubles several times while 8 threads intern them, each in its
  // own order: every structure must still map to exactly one node.
  constexpr int NumThreads = 8;
  constexpr int Side = 160;
  constexpr int NumApps = Side * Side;
  constexpr int NumShapes = 2 * NumApps;
  // Indices from 100 up are interned by the arena, not the small table.
  auto App = [](int K) {
    return Expr::application(Expr::index(100 + K / Side),
                             Expr::index(100 + K % Side));
  };
  auto Build = [&](int Shape) {
    return Shape < NumApps ? App(Shape)
                           : Expr::abstraction(App(Shape - NumApps));
  };
  // Strides coprime with NumShapes (2^11 * 5^2); the last one walks
  // backwards.
  const int Strides[] = {1, 7919, 12347, NumShapes - 1};
  std::vector<std::vector<ExprPtr>> Seen(NumThreads,
                                         std::vector<ExprPtr>(NumShapes));
  std::vector<std::thread> Threads;
  for (int W = 0; W < NumThreads; ++W)
    Threads.emplace_back([&, W] {
      const long Stride = Strides[W % 4];
      for (long I = 0; I < NumShapes; ++I) {
        const int Shape = static_cast<int>((I * Stride + W * 997) % NumShapes);
        Seen[W][Shape] = Build(Shape);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  for (int W = 1; W < NumThreads; ++W)
    EXPECT_EQ(Seen[W], Seen[0]) << "thread " << W;
  EXPECT_EQ(std::set<ExprPtr>(Seen[0].begin(), Seen[0].end()).size(),
            static_cast<size_t>(NumShapes));
  for (int K = 0; K < NumApps; ++K) {
    ExprPtr A = Seen[0][K];
    ASSERT_TRUE(A->isApplication()) << K;
    EXPECT_EQ(A->fn(), Expr::index(100 + K / Side)) << K;
    EXPECT_EQ(A->arg(), Expr::index(100 + K % Side)) << K;
    ASSERT_TRUE(Seen[0][NumApps + K]->isAbstraction()) << K;
    EXPECT_EQ(Seen[0][NumApps + K]->body(), A) << K;
  }
}

TEST_F(ProgramTest, HashValuesAreUnchanged) {
  // Tables outside the arena key on Expr::hash() (the version-space
  // cache), so the arena may spread it as it likes but never change it.
  // A leaf's hash depends on its fields alone; these were computed before
  // the arena's table was rewritten.
  EXPECT_EQ(Expr::index(0)->hash(), 0xfbb39133fee37998ull);
  EXPECT_EQ(Expr::index(31)->hash(), 0xfbb39133f98a1401ull);
  EXPECT_EQ(Expr::index(40)->hash(), 0xfbb39133fdce1c6bull);
  EXPECT_EQ(Expr::index(1000)->hash(), 0xfbb39133ce494ab0ull);
  EXPECT_EQ(lookupPrimitive("+")->hash(), 0x0256bae83ef38e26ull);
  EXPECT_EQ(lookupPrimitive("map")->hash(), 0x61893c022db3bda6ull);
  EXPECT_EQ(lookupPrimitive("1")->hash(), 0xdf9a7230815438cfull);
  // An application's or abstraction's hash folds in its children's
  // addresses, (kind, index, name, fn or body, arg) combined in order.
  auto Combine = [](size_t Seed, size_t V) {
    return Seed ^ (V + 0x9e3779b97f4a7c15ull + (Seed << 6) + (Seed >> 2));
  };
  auto Structural = [&](ExprKind Kind, ExprPtr A, ExprPtr B) {
    size_t H = static_cast<size_t>(Kind);
    H = Combine(H, 0);
    H = Combine(H, std::hash<std::string_view>()(""));
    H = Combine(H, reinterpret_cast<size_t>(A));
    return Combine(H, reinterpret_cast<size_t>(B));
  };
  ExprPtr Plus = lookupPrimitive("+");
  ExprPtr App = Expr::application(Plus, Expr::index(0));
  EXPECT_EQ(App->hash(), Structural(ExprKind::Application, Plus,
                                     Expr::index(0)));
  EXPECT_EQ(Expr::abstraction(App)->hash(),
            Structural(ExprKind::Abstraction, App, nullptr));
}
