//===- tests/vs/VersionSpaceTest.cpp - Version space unit tests -----------===//
//
// Exercises the paper's Fig 5 operators, including the consistency property
// (Theorem G.5): every program in ⟦Iβ'(v)⟧ β-reduces to a program in ⟦v⟧.
//
//===----------------------------------------------------------------------===//

#include "vs/VersionSpace.h"

#include "core/Primitives.h"
#include "core/ProgramParser.h"

#include <gtest/gtest.h>

using namespace dc;

namespace {

class VersionSpaceTest : public ::testing::Test {
protected:
  void SetUp() override {
    prims::functionalCore();
    prims::arithmeticExtras();
    prims::mcCarthy1959();
  }

  VersionTable VT;
};

/// FNV-1a, fed whole 64-bit words and length-prefixed strings.
struct Fnv1a {
  uint64_t Hash = 0xcbf29ce484222325ull;
  void bytes(const void *Data, size_t Size) {
    const auto *B = static_cast<const unsigned char *>(Data);
    for (size_t I = 0; I < Size; ++I) {
      Hash ^= B[I];
      Hash *= 0x100000001b3ull;
    }
  }
  void word(int64_t X) { bytes(&X, sizeof X); }
  void text(const std::string &S) {
    word(static_cast<int64_t>(S.size()));
    bytes(S.data(), S.size());
  }
};

/// Hashes every node of \p T in id order: its kind, then its index, its
/// leaf's printed form, or its child ids and members in order.
void hashTable(Fnv1a &H, const VersionTable &T) {
  H.word(static_cast<int64_t>(T.size()));
  for (VsId V = 0; V < static_cast<VsId>(T.size()); ++V) {
    const VsNode &N = T.node(V);
    H.word(static_cast<int64_t>(N.Kind));
    switch (N.Kind) {
    case VsKind::Index:
      H.word(N.Index);
      break;
    case VsKind::Terminal:
      H.text(N.Leaf->show());
      break;
    case VsKind::Abstraction:
      H.word(N.Body);
      break;
    case VsKind::Application:
      H.word(N.Fn);
      H.word(N.Arg);
      break;
    case VsKind::Union:
      H.word(static_cast<int64_t>(T.members(V).size()));
      for (VsId M : T.members(V))
        H.word(M);
      break;
    default:
      break;
    }
  }
}

/// The reference cone: one ascending pass over the whole table, marking
/// every node with a marked child (ids rise from children to parents).
std::vector<char> coneByFullPass(const VersionTable &T, VsId Anchor) {
  std::vector<char> Cone(T.size(), 0);
  Cone[Anchor] = 1;
  for (VsId V = Anchor + 1; V < static_cast<VsId>(T.size()); ++V) {
    const VsNode &N = T.node(V);
    switch (N.Kind) {
    case VsKind::Abstraction:
      Cone[V] = Cone[N.Body];
      break;
    case VsKind::Application:
      Cone[V] = Cone[N.Fn] | Cone[N.Arg];
      break;
    case VsKind::Union:
      for (VsId M : T.members(V))
        Cone[V] |= Cone[M];
      break;
    default:
      break;
    }
  }
  return Cone;
}

} // namespace

TEST_F(VersionSpaceTest, ParentEdgeConesMatchAFullPass) {
  // Scoring walks a candidate's cone up the parent edges; it must be
  // exactly the set a full ascending pass marks, for every anchor.
  ExprPtr P = parseProgram("(lambda (cons (+ (car $0) (car $0)) nil))");
  ASSERT_NE(P, nullptr);
  VT.betaClosure(P, 2);
  ASSERT_GT(VT.size(), 100u);
  const VsParents Parents(VT);
  VsMarks Cone;
  for (VsId Anchor = 0; Anchor < static_cast<VsId>(VT.size()); ++Anchor) {
    std::vector<char> Want = coneByFullPass(VT, Anchor);
    Parents.cone(Anchor, Cone);
    for (VsId V = 0; V < static_cast<VsId>(VT.size()); ++V)
      ASSERT_EQ(Cone.contains(V), Want[V] != 0)
          << "anchor " << Anchor << ", node " << V;
  }
}

TEST_F(VersionSpaceTest, ClosureTablesMatchGolden) {
  // Node ids decide which candidates survive the ranking cut, so the
  // tables betaClosure and absorb build are pinned node by node. The
  // literal was computed before version tables moved to flat storage.
  const char *Sources[] = {
      "(* (+ 5 5) (+ 7 7))",
      "(lambda (map (lambda (+ $0 $0)) (cdr $0)))",
      "(lambda (cons (+ (car $0) (car $0)) nil))",
      "(lambda (fold (lambda (lambda (+ $1 $0))) 0 $0))",
      "(lambda (#(lambda (+ $0 $0)) (car $0)))",
  };
  Fnv1a H;
  VersionTable Merged;
  for (const char *Src : Sources) {
    ExprPtr P = parseProgram(Src);
    ASSERT_NE(P, nullptr) << Src;
    for (int Steps = 1; Steps <= 3; ++Steps) {
      VersionTable Shard;
      VsId Root = Shard.betaClosure(P, Steps);
      H.word(Root);
      hashTable(H, Shard);
      std::vector<VsId> Memo(Shard.size(), -1);
      H.word(Merged.absorb(Shard, Root, Memo));
    }
  }
  hashTable(H, Merged);
  EXPECT_EQ(H.Hash, 0x3e8aa3b6dd4bc1beull);
}

TEST_F(VersionSpaceTest, ExtensionSizeHonorsEachCallsCap) {
  // A count saturated under a small cap must not answer a later call
  // with a larger one.
  ExprPtr P = parseProgram("(* (+ 5 5) (+ 7 7))");
  ASSERT_NE(P, nullptr);
  VersionTable Fresh;
  double Uncapped = Fresh.extensionSize(Fresh.betaClosure(P, 2), 1e30);
  ASSERT_GT(Uncapped, 10.0);
  VsId Closure = VT.betaClosure(P, 2);
  EXPECT_EQ(VT.extensionSize(Closure, 10), 10.0);
  EXPECT_EQ(VT.extensionSize(Closure, 1e30), Uncapped);
  EXPECT_EQ(VT.extensionSize(Closure, 10), 10.0);
}

TEST_F(VersionSpaceTest, HashConsing) {
  EXPECT_EQ(VT.index(3), VT.index(3));
  EXPECT_NE(VT.index(3), VT.index(4));
  ExprPtr Plus = lookupPrimitive("+");
  EXPECT_EQ(VT.terminal(Plus), VT.terminal(Plus));
  VsId A = VT.apply(VT.terminal(Plus), VT.index(0));
  VsId B = VT.apply(VT.terminal(Plus), VT.index(0));
  EXPECT_EQ(A, B);
}

TEST_F(VersionSpaceTest, VoidAbsorbsStructure) {
  EXPECT_EQ(VT.abstraction(VT.voidSpace()), VT.voidSpace());
  EXPECT_EQ(VT.apply(VT.voidSpace(), VT.index(0)), VT.voidSpace());
  EXPECT_EQ(VT.apply(VT.index(0), VT.voidSpace()), VT.voidSpace());
}

TEST_F(VersionSpaceTest, UnionNormalization) {
  VsId I0 = VT.index(0);
  VsId I1 = VT.index(1);
  // ∅ members vanish; singletons collapse; Λ absorbs.
  EXPECT_EQ(VT.unionOf({VT.voidSpace()}), VT.voidSpace());
  EXPECT_EQ(VT.unionOf({I0, VT.voidSpace()}), I0);
  EXPECT_EQ(VT.unionOf({I0, VT.universe()}), VT.universe());
  VsId U = VT.unionOf({I0, I1});
  EXPECT_EQ(VT.unionOf({I1, I0}), U) << "unions are order independent";
  EXPECT_EQ(VT.unionOf({U, I0}), U) << "nested unions flatten";
}

TEST_F(VersionSpaceTest, IncorporateExtractRoundTrip) {
  const char *Sources[] = {
      "(+ 5 5)",
      "(lambda (+ $0 1))",
      "(lambda (map (lambda (+ $0 $0)) $0))",
      "(lambda (fold (lambda (lambda (+ $1 $0))) 0 $0))",
  };
  for (const char *Src : Sources) {
    ExprPtr P = parseProgram(Src);
    ASSERT_NE(P, nullptr) << Src;
    VsId V = VT.incorporate(P);
    EXPECT_EQ(VT.extractCheapest(V), P) << Src;
    EXPECT_TRUE(VT.extensionContains(V, P)) << Src;
  }
}

TEST_F(VersionSpaceTest, ExtensionOfSingletonIsSingleton) {
  ExprPtr P = parseProgram("(+ 5 5)");
  VsId V = VT.incorporate(P);
  EXPECT_DOUBLE_EQ(VT.extensionSize(V), 1.0);
  auto Sample = VT.extensionSample(V, 10);
  ASSERT_EQ(Sample.size(), 1u);
  EXPECT_EQ(Sample[0], P);
}

TEST_F(VersionSpaceTest, ShiftFreeSemantics) {
  // ($0 $2) under one binder: $0 bound, $2 free referring two levels out;
  // removing one outer binder turns $2 into $1.
  ExprPtr P = parseProgram("(lambda ($0 $2))");
  VsId V = VT.incorporate(P);
  VsId Down = VT.shiftFree(V, -1);
  EXPECT_EQ(VT.extractCheapest(Down), parseProgram("(lambda ($0 $1))"));
  // A variable referring exactly to the removed binder vanishes: ($0 $1)
  // under one binder downshifts to ∅ because $1 is in the band (Fig 5E).
  ExprPtr Q = parseProgram("(lambda ($0 $1))");
  EXPECT_EQ(VT.shiftFree(VT.incorporate(Q), -1), VT.voidSpace());
  // Downshifting a variable in the vanishing band yields ∅.
  VsId V0 = VT.index(0);
  EXPECT_EQ(VT.shiftFree(V0, -1, 0), VT.voidSpace());
  // Upshift is total.
  EXPECT_EQ(VT.shiftFree(V0, 2, 0), VT.index(2));
}

TEST_F(VersionSpaceTest, IntersectionBasics) {
  VsId A = VT.incorporate(parseProgram("(+ 1 1)"));
  VsId B = VT.incorporate(parseProgram("(+ 1 0)"));
  EXPECT_EQ(VT.intersection(A, A), A);
  EXPECT_EQ(VT.intersection(A, B), VT.voidSpace());
  EXPECT_EQ(VT.intersection(A, VT.universe()), A);
  EXPECT_EQ(VT.intersection(A, VT.voidSpace()), VT.voidSpace());
  VsId U = VT.unionOf({A, B});
  EXPECT_EQ(VT.intersection(U, A), A);
}

TEST_F(VersionSpaceTest, InversionFindsTheFigFourRefactorings) {
  // Fig 4: refactorings of (+ 5 5) abstracting out the 5s.
  ExprPtr P = parseProgram("(+ 5 5)");
  VsId Inv = VT.inversion(VT.incorporate(P));
  const char *Expected[] = {
      "((lambda (+ $0 $0)) 5)",
      "((lambda (+ $0 5)) 5)",
      "((lambda (+ 5 $0)) 5)",
  };
  for (const char *Src : Expected) {
    ExprPtr R = parseProgram(Src);
    ASSERT_NE(R, nullptr) << Src;
    EXPECT_TRUE(VT.extensionContains(Inv, R)) << Src;
  }
  // The "double" abstraction is exactly the shared-body case.
  ExprPtr Double = parseProgram("((lambda (+ $0 $0)) 5)");
  EXPECT_TRUE(VT.extensionContains(Inv, Double));
}

TEST_F(VersionSpaceTest, InversionIsConsistent) {
  // Theorem G.5: every member of Iβ'(v) β-reduces into ⟦v⟧.
  const char *Sources[] = {
      "(+ 5 5)",
      "(lambda (+ $0 1))",
      "(lambda (cons (car $0) nil))",
  };
  for (const char *Src : Sources) {
    ExprPtr P = parseProgram(Src);
    VsId Inv = VT.inversion(VT.incorporate(P));
    for (ExprPtr R : VT.extensionSample(Inv, 80)) {
      ExprPtr Reduced = R->betaNormalForm(128);
      EXPECT_EQ(Reduced, P) << "refactoring " << R->show()
                            << " does not reduce to " << Src;
    }
  }
}

TEST_F(VersionSpaceTest, NStepInversionGrowsMonotonically) {
  ExprPtr P = parseProgram("(lambda (+ (+ $0 1) 1))");
  VsId V = VT.incorporate(P);
  double S0 = VT.extensionSize(VT.inversionN(V, 0));
  double S1 = VT.extensionSize(VT.inversionN(V, 1));
  double S2 = VT.extensionSize(VT.inversionN(V, 2));
  EXPECT_EQ(S0, 1.0);
  EXPECT_GT(S1, S0);
  EXPECT_GE(S2, S1);
}

TEST_F(VersionSpaceTest, BetaClosureAggregatesSubtreeEquivalences) {
  // The paper's (* (+ 1 1) (+ 5 5)) example: one-step inversion at each
  // subtree exposes (double 1) and (double 5) *simultaneously*, which a
  // single global Iβ1 cannot.
  ExprPtr P = parseProgram("(* (+ 1 1) (+ 5 5))");
  ASSERT_NE(P, nullptr);
  VsId Closure = VT.betaClosure(P, 1);
  ExprPtr Both = parseProgram(
      "(* ((lambda (+ $0 $0)) 1) ((lambda (+ $0 $0)) 5))");
  ASSERT_NE(Both, nullptr);
  EXPECT_TRUE(VT.extensionContains(Closure, Both));
  // But a lone Iβ1 at the root does not contain the double rewrite.
  VersionTable Fresh;
  VsId RootOnly = Fresh.inversionN(Fresh.incorporate(P), 1);
  EXPECT_FALSE(Fresh.extensionContains(RootOnly, Both));
}

TEST_F(VersionSpaceTest, BetaClosureMembersReduceToOriginal) {
  ExprPtr P = parseProgram("(lambda (cons (+ (car $0) (car $0)) nil))");
  ASSERT_NE(P, nullptr);
  VsId Closure = VT.betaClosure(P, 2);
  int Checked = 0;
  for (ExprPtr R : VT.extensionSample(Closure, 120)) {
    ExprPtr Reduced = R->betaNormalForm(256);
    EXPECT_EQ(Reduced, P) << R->show();
    ++Checked;
  }
  EXPECT_GT(Checked, 10);
}

TEST_F(VersionSpaceTest, ExtractMinimalPrefersCandidate) {
  // Anchor the "double" idiom at the hash-consed open term (+ $0 $0); the
  // closure of (* (+ 5 5) (+ 7 7)) exposes that node twice, and
  // candidate-aware extraction should rewrite both occurrences to the
  // invention applied to the abstracted value.
  ExprPtr P = parseProgram("(* (+ 5 5) (+ 7 7))");
  ASSERT_NE(P, nullptr);
  VsId Closure = VT.betaClosure(P, 2);
  ExprPtr OpenTerm = parseProgram("(+ $0 $0)");
  VsId Anchor = VT.incorporate(OpenTerm);
  auto Reach = VT.reachable(Closure);
  ASSERT_NE(std::find(Reach.begin(), Reach.end(), Anchor), Reach.end())
      << "closure must expose the open double term";

  ExprPtr Invention = Expr::invented(parseProgram("(lambda (+ $0 $0))"));
  ExprPtr Rewrite = Expr::application(Invention, Expr::index(0));
  VsMarks Cone;
  VsParents(VT).cone(Anchor, Cone);
  ExtractionMemo Shared, Overlay;
  Extraction E = VT.extractMinimal(Closure, {Anchor, Rewrite, &Cone, &Shared},
                                   Overlay);
  ASSERT_NE(E.Program, nullptr);
  ExprPtr Normal = E.Program->betaNormalForm(128);
  EXPECT_EQ(Normal->show(),
            "(* (#(lambda (+ $0 $0)) 5) (#(lambda (+ $0 $0)) 7))");
}

TEST_F(VersionSpaceTest, ReachableIncludesSelfAndChildren) {
  ExprPtr P = parseProgram("(+ 1 0)");
  VsId V = VT.incorporate(P);
  auto R = VT.reachable(V);
  EXPECT_GE(R.size(), 4u); // app, app, +, 1, 0 (shared where equal)
  EXPECT_NE(std::find(R.begin(), R.end(), V), R.end());
}

TEST_F(VersionSpaceTest, Fig2CompressionRatio) {
  // A scaled-down version of the paper's headline claim: the closure graph
  // is dramatically smaller than the number of refactorings it represents.
  ExprPtr P = parseProgram(
      "(lambda (fix (lambda (lambda (if (is-nil $0) nil "
      "(cons (+ (car $0) (car $0)) ($1 (cdr $0)))))) $0))");
  ASSERT_NE(P, nullptr);
  size_t Before = VT.size();
  VsId Closure = VT.betaClosure(P, 2);
  size_t GraphNodes = VT.size() - Before;
  double Refactorings = VT.extensionSize(Closure, 1e18);
  EXPECT_GT(Refactorings, static_cast<double>(GraphNodes) * 10)
      << "the version space must be a compressed representation";
}
