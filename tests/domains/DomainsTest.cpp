//===- tests/domains/DomainsTest.cpp - Domain substrate tests -------------===//
//
// Every domain must provide a well-formed corpus: tasks whose ground-truth
// semantics are expressible and whose likelihoods behave. Where we have
// ground-truth programs, they must score likelihood 0 (or finite, for the
// graded regex likelihood).
//
//===----------------------------------------------------------------------===//

#include "domains/DomainTable.h"
#include "domains/ListDomain.h"
#include "domains/LogoDomain.h"
#include "domains/OrigamiDomain.h"
#include "domains/PhysicsDomain.h"
#include "domains/RegexDomain.h"
#include "domains/RegressionDomain.h"
#include "domains/TextDomain.h"
#include "domains/TowerDomain.h"

#include "core/Enumeration.h"
#include "core/Primitives.h"
#include "core/ProgramParser.h"

#include <gtest/gtest.h>

using namespace dc;

namespace {

void checkDomainShape(const DomainSpec &D, size_t MinTrain) {
  EXPECT_FALSE(D.Name.empty());
  EXPECT_GE(D.TrainTasks.size(), MinTrain) << D.Name;
  EXPECT_FALSE(D.BasePrimitives.empty()) << D.Name;
  ASSERT_NE(D.Featurizer, nullptr) << D.Name;
  for (const TaskPtr &T : D.TrainTasks) {
    EXPECT_FALSE(T->name().empty());
    EXPECT_NE(T->request(), nullptr);
    EXPECT_FALSE(T->examples().empty()) << T->name();
    auto F = D.Featurizer->featurize(*T);
    EXPECT_EQ(static_cast<int>(F.size()), D.Featurizer->dimension());
  }
}

double ll(const DomainSpec &D, const std::string &TaskName,
          const std::string &Program) {
  ExprPtr P = parseProgram(Program);
  EXPECT_NE(P, nullptr) << Program;
  if (!P)
    return -1;
  for (const auto &Tasks : {D.TrainTasks, D.TestTasks})
    for (const TaskPtr &T : Tasks)
      if (T->name() == TaskName)
        return T->logLikelihood(P);
  ADD_FAILURE() << "no task named " << TaskName;
  return -1;
}

} // namespace

TEST(DomainTable, EveryEntryBuildsAtItsDefaultSeed) {
  std::string Names;
  for (const DomainEntry &E : domainTable()) {
    DomainSpec D = E.build(0);
    EXPECT_EQ(D.Name, E.Name);
    checkDomainShape(D, 1);
    EXPECT_EQ(findDomain(E.Name), &E);
    EXPECT_EQ(E.FixedCorpus, D.Name == "logo" || D.Name == "tower") << E.Name;
    if (!Names.empty())
      Names += ' ';
    Names += D.Name;
  }
  EXPECT_EQ(domainNames(), Names);
  EXPECT_EQ(findDomain("nosuch"), nullptr);
}

TEST(ListDomain, CorpusShape) {
  DomainSpec D = makeListDomain(1);
  checkDomainShape(D, 15);
  EXPECT_GE(D.TestTasks.size(), 15u);
}

TEST(ListDomain, GroundTruthSolutionsScore) {
  DomainSpec D = makeListDomain(1);
  EXPECT_EQ(ll(D, "add-1-to-each", "(lambda (map (lambda (+ $0 1)) $0))"),
            0.0);
  EXPECT_EQ(ll(D, "double-each", "(lambda (map (lambda (+ $0 $0)) $0))"),
            0.0);
  EXPECT_EQ(ll(D, "sum", "(lambda (fold (lambda (lambda (+ $1 $0))) 0 $0))"),
            0.0);
  EXPECT_EQ(ll(D, "length", "(lambda (length $0))"), 0.0);
  // Wrong programs fail.
  EXPECT_TRUE(std::isinf(ll(D, "double-each", "(lambda $0)")));
}

TEST(ListDomain, DeterministicGivenSeed) {
  DomainSpec A = makeListDomain(1);
  DomainSpec B = makeListDomain(1);
  ASSERT_EQ(A.TrainTasks.size(), B.TrainTasks.size());
  for (size_t I = 0; I < A.TrainTasks.size(); ++I) {
    EXPECT_EQ(A.TrainTasks[I]->name(), B.TrainTasks[I]->name());
    EXPECT_EQ(A.TrainTasks[I]->examples().size(),
              B.TrainTasks[I]->examples().size());
  }
}

TEST(TextDomain, CorpusShape) {
  DomainSpec D = makeTextDomain(2);
  checkDomainShape(D, 8);
}

TEST(TextDomain, GroundTruthSolutionsScore) {
  DomainSpec D = makeTextDomain(2);
  EXPECT_EQ(ll(D, "identity", "(lambda $0)"), 0.0);
  EXPECT_EQ(ll(D, "drop-first-char", "(lambda (cdr $0))"), 0.0);
  EXPECT_EQ(ll(D, "first-char", "(lambda (cons (car $0) nil))"), 0.0);
  EXPECT_EQ(ll(D, "append-period", "(lambda (append $0 (cons '.' nil)))"),
            0.0);
  EXPECT_EQ(ll(D, "uppercase-all", "(lambda (map char-upcase $0))"), 0.0);
  EXPECT_EQ(ll(D, "space-to-dash",
               "(lambda (map (lambda (if (char-eq? $0 ' ') '-' $0)) $0))"),
            0.0);
}

TEST(OrigamiDomain, CorpusShape) {
  DomainSpec D = makeOrigamiDomain(5);
  checkDomainShape(D, 18);
}

TEST(OrigamiDomain, RecursiveGroundTruths) {
  DomainSpec D = makeOrigamiDomain(5);
  EXPECT_EQ(ll(D, "length",
               "(lambda (fix (lambda (lambda (if (is-nil $0) 0 "
               "(+ 1 ($1 (cdr $0)))))) $0))"),
            0.0);
  EXPECT_EQ(ll(D, "increment-each",
               "(lambda (fix (lambda (lambda (if (is-nil $0) nil "
               "(cons (+ (car $0) 1) ($1 (cdr $0)))))) $0))"),
            0.0);
  EXPECT_EQ(ll(D, "append",
               "(lambda (lambda (fix (lambda (lambda (if (is-nil $0) $2 "
               "(cons (car $0) ($1 (cdr $0)))))) $1)))"),
            0.0);
}

TEST(PhysicsDomain, CorpusHasSixtyLaws) {
  DomainSpec D = makePhysicsDomain(11);
  EXPECT_EQ(D.TrainTasks.size(), 60u);
  checkDomainShape(D, 60);
}

TEST(PhysicsDomain, GroundTruthLaws) {
  DomainSpec D = makePhysicsDomain(11);
  EXPECT_EQ(ll(D, "newton-second-law/F=ma", "(lambda (lambda (*. $1 $0)))"),
            0.0);
  EXPECT_EQ(ll(D, "resistors-parallel",
               "(lambda (lambda (/. (*. $1 $0) (+. $1 $0))))"),
            0.0);
  EXPECT_EQ(ll(D, "dot-product",
               "(lambda (lambda (fold (lambda (lambda (+. $1 $0))) "
               "(-. 1. 1.) (zip (lambda (lambda (*. $1 $0))) $1 $0))))"),
            0.0);
  EXPECT_EQ(ll(D, "vector-sum",
               "(lambda (lambda (zip (lambda (lambda (+. $1 $0))) $1 $0)))"),
            0.0);
  // Tolerance rejects wrong laws.
  EXPECT_TRUE(std::isinf(
      ll(D, "newton-second-law/F=ma", "(lambda (lambda (+. $1 $0)))")));
}

TEST(LogoDomain, CorpusShape) {
  DomainSpec D = makeLogoDomain();
  checkDomainShape(D, 8);
  EXPECT_GE(D.TestTasks.size(), 3u);
}

TEST(LogoDomain, RendererIsDeterministicAndNonTrivial) {
  DomainSpec D = makeLogoDomain();
  ExprPtr Square = parseProgram(
      "(lambda (logo-for 4 (lambda (logo-move logo-ul "
      "(logo-div logo-ua 4) $0)) $0))");
  ASSERT_NE(Square, nullptr);
  ValuePtr Out = runProgram(Square, {initialTurtle()});
  ASSERT_NE(Out, nullptr);
  auto Cells = renderTurtle(Out);
  EXPECT_GT(Cells.size(), 10u);
  EXPECT_EQ(Cells, renderTurtle(runProgram(Square, {initialTurtle()})));
  EXPECT_EQ(ll(D, "square", Square->show()), 0.0);
  EXPECT_TRUE(std::isinf(ll(D, "triangle", Square->show())));
}

TEST(LogoDomain, RasterAgreesWithRenderedCells) {
  // LogoTask scores a program by comparing rasterizeTurtle's bitset with
  // its target's; the corpus, the featurizer and dreams read renderTurtle's
  // cell list. Both must mark the same cells, and every task must score a
  // program 0 exactly when its rendering equals the target cells: on every
  // corpus figure and on every program of one enumeration window.
  DomainSpec D = makeLogoDomain();
  std::vector<TaskPtr> Tasks = D.TrainTasks;
  Tasks.insert(Tasks.end(), D.TestTasks.begin(), D.TestTasks.end());
  long Checked = 0;
  std::string FirstMismatch;
  auto Check = [&](ExprPtr P) {
    ValuePtr Out = runProgram(P, {initialTurtle()});
    const std::vector<int> Cells = renderTurtle(Out);
    const TurtleRaster Raster = rasterizeTurtle(Out);
    bool Same = Raster.count() == Cells.size();
    for (int C : Cells)
      Same = Same && Raster.test(C);
    for (const TaskPtr &T : Tasks) {
      const auto &Logo = static_cast<const LogoTask &>(*T);
      const bool Match = Out && Cells == Logo.targetCells();
      Same = Same && (T->logLikelihood(P) == 0.0) == Match;
    }
    ++Checked;
    if (!Same && FirstMismatch.empty())
      FirstMismatch = P->show();
  };

  const std::vector<LogoFigure> Figures = logoCorpusFigures();
  ASSERT_EQ(Figures.size(), Tasks.size());
  for (const LogoFigure &Fig : Figures) {
    ExprPtr P = parseProgram(Fig.Source);
    ASSERT_NE(P, nullptr) << Fig.Name;
    Check(P);
    EXPECT_EQ(ll(D, Fig.Name, Fig.Source), 0.0) << Fig.Name;
  }
  long Nodes = 1000000;
  enumerateWindow(Grammar::uniform(D.BasePrimitives),
                  Type::arrow(tTurtle(), tTurtle()), 0, 13, Nodes,
                  [&](ExprPtr P, double) {
                    Check(P);
                    return true;
                  });
  EXPECT_GT(Checked, 1000);
  EXPECT_EQ(FirstMismatch, "");
}

TEST(TowerDomain, CorpusShape) {
  DomainSpec D = makeTowerDomain();
  checkDomainShape(D, 6);
}

TEST(TowerDomain, GravityStacksBlocks) {
  DomainSpec D = makeTowerDomain();
  ExprPtr Stack = parseProgram(
      "(lambda (tower-for 2 (lambda (tower-place-h $0)) $0))");
  ValuePtr Out = runProgram(Stack, {initialTower()});
  ASSERT_NE(Out, nullptr);
  auto R = renderTower(Out);
  // Two horizontal blocks at x=0: second rests at height 1.
  ASSERT_EQ(R.size(), 8u);
  EXPECT_EQ(R[3], 0); // first block bottom
  EXPECT_EQ(R[7], 1); // second block bottom
  EXPECT_EQ(ll(D, "stack-2", Stack->show()), 0.0);
}

TEST(RegexDomain, CorpusShape) {
  DomainSpec D = makeRegexDomain(6);
  checkDomainShape(D, 6);
}

TEST(RegexDomain, LikelihoodSemantics) {
  prims::functionalCore();
  DomainSpec D = makeRegexDomain(6);
  // d* matches digit strings with the expected geometric probability.
  ExprPtr Star = parseProgram("(r-kleene r-digit)");
  ASSERT_NE(Star, nullptr);
  double L2 = regexLogLikelihood(Star, "12");
  // P = 0.5(emit) * 0.1 * 0.5 * 0.1 * 0.5(stop).
  EXPECT_NEAR(L2, std::log(0.5 * 0.1 * 0.5 * 0.1 * 0.5), 1e-9);
  EXPECT_TRUE(std::isinf(regexLogLikelihood(Star, "a1")));
  // Concatenation with constants.
  ExprPtr Money = parseProgram("(r-concat r'$' (r-kleene r-digit))");
  ASSERT_NE(Money, nullptr);
  EXPECT_TRUE(std::isfinite(regexLogLikelihood(Money, "$42")));
  EXPECT_TRUE(std::isinf(regexLogLikelihood(Money, "42")));
  // Sampling round trip: samples of a regex score finitely under it.
  std::mt19937 Rng(4);
  for (int I = 0; I < 20; ++I) {
    auto S = sampleRegex(Money, Rng);
    ASSERT_TRUE(S.has_value());
    EXPECT_TRUE(std::isfinite(regexLogLikelihood(Money, *S))) << *S;
  }
}

TEST(RegressionDomain, ConstantFitting) {
  DomainSpec D = makeRegressionDomain(7);
  checkDomainShape(D, 10);
  // A linear template with REAL constants must fit every linear task.
  ExprPtr Linear = parseProgram("(lambda (+. (*. REAL $0) REAL))");
  ASSERT_NE(Linear, nullptr);
  int LinearTasks = 0, Fit = 0;
  for (const TaskPtr &T : D.TrainTasks) {
    if (T->name().rfind("linear", 0) != 0)
      continue;
    ++LinearTasks;
    if (T->logLikelihood(Linear) == 0.0)
      ++Fit;
  }
  EXPECT_GT(LinearTasks, 0);
  EXPECT_EQ(Fit, LinearTasks);
  // And must NOT fit quadratics.
  for (const TaskPtr &T : D.TrainTasks)
    if (T->name().rfind("quadratic", 0) == 0) {
      EXPECT_TRUE(std::isinf(T->logLikelihood(Linear))) << T->name();
      break;
    }
}

TEST(RegressionDomain, PlaceholderCounting) {
  makeRegressionDomain(7); // registers the REAL placeholder primitive
  EXPECT_EQ(countRealPlaceholders(parseProgram("(lambda (+. REAL REAL))")),
            2);
  EXPECT_EQ(countRealPlaceholders(parseProgram("(lambda $0)")), 0);
  auto V = evaluateWithConstants(
      parseProgram("(lambda (+. (*. REAL $0) REAL))"), 2.0, {3.0, 1.0});
  ASSERT_TRUE(V.has_value());
  EXPECT_NEAR(*V, 7.0, 1e-9);
}
