//===- domains/TowerDomain.cpp - Block-tower planning ---------------------===//

#include "domains/TowerDomain.h"

#include "core/Primitives.h"
#include "core/ProgramParser.h"

#include <algorithm>
#include <cstdio>

using namespace dc;

TypePtr dc::tTower() { return Type::constructor("tower"); }

namespace {

ValuePtr wrapPlan(std::shared_ptr<const TowerPlan> P) {
  return Value::makeOpaque("tower", std::move(P));
}

const TowerPlan *unwrapPlan(const ValuePtr &V) {
  if (!V || !V->isOpaque() || V->opaqueTag() != "tower")
    return nullptr;
  return static_cast<const TowerPlan *>(V->opaquePayload().get());
}

ValuePtr moveHand(const ValuePtr &V, long Delta) {
  const TowerPlan *P = unwrapPlan(V);
  if (!P)
    return nullptr;
  auto Next = std::make_shared<TowerPlan>(*P);
  Next->Hand += static_cast<int>(Delta);
  if (Next->Hand < -64 || Next->Hand > 64)
    return nullptr;
  return wrapPlan(std::move(Next));
}

ValuePtr placeBlock(const ValuePtr &V, int Width, int Height) {
  const TowerPlan *P = unwrapPlan(V);
  if (!P)
    return nullptr;
  auto Next = std::make_shared<TowerPlan>(*P);
  if (Next->Blocks.size() > 256)
    return nullptr;
  Next->Blocks.push_back({P->Hand, Width, Height});
  return wrapPlan(std::move(Next));
}

std::vector<ExprPtr> towerPrimitives() {
  std::vector<ExprPtr> Out;
  TypePtr TT = tTower();
  TypePtr Step = Type::arrow(TT, TT);

  Out.push_back(definePrimitive(
      "tower-right", Type::arrows({tInt(), TT}, TT),
      [](EvalState &, const std::vector<ValuePtr> &A) -> ValuePtr {
        if (!A[0]->isInt())
          return nullptr;
        return moveHand(A[1], A[0]->asInt());
      }));
  Out.push_back(definePrimitive(
      "tower-left", Type::arrows({tInt(), TT}, TT),
      [](EvalState &, const std::vector<ValuePtr> &A) -> ValuePtr {
        if (!A[0]->isInt())
          return nullptr;
        return moveHand(A[1], -A[0]->asInt());
      }));
  Out.push_back(definePrimitive(
      "tower-place-h", Type::arrows({TT}, TT),
      [](EvalState &, const std::vector<ValuePtr> &A) -> ValuePtr {
        return placeBlock(A[0], 3, 1);
      }));
  Out.push_back(definePrimitive(
      "tower-place-v", Type::arrows({TT}, TT),
      [](EvalState &, const std::vector<ValuePtr> &A) -> ValuePtr {
        return placeBlock(A[0], 1, 3);
      }));
  Out.push_back(definePrimitive(
      "tower-for", Type::arrows({tInt(), Step, TT}, TT),
      [](EvalState &S, const std::vector<ValuePtr> &A) -> ValuePtr {
        if (!A[0]->isInt() || !A[1]->isCallable())
          return nullptr;
        long N = A[0]->asInt();
        if (N < 0 || N > 32)
          return nullptr;
        ValuePtr T = A[2];
        for (long I = 0; I < N; ++I) {
          T = applyValue(A[1], T, S);
          if (!T)
            return nullptr;
        }
        return T;
      }));
  Out.push_back(definePrimitive(
      "tower-embed", Type::arrows({Step, TT}, TT),
      [](EvalState &S, const std::vector<ValuePtr> &A) -> ValuePtr {
        const TowerPlan *P = unwrapPlan(A[1]);
        if (!P || !A[0]->isCallable())
          return nullptr;
        ValuePtr Inner = applyValue(A[0], A[1], S);
        const TowerPlan *PI = unwrapPlan(Inner);
        if (!PI)
          return nullptr;
        auto Next = std::make_shared<TowerPlan>(*PI);
        Next->Hand = P->Hand;
        return wrapPlan(std::move(Next));
      }));
  for (long N : {1, 2, 3, 4, 5, 6})
    Out.push_back(intPrimitive(N));
  return Out;
}

} // namespace

ValuePtr dc::initialTower() {
  return wrapPlan(std::make_shared<TowerPlan>());
}

std::vector<int> dc::renderTower(const ValuePtr &Plan) {
  const TowerPlan *P = unwrapPlan(Plan);
  std::vector<int> Out;
  if (!P)
    return Out;
  // Gravity: each block rests on the highest block it overlaps.
  struct Placed {
    Block B;
    int Bottom;
  };
  std::vector<Placed> Placed;
  for (const Block &B : P->Blocks) {
    int Bottom = 0;
    for (const auto &Q : Placed) {
      bool Overlap = B.X < Q.B.X + Q.B.Width && Q.B.X < B.X + B.Width;
      if (Overlap)
        Bottom = std::max(Bottom, Q.Bottom + Q.B.Height);
    }
    Placed.push_back({B, Bottom});
  }
  std::vector<std::array<int, 4>> Tuples;
  for (const auto &Q : Placed)
    Tuples.push_back({Q.B.X, Q.B.Width, Q.B.Height, Q.Bottom});
  std::sort(Tuples.begin(), Tuples.end());
  for (const auto &T : Tuples)
    for (int V : T)
      Out.push_back(V);
  return Out;
}

TowerTask::TowerTask(std::string Name, std::vector<int> TargetTower)
    : Task(std::move(Name), Type::arrow(tTower(), tTower()), {}),
      Target(std::move(TargetTower)) {
  std::vector<ValuePtr> Cells;
  for (int C : Target)
    Cells.push_back(Value::makeInt(C));
  Examples.push_back({{initialTower()}, Value::makeList(Cells)});
}

double TowerTask::logLikelihood(ExprPtr Program) const {
  ValuePtr Out = runProgram(Program, {initialTower()}, StepBudget);
  if (!Out)
    return -std::numeric_limits<double>::infinity();
  return renderTower(Out) == Target
             ? 0.0
             : -std::numeric_limits<double>::infinity();
}

DomainSpec dc::makeTowerDomain(unsigned Seed) {
  (void)Seed;
  DomainSpec D;
  D.Name = "tower";
  D.BasePrimitives = towerPrimitives();
  D.Featurizer = std::make_shared<IoFeaturizer>();
  D.Search.InitialBudget = 8.0;
  D.Search.BudgetStep = 1.5;
  D.Search.MaxBudget = 14.0;
  D.Search.NodeBudget = 250000;
  D.Search.ExtraWindowsAfterSolution = 1;

  D.Hook = [](ExprPtr Program, const TaskPtr &Seed2,
              std::mt19937 &) -> TaskPtr {
    ValuePtr Out = runProgram(Program, {initialTower()},
                              Seed2->stepBudget());
    if (!Out)
      return nullptr;
    std::vector<int> T = renderTower(Out);
    if (T.empty() || T.size() > 200)
      return nullptr;
    std::string Sig = "tower";
    for (int C : T) {
      Sig += ':';
      Sig += std::to_string(C);
    }
    return std::make_shared<TowerTask>("fantasy-" + Sig, std::move(T));
  };

  struct Figure {
    const char *Name;
    std::string Source;
  };
  std::vector<Figure> Figures = {
      {"single-horizontal", "(lambda (tower-place-h $0))"},
      {"single-vertical", "(lambda (tower-place-v $0))"},
      {"stack-2", "(lambda (tower-for 2 (lambda (tower-place-h $0)) $0))"},
      {"stack-3", "(lambda (tower-for 3 (lambda (tower-place-h $0)) $0))"},
      {"stack-5", "(lambda (tower-for 5 (lambda (tower-place-h $0)) $0))"},
      {"row-3",
       "(lambda (tower-for 3 (lambda (tower-right 3 (tower-place-h $0))) "
       "$0))"},
      {"columns-2",
       "(lambda (tower-for 2 (lambda (tower-right 2 (tower-place-v $0))) "
       "$0))"},
      {"columns-4",
       "(lambda (tower-for 4 (lambda (tower-right 2 (tower-place-v $0))) "
       "$0))"},
      {"arch",
       "(lambda (tower-place-h (tower-left 2 (tower-place-v "
       "(tower-right 2 (tower-place-v $0))))))"},
      {"arch-row",
       "(lambda (tower-for 2 (lambda (tower-right 4 (tower-place-h "
       "(tower-left 2 (tower-place-v (tower-right 2 "
       "(tower-place-v $0))))))) $0))"},
      {"wall-2x2",
       "(lambda (tower-for 2 (lambda (tower-embed (lambda (tower-for 2 "
       "(lambda (tower-right 3 (tower-place-h $0))) $0)) $0)) $0))"},
      {"tall-tower",
       "(lambda (tower-for 4 (lambda (tower-place-v $0)) $0))"},
  };

  int Index = 0;
  for (const Figure &Fig : Figures) {
    std::string Err;
    ExprPtr P = parseProgram(Fig.Source, &Err);
    if (!P) {
      std::fprintf(stderr, "tower corpus: %s: %s\n", Fig.Name, Err.c_str());
      continue;
    }
    ValuePtr Out = runProgram(P, {initialTower()});
    if (!Out)
      continue;
    auto T = std::make_shared<TowerTask>(Fig.Name, renderTower(Out));
    if (Index++ % 3 == 2)
      D.TestTasks.push_back(T);
    else
      D.TrainTasks.push_back(T);
  }
  return D;
}
