//===- domains/LogoDomain.cpp - LOGO turtle graphics ----------------------===//

#include "domains/LogoDomain.h"

#include "core/Primitives.h"
#include "core/ProgramParser.h"

#include <algorithm>
#include <cmath>

using namespace dc;

TypePtr dc::tTurtle() { return Type::constructor("turtle"); }

namespace {

constexpr double UnitLength = 8.0;
constexpr double FullTurn = 2.0 * 3.14159265358979323846;

ValuePtr wrapTurtle(std::shared_ptr<const TurtleState> S) {
  return Value::makeOpaque("turtle", std::move(S));
}

const TurtleState *unwrapTurtle(const ValuePtr &V) {
  if (!V || !V->isOpaque() || V->opaqueTag() != "turtle")
    return nullptr;
  return static_cast<const TurtleState *>(V->opaquePayload().get());
}

/// move(length, angle, turtle): draw `length` forward, then rotate by
/// `angle` — the paper's combined FWRT primitive.
ValuePtr logoMove(EvalState &, const std::vector<ValuePtr> &A) {
  const TurtleState *T = unwrapTurtle(A[2]);
  if (!T || (!A[0]->isReal() && !A[0]->isInt()) ||
      (!A[1]->isReal() && !A[1]->isInt()))
    return nullptr;
  double Len = A[0]->asReal();
  double Ang = A[1]->asReal();
  if (std::fabs(Len) > 1e4)
    return nullptr;
  auto Next = std::make_shared<TurtleState>(*T);
  double NX = T->X + Len * std::cos(T->Heading);
  double NY = T->Y + Len * std::sin(T->Heading);
  if (Len != 0.0)
    Next->Segments.push_back({T->X, T->Y, NX, NY});
  if (static_cast<long>(Next->Segments.size()) > 4096)
    return nullptr;
  Next->X = NX;
  Next->Y = NY;
  Next->Heading = std::fmod(T->Heading + Ang, FullTurn);
  return wrapTurtle(std::move(Next));
}

std::vector<ExprPtr> logoPrimitives() {
  std::vector<ExprPtr> Out;
  TypePtr TT = tTurtle();
  TypePtr Step = Type::arrow(TT, TT);

  Out.push_back(definePrimitive(
      "logo-move", Type::arrows({tReal(), tReal(), TT}, TT), logoMove));
  Out.push_back(realPrimitive("logo-ul", UnitLength)); // unit length
  Out.push_back(realPrimitive("logo-ua", FullTurn));   // unit angle 2π
  Out.push_back(realPrimitive("logo-za", 0.0));        // zero angle
  // length/angle arithmetic against integers (divide/multiply a unit).
  for (auto [Name, Op] :
       {std::pair<const char *, char>{"logo-div", '/'},
        std::pair<const char *, char>{"logo-mul", '*'}}) {
    char O = Op;
    Out.push_back(definePrimitive(
        Name, Type::arrows({tReal(), tInt()}, tReal()),
        [O](EvalState &, const std::vector<ValuePtr> &A) -> ValuePtr {
          if ((!A[0]->isReal() && !A[0]->isInt()) || !A[1]->isInt())
            return nullptr;
          long N = A[1]->asInt();
          if (O == '/' && N == 0)
            return nullptr;
          double R = O == '/' ? A[0]->asReal() / static_cast<double>(N)
                              : A[0]->asReal() * static_cast<double>(N);
          if (!std::isfinite(R))
            return nullptr;
          return Value::makeReal(R);
        }));
  }
  // Bounded iteration: (logo-for n body turtle).
  Out.push_back(definePrimitive(
      "logo-for", Type::arrows({tInt(), Step, TT}, TT),
      [](EvalState &S, const std::vector<ValuePtr> &A) -> ValuePtr {
        if (!A[0]->isInt() || !A[1]->isCallable())
          return nullptr;
        long N = A[0]->asInt();
        if (N < 0 || N > 64)
          return nullptr;
        ValuePtr T = A[2];
        for (long I = 0; I < N; ++I) {
          T = applyValue(A[1], T, S);
          if (!T)
            return nullptr;
        }
        return T;
      }));
  // Embed: run a sub-drawing, then restore position and heading.
  Out.push_back(definePrimitive(
      "logo-embed", Type::arrows({Step, TT}, TT),
      [](EvalState &S, const std::vector<ValuePtr> &A) -> ValuePtr {
        const TurtleState *T = unwrapTurtle(A[1]);
        if (!T || !A[0]->isCallable())
          return nullptr;
        ValuePtr Inner = applyValue(A[0], A[1], S);
        const TurtleState *TI = unwrapTurtle(Inner);
        if (!TI)
          return nullptr;
        auto Next = std::make_shared<TurtleState>(*TI);
        Next->X = T->X;
        Next->Y = T->Y;
        Next->Heading = T->Heading;
        return wrapTurtle(std::move(Next));
      }));
  for (long N : {2, 3, 4, 5, 6, 7, 8})
    Out.push_back(intPrimitive(N));
  Out.push_back(intPrimitive(1));
  return Out;
}

} // namespace

ValuePtr dc::initialTurtle() {
  return wrapTurtle(std::make_shared<TurtleState>());
}

std::vector<int> dc::renderTurtle(const ValuePtr &Turtle, int Size) {
  const TurtleState *T = unwrapTurtle(Turtle);
  std::vector<int> Cells;
  if (!T)
    return Cells;
  // Center the canvas at the start position; 2 pixels per cell.
  const double Scale = 1.0;
  const double Offset = Size / 2.0;
  std::vector<char> Grid(Size * Size, 0);
  for (const TurtleState::Segment &S : T->Segments) {
    double Len = std::hypot(S.X1 - S.X0, S.Y1 - S.Y0);
    int Steps = std::max(2, static_cast<int>(Len * 2));
    for (int I = 0; I <= Steps; ++I) {
      double U = static_cast<double>(I) / Steps;
      double X = (S.X0 + U * (S.X1 - S.X0)) * Scale + Offset;
      double Y = (S.Y0 + U * (S.Y1 - S.Y0)) * Scale + Offset;
      int CX = static_cast<int>(std::floor(X));
      int CY = static_cast<int>(std::floor(Y));
      if (CX >= 0 && CX < Size && CY >= 0 && CY < Size)
        Grid[CY * Size + CX] = 1;
    }
  }
  for (int I = 0; I < Size * Size; ++I)
    if (Grid[I])
      Cells.push_back(I);
  return Cells;
}

LogoTask::LogoTask(std::string Name, std::vector<int> TargetCells)
    : Task(std::move(Name), Type::arrow(tTurtle(), tTurtle()), {}),
      Cells(std::move(TargetCells)) {
  // Store the target as the observation, so featurizers and the dream
  // machinery see the image.
  std::vector<ValuePtr> CellValues;
  for (int C : Cells)
    CellValues.push_back(Value::makeInt(C));
  Examples.push_back({{initialTurtle()}, Value::makeList(CellValues)});
}

double LogoTask::logLikelihood(ExprPtr Program) const {
  ValuePtr Out = runProgram(Program, {initialTurtle()}, StepBudget);
  if (!Out)
    return -std::numeric_limits<double>::infinity();
  std::vector<int> Got = renderTurtle(Out);
  return Got == Cells ? 0.0
                      : -std::numeric_limits<double>::infinity();
}

std::vector<float> LogoFeaturizer::featurize(const Task &T) const {
  std::vector<float> F(16 * 16, 0.0f);
  if (T.examples().empty() || !T.examples()[0].Output ||
      !T.examples()[0].Output->isList())
    return F;
  for (const ValuePtr &V : T.examples()[0].Output->asList()) {
    if (!V->isInt())
      continue;
    int Cell = static_cast<int>(V->asInt());
    int X = (Cell % 32) / 2;
    int Y = (Cell / 32) / 2;
    if (X >= 0 && X < 16 && Y >= 0 && Y < 16)
      F[Y * 16 + X] = 1.0f;
  }
  return F;
}

DomainSpec dc::makeLogoDomain(unsigned Seed) {
  (void)Seed; // the corpus is deterministic ground-truth programs
  DomainSpec D;
  D.Name = "logo";
  D.BasePrimitives = logoPrimitives();
  D.Featurizer = std::make_shared<LogoFeaturizer>();
  D.Search.InitialBudget = 8.0;
  D.Search.BudgetStep = 1.5;
  D.Search.MaxBudget = 14.0;
  D.Search.NodeBudget = 250000;
  D.Search.ExtraWindowsAfterSolution = 1;

  // Dreamed programs become image-matching tasks.
  D.Hook = [](ExprPtr Program, const TaskPtr &Seed2,
              std::mt19937 &) -> TaskPtr {
    ValuePtr Out = runProgram(Program, {initialTurtle()},
                              Seed2->stepBudget());
    if (!Out)
      return nullptr;
    std::vector<int> Cells = renderTurtle(Out);
    if (Cells.empty() || Cells.size() > 600)
      return nullptr;
    std::string Sig = "logo";
    for (int C : Cells) {
      Sig += ':';
      Sig += std::to_string(C);
    }
    return std::make_shared<LogoTask>("fantasy-" + Sig, std::move(Cells));
  };

  // Ground-truth corpus: program sources drawn with the same primitives.
  struct Figure {
    const char *Name;
    std::string Source;
  };
  auto Polygon = [](int N) {
    return "(lambda (logo-for " + std::to_string(N) +
           " (lambda (logo-move logo-ul (logo-div logo-ua " +
           std::to_string(N) + ") $0)) $0))";
  };
  auto PolygonScaled = [](int N, int K) {
    return "(lambda (logo-for " + std::to_string(N) +
           " (lambda (logo-move (logo-div logo-ul " + std::to_string(K) +
           ") (logo-div logo-ua " + std::to_string(N) + ") $0)) $0))";
  };
  std::vector<Figure> Figures = {
      {"line", "(lambda (logo-move logo-ul logo-za $0))"},
      {"short-line",
       "(lambda (logo-move (logo-div logo-ul 2) logo-za $0))"},
      {"long-line", "(lambda (logo-move (logo-mul logo-ul 2) logo-za $0))"},
      {"longer-line",
       "(lambda (logo-move (logo-mul logo-ul 3) logo-za $0))"},
      {"double-line",
       "(lambda (logo-move logo-ul logo-za "
       "(logo-move logo-ul logo-za $0)))"},
      {"corner",
       "(lambda (logo-move (logo-div logo-ul 2) (logo-div logo-ua 4) "
       "(logo-move (logo-div logo-ul 2) logo-za $0)))"},
      {"triangle", Polygon(3)},
      {"square", Polygon(4)},
      {"pentagon", Polygon(5)},
      {"hexagon", Polygon(6)},
      {"octagon", Polygon(8)},
      {"small-triangle", PolygonScaled(3, 2)},
      {"small-square", PolygonScaled(4, 2)},
      {"small-hexagon", PolygonScaled(6, 2)},
      {"right-angle",
       "(lambda (logo-move logo-ul (logo-div logo-ua 4) "
       "(logo-move logo-ul logo-za $0)))"},
      {"zigzag",
       "(lambda (logo-for 3 (lambda (logo-move logo-ul "
       "(logo-div logo-ua 4) (logo-move logo-ul "
       "(logo-div (logo-mul logo-ua 3) 4) $0))) $0))"},
      {"square-pair",
       "(lambda (logo-embed (lambda (logo-for 4 (lambda (logo-move "
       "logo-ul (logo-div logo-ua 4) $0)) $0)) "
       "(logo-move logo-ul logo-za $0)))"},
      {"triangle-then-line",
       "(lambda (logo-move logo-ul logo-za (logo-embed (lambda "
       "(logo-for 3 (lambda (logo-move logo-ul (logo-div logo-ua 3) $0)) "
       "$0)) $0)))"},
  };

  int Index = 0;
  for (const Figure &Fig : Figures) {
    std::string Err;
    ExprPtr P = parseProgram(Fig.Source, &Err);
    assert(P && "logo ground-truth program failed to parse");
    ValuePtr Out = runProgram(P, {initialTurtle()});
    assert(Out && "logo ground-truth program failed to run");
    auto T = std::make_shared<LogoTask>(Fig.Name, renderTurtle(Out));
    if (Index++ % 3 == 2)
      D.TestTasks.push_back(T);
    else
      D.TrainTasks.push_back(T);
  }
  return D;
}
