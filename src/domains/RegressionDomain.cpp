//===- domains/RegressionDomain.cpp - Symbolic regression -----------------===//

#include "domains/RegressionDomain.h"

#include "core/Primitives.h"

#include <cmath>

using namespace dc;

int dc::countRealPlaceholders(ExprPtr Program) {
  switch (Program->kind()) {
  case ExprKind::Index:
    return 0;
  case ExprKind::Primitive:
    return Program->special() == SpecialPrimitive::Real ? 1 : 0;
  case ExprKind::Invented:
    return countRealPlaceholders(Program->body());
  case ExprKind::Abstraction:
    return countRealPlaceholders(Program->body());
  case ExprKind::Application:
    return countRealPlaceholders(Program->fn()) +
           countRealPlaceholders(Program->arg());
  }
  return 0;
}

std::optional<double>
dc::evaluateWithConstants(ExprPtr Program, double X,
                          const std::vector<double> &Consts) {
  EvalState State(20000);
  State.setConstantTape(&Consts);
  ValuePtr F = evaluate(Program, nullptr, State);
  if (!F || State.failed())
    return std::nullopt;
  ValuePtr Y = applyValue(F, Value::makeReal(X), State);
  if (!Y || State.failed() || (!Y->isReal() && !Y->isInt()))
    return std::nullopt;
  double V = Y->asReal();
  if (!std::isfinite(V))
    return std::nullopt;
  return V;
}

namespace {

/// Mean squared error of \p Program with constants \p C over \p Points;
/// infinity on any evaluation failure.
double mse(ExprPtr Program, const std::vector<double> &C,
           const std::vector<std::pair<double, double>> &Points) {
  double Total = 0;
  for (const auto &[X, Y] : Points) {
    auto V = evaluateWithConstants(Program, X, C);
    if (!V)
      return std::numeric_limits<double>::infinity();
    double E = *V - Y;
    Total += E * E;
  }
  return Total / static_cast<double>(Points.size());
}

/// The inner loop of the paper: fit REAL constants by gradient descent
/// (finite differences), with a couple of random restarts.
double fitConstants(ExprPtr Program, int NumConstants,
                    const std::vector<std::pair<double, double>> &Points,
                    std::vector<double> &BestC) {
  std::mt19937 Rng(12345);
  std::normal_distribution<double> Init(0.0, 1.5);
  double BestMse = std::numeric_limits<double>::infinity();
  for (int Restart = 0; Restart < 2; ++Restart) {
    std::vector<double> C(NumConstants);
    for (double &V : C)
      V = Init(Rng);
    double Cur = mse(Program, C, Points);
    if (!std::isfinite(Cur))
      continue;
    double Lr = 0.2;
    for (int Iter = 0; Iter < 60; ++Iter) {
      std::vector<double> Grad(NumConstants, 0.0);
      const double H = 1e-4;
      bool Ok = true;
      for (int K = 0; K < NumConstants; ++K) {
        std::vector<double> CH = C;
        CH[K] += H;
        double MH = mse(Program, CH, Points);
        if (!std::isfinite(MH)) {
          Ok = false;
          break;
        }
        Grad[K] = (MH - Cur) / H;
      }
      if (!Ok)
        break;
      std::vector<double> Next = C;
      for (int K = 0; K < NumConstants; ++K)
        Next[K] -= Lr * Grad[K];
      double NextMse = mse(Program, Next, Points);
      if (std::isfinite(NextMse) && NextMse < Cur) {
        C = std::move(Next);
        Cur = NextMse;
        Lr *= 1.2;
      } else {
        Lr *= 0.5;
        if (Lr < 1e-5)
          break;
      }
    }
    if (Cur < BestMse) {
      BestMse = Cur;
      BestC = C;
    }
  }
  return BestMse;
}

} // namespace

RegressionTask::RegressionTask(
    std::string Name, std::vector<std::pair<double, double>> Pts)
    : Task(std::move(Name), Type::arrow(tReal(), tReal()), {}),
      Points(std::move(Pts)) {
  for (const auto &[X, Y] : Points)
    Examples.push_back({{Value::makeReal(X)}, Value::makeReal(Y)});
}

double RegressionTask::logLikelihood(ExprPtr Program) const {
  int N = countRealPlaceholders(Program);
  if (N > 4)
    return -std::numeric_limits<double>::infinity();
  double Mse;
  std::vector<double> Fitted;
  if (N == 0)
    Mse = mse(Program, {}, Points);
  else
    Mse = fitConstants(Program, N, Points, Fitted);
  {
    // Fit into a local first: concurrent wake-phase workers may score this
    // task at the same time, and the lock covers only the store.
    std::lock_guard<std::mutex> Lock(ConstantsMutex);
    LastConstants = std::move(Fitted);
  }
  // Tight numerical fit, as in the paper's tolerance-based likelihood.
  return std::isfinite(Mse) && Mse < 1e-3
             ? 0.0
             : -std::numeric_limits<double>::infinity();
}

DomainSpec dc::makeRegressionDomain(unsigned Seed) {
  DomainSpec D;
  D.Name = "regression";
  D.BasePrimitives = prims::realArithmetic();
  // Strip helpers not in the paper's regression basis; add REAL.
  std::vector<ExprPtr> Base;
  for (ExprPtr P : D.BasePrimitives) {
    const std::string &N = P->name();
    if (N == "+." || N == "-." || N == "*." || N == "/.")
      Base.push_back(P);
  }
  Base.push_back(definePrimitive("REAL", tReal(), Value::makeReal(0.0)));
  D.BasePrimitives = std::move(Base);
  D.Featurizer = std::make_shared<IoFeaturizer>();
  // Constant fitting makes each likelihood evaluation expensive; budget
  // accordingly (the paper ran these tasks with large timeouts).
  D.Search.InitialBudget = 7.0;
  D.Search.BudgetStep = 1.5;
  D.Search.MaxBudget = 11.5;
  D.Search.NodeBudget = 60000;

  std::mt19937 Rng(Seed);
  std::uniform_real_distribution<double> Coef(-2.0, 2.0);
  auto Sample = [&](const std::function<double(double)> &F) {
    std::vector<std::pair<double, double>> Points;
    for (double X : {-2.0, -1.2, -0.4, 0.4, 1.2, 2.0})
      Points.push_back({X, F(X)});
    return Points;
  };

  int Index = 0;
  auto Add = [&](const std::string &Name,
                 const std::function<double(double)> &F) {
    auto T = std::make_shared<RegressionTask>(Name, Sample(F));
    if (Index++ % 3 == 2)
      D.TestTasks.push_back(T);
    else
      D.TrainTasks.push_back(T);
  };

  for (int K = 0; K < 4; ++K) {
    double A = Coef(Rng), B = Coef(Rng), C = Coef(Rng), E = Coef(Rng);
    Add("constant-" + std::to_string(K), [A](double) { return A; });
    Add("linear-" + std::to_string(K),
        [A, B](double X) { return A * X + B; });
    Add("quadratic-" + std::to_string(K),
        [A, B, C](double X) { return A * X * X + B * X + C; });
    Add("cubic-" + std::to_string(K), [A, B, C, E](double X) {
      return A * X * X * X + B * X * X + C * X + E;
    });
    Add("rational-" + std::to_string(K), [A, B](double X) {
      return A / (X + 3.0) + B; // pole outside the sample range
    });
  }
  return D;
}
