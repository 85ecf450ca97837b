//===- core/Grammar.cpp - Probabilistic grammars over programs ------------===//

#include "core/Grammar.h"
#include "core/LikelihoodSummary.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

using namespace dc;

namespace {

constexpr double NegInf = -std::numeric_limits<double>::infinity();

double logSumExp(const std::vector<double> &Xs) {
  double M = NegInf;
  for (double X : Xs)
    M = std::max(M, X);
  if (M == NegInf)
    return NegInf;
  double S = 0;
  for (double X : Xs)
    S += std::exp(X - M);
  return M + std::log(S);
}

} // namespace

Grammar Grammar::uniform(const std::vector<ExprPtr> &Prims,
                         double LogVariable) {
  Grammar G;
  G.LogVar = LogVariable;
  for (ExprPtr P : Prims)
    G.addProduction(P);
  return G;
}

int Grammar::productionIndex(ExprPtr P) const {
  for (size_t I = 0; I < Prods.size(); ++I)
    if (Prods[I].Program == P)
      return static_cast<int>(I);
  return -1;
}

int Grammar::addProduction(ExprPtr P) {
  int Existing = productionIndex(P);
  if (Existing >= 0)
    return Existing;
  assert(P->isLeafLike() && "grammar productions are primitives/inventions");
  TypePtr Ret = functionReturn(P->declaredType());
  Prods.push_back({P, P->declaredType(), 0.0,
                   Ret->isConstructor() ? Ret->head() : nullptr});
  return static_cast<int>(Prods.size()) - 1;
}

int Grammar::inventionCount() const {
  int N = 0;
  for (const Production &P : Prods)
    if (P.Program->isInvented())
      ++N;
  return N;
}

int Grammar::libraryDepth() const {
  int D = 0;
  for (const Production &P : Prods)
    if (P.Program->isInvented())
      D = std::max(D, P.Program->inventionDepth());
  return D;
}

int Grammar::structureSize() const {
  int S = 0;
  for (const Production &P : Prods)
    if (P.Program->isInvented())
      S += P.Program->body()->size();
  return S;
}

std::vector<GrammarCandidate>
Grammar::candidates(int /*ParentIdx*/, int /*ArgIdx*/, const TypePtr &Request,
                    const std::vector<TypePtr> &Environment,
                    const TypeContext &Ctx) const {
  return holeCandidates(Prods, nullptr, LogVar, Request, Environment, Ctx);
}

std::vector<GrammarCandidate>
dc::holeCandidates(const std::vector<Production> &Prods, const double *Row,
                   double LogVariable, const TypePtr &Request,
                   const std::vector<TypePtr> &Environment,
                   const TypeContext &Ctx) {
  std::vector<GrammarCandidate> Out;

  // Library productions whose (full-arity) return type unifies with the
  // request.
  TypeName RequestHead = Request->isConstructor() ? Request->head() : nullptr;
  for (size_t I = 0; I < Prods.size(); ++I) {
    // Cheap rejection: a concrete return head can only unify with the same
    // concrete request head.
    if (RequestHead && Prods[I].ReturnHead &&
        Prods[I].ReturnHead != RequestHead)
      continue;
    TypeContext Local = Ctx;
    TypePtr Inst = Local.instantiate(Prods[I].Ty);
    if (!Local.unify(functionReturn(Inst), Request))
      continue;
    // Inst is stored unapplied; consumers resolve argument types lazily
    // through the candidate's context.
    Out.push_back({Prods[I].Program, Row ? Row[I] : Prods[I].LogWeight,
                   std::move(Inst), std::move(Local), static_cast<int>(I)});
  }

  // In-scope variables. Each matching variable splits the variable mass.
  std::vector<GrammarCandidate> Vars;
  for (size_t I = 0; I < Environment.size(); ++I) {
    // Environment is ordered outermost-first; de Bruijn $0 is innermost.
    int DeBruijn = static_cast<int>(Environment.size() - 1 - I);
    TypeContext Local = Ctx;
    TypePtr VarTy = Local.apply(Environment[I]);
    if (!Local.unify(functionReturn(VarTy), Request))
      continue;
    Vars.push_back({Expr::index(DeBruijn), LogVariable, Local.apply(VarTy),
                    std::move(Local), -1});
  }
  if (!Vars.empty()) {
    double Split = std::log(static_cast<double>(Vars.size()));
    for (GrammarCandidate &V : Vars) {
      V.LogProb -= Split;
      Out.push_back(std::move(V));
    }
  }

  if (Out.empty())
    return Out;

  // Normalize.
  std::vector<double> Raw;
  Raw.reserve(Out.size());
  for (const GrammarCandidate &C : Out)
    Raw.push_back(C.LogProb);
  double Z = logSumExp(Raw);
  for (GrammarCandidate &C : Out)
    C.LogProb -= Z;
  return Out;
}

//===----------------------------------------------------------------------===//
// Decision replay (shared by likelihood, summaries, and bigram training)
//===----------------------------------------------------------------------===//

namespace {

bool walkImpl(const EnumerationSource &Src, TypePtr Request, TypeContext Ctx,
              std::vector<TypePtr> &Env, ExprPtr E, int ParentIdx, int ArgIdx,
              const DecisionCallback &OnDecision, int Depth) {
  if (Depth > 256)
    return false;
  Request = Ctx.resolve(Request);

  if (Request->isArrow()) {
    if (E->isAbstraction()) {
      Env.push_back(Request->arrowArgument());
      bool Ok = walkImpl(Src, Request->arrowResult(), std::move(Ctx), Env,
                         E->body(), ParentIdx, ArgIdx, OnDecision, Depth + 1);
      Env.pop_back();
      return Ok;
    }
    // Eta-expand on the fly: E ≡ (λ (E↑ $0)).
    ExprPtr Shifted = E->shift(1);
    if (!Shifted)
      return false;
    ExprPtr Expanded = Expr::application(Shifted, Expr::index(0));
    Env.push_back(Request->arrowArgument());
    bool Ok = walkImpl(Src, Request->arrowResult(), std::move(Ctx), Env,
                       Expanded, ParentIdx, ArgIdx, OnDecision, Depth + 1);
    Env.pop_back();
    return Ok;
  }

  auto [Head, Args] = applicationSpine(E);
  if (Head->isAbstraction())
    return false; // β-redexes are outside the grammar's support

  std::vector<GrammarCandidate> Cands =
      Src.candidates(ParentIdx, ArgIdx, Request, Env, Ctx);
  int ChosenAt = -1;
  for (size_t I = 0; I < Cands.size(); ++I)
    if (Cands[I].Leaf == Head) {
      ChosenAt = static_cast<int>(I);
      break;
    }
  if (ChosenAt < 0)
    return false;
  const GrammarCandidate &Chosen = Cands[ChosenAt];

  std::vector<TypePtr> ArgTypes = functionArguments(Chosen.Ty);
  if (ArgTypes.size() != Args.size())
    return false; // arity mismatch (over-application of a polymorphic head)

  OnDecision(ParentIdx, ArgIdx, Chosen, Cands);

  int ChildParent = Chosen.ProductionIdx >= 0 ? Chosen.ProductionIdx
                                              : ParentVariable;
  TypeContext Next = Chosen.Ctx;
  for (size_t I = 0; I < Args.size(); ++I)
    if (!walkImpl(Src, ArgTypes[I], Next, Env, Args[I], ChildParent,
                  static_cast<int>(I), OnDecision, Depth + 1))
      return false;
  return true;
}

} // namespace

bool dc::walkProgramDecisions(const EnumerationSource &Src,
                              const TypePtr &Request, ExprPtr Program,
                              const DecisionCallback &OnDecision) {
  TypeContext Ctx;
  std::vector<TypePtr> Env;
  TypePtr Req = Ctx.instantiate(Request);
  return walkImpl(Src, Req, std::move(Ctx), Env, Program, ParentStart, 0,
                  OnDecision, 0);
}

double Grammar::logLikelihood(const TypePtr &Request, ExprPtr Program) const {
  double Total = 0;
  bool Ok = walkProgramDecisions(
      *this, Request, Program,
      [&](int, int, const GrammarCandidate &Chosen,
          const std::vector<GrammarCandidate> &) { Total += Chosen.LogProb; });
  return Ok ? Total : NegInf;
}

//===----------------------------------------------------------------------===//
// Sampling
//===----------------------------------------------------------------------===//

namespace {

ExprPtr sampleImpl(const EnumerationSource &Src, TypePtr Request,
                   TypeContext &Ctx, std::vector<TypePtr> &Env, int ParentIdx,
                   int ArgIdx, std::mt19937 &Rng, int DepthLeft) {
  if (DepthLeft <= 0)
    return nullptr;
  Request = Ctx.resolve(Request);

  if (Request->isArrow()) {
    Env.push_back(Request->arrowArgument());
    ExprPtr Body = sampleImpl(Src, Request->arrowResult(), Ctx, Env, ParentIdx,
                              ArgIdx, Rng, DepthLeft - 1);
    Env.pop_back();
    return Body ? Expr::abstraction(Body) : nullptr;
  }

  std::vector<GrammarCandidate> Cands =
      Src.candidates(ParentIdx, ArgIdx, Request, Env, Ctx);
  if (Cands.empty())
    return nullptr;
  std::vector<double> Probs;
  Probs.reserve(Cands.size());
  for (const GrammarCandidate &C : Cands)
    Probs.push_back(std::exp(C.LogProb));
  std::discrete_distribution<int> Dist(Probs.begin(), Probs.end());
  const GrammarCandidate &Chosen = Cands[Dist(Rng)];

  Ctx = Chosen.Ctx;
  int ChildParent =
      Chosen.ProductionIdx >= 0 ? Chosen.ProductionIdx : ParentVariable;
  ExprPtr Out = Chosen.Leaf;
  std::vector<TypePtr> ArgTypes = functionArguments(Chosen.Ty);
  for (size_t I = 0; I < ArgTypes.size(); ++I) {
    ExprPtr Arg = sampleImpl(Src, ArgTypes[I], Ctx, Env, ChildParent,
                             static_cast<int>(I), Rng, DepthLeft - 1);
    if (!Arg)
      return nullptr;
    Out = Expr::application(Out, Arg);
  }
  return Out;
}

} // namespace

ExprPtr dc::sampleFromSource(const EnumerationSource &Src,
                             const TypePtr &Request, std::mt19937 &Rng,
                             int MaxDepth) {
  TypeContext Ctx;
  std::vector<TypePtr> Env;
  TypePtr Req = Ctx.instantiate(Request);
  return sampleImpl(Src, Req, Ctx, Env, ParentStart, 0, Rng, MaxDepth);
}

ExprPtr Grammar::sample(const TypePtr &Request, std::mt19937 &Rng,
                        int MaxDepth) const {
  return sampleFromSource(*this, Request, Rng, MaxDepth);
}

std::string Grammar::show() const {
  std::ostringstream OS;
  OS << "logVariable = " << LogVar << "\n";
  for (const Production &P : Prods)
    OS << P.LogWeight << "\t" << P.Ty->show() << "\t" << P.Program->show()
       << "\n";
  return OS.str();
}
