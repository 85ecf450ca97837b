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

/// log Σ exp(LogProb) over \p Cands, in order.
double logSumExp(std::span<const GrammarCandidate> Cands) {
  double M = NegInf;
  for (const GrammarCandidate &C : Cands)
    M = std::max(M, C.LogProb);
  if (M == NegInf)
    return NegInf;
  double S = 0;
  for (const GrammarCandidate &C : Cands)
    S += std::exp(C.LogProb - M);
  return M + std::log(S);
}

/// Binds the choice of \p Declared at \p Request on \p Ctx: a production's
/// type is instantiated, a variable's resolved, and its return type is
/// unified with the request. Returns the bound type, or null (with some of
/// the attempt's bindings left on \p Ctx) when the return type does not
/// unify.
TypePtr unifyChoice(TypePtr Declared, bool IsVariable, TypePtr Request,
                    TypeContext &Ctx) {
  TypePtr T = IsVariable ? Ctx.apply(Declared) : Ctx.instantiate(Declared);
  return Ctx.unify(functionReturn(T), Request) ? T : nullptr;
}

/// True when the choice of \p Declared fits \p Request; \p Ctx is left as
/// it was.
bool tryChoice(TypePtr Declared, bool IsVariable, TypePtr Request,
               TypeContext &Ctx) {
  TypeContext::Mark M = Ctx.mark();
  bool Fits = unifyChoice(Declared, IsVariable, Request, Ctx) != nullptr;
  Ctx.undo(M);
  return Fits;
}

/// Calls \p OnFit(I), in index order, for each production I whose
/// (full-arity) return type unifies with \p Request; \p Ctx is left as it
/// was.
template <typename FitFn>
void forEachFit(const std::vector<Production> &Prods, TypePtr Request,
                TypeContext &Ctx, FitFn &&OnFit) {
  TypeName RequestHead = Request->isConstructor() ? Request->head() : nullptr;
  for (size_t I = 0; I < Prods.size(); ++I) {
    // Cheap rejection: a concrete return head can only unify with the same
    // concrete request head.
    if (RequestHead && Prods[I].ReturnHead &&
        Prods[I].ReturnHead != RequestHead)
      continue;
    if (tryChoice(Prods[I].Ty, /*IsVariable=*/false, Request, Ctx))
      OnFit(I);
  }
}

} // namespace

std::span<const uint32_t>
ProductionFilterMemo::fits(const std::vector<Production> &Prods,
                           TypePtr Request, TypeContext &Ctx) {
  assert((!Source || Source == &Prods) &&
         "a production filter memo serves one production list");
  Source = &Prods;
  TypePtr Key = Ctx.apply(Request);
  // Trials mint variables from variableCount() up; a request variable
  // among them would make the answer depend on more than the key.
  assert(Key->maxVariable() < Ctx.variableCount() &&
         "a request's variables were minted by its context");
  const uint64_t KeyBits = reinterpret_cast<uintptr_t>(Key);
  if (const Range *R = Ranges.find(KeyBits))
    return {Indices.data() + R->Begin, R->Count};
  const size_t Begin = Indices.size();
  forEachFit(Prods, Request, Ctx, [&](size_t I) {
    Indices.push_back(static_cast<uint32_t>(I));
  });
  const Range R{Begin, Indices.size() - Begin};
  Ranges.insert(KeyBits, R);
  return {Indices.data() + R.Begin, R.Count};
}

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

void Grammar::candidates(int /*ParentIdx*/, int /*ArgIdx*/, TypePtr Request,
                         const TypeEnv *Environment, TypeContext &Ctx,
                         std::vector<GrammarCandidate> &Out,
                         ProductionFilterMemo *Memo) const {
  holeCandidates(Prods, nullptr, LogVar, Request, Environment, Ctx, Out,
                 Memo);
}

void dc::holeCandidates(const std::vector<Production> &Prods,
                        const double *Row, double LogVariable,
                        TypePtr Request, const TypeEnv *Environment,
                        TypeContext &Ctx, std::vector<GrammarCandidate> &Out,
                        ProductionFilterMemo *Memo) {
  const size_t Begin = Out.size();

  // Library productions whose (full-arity) return type unifies with the
  // request, in index order.
  auto Add = [&](size_t I) {
    Out.push_back({Prods[I].Program, Row ? Row[I] : Prods[I].LogWeight,
                   Prods[I].Ty, static_cast<int>(I)});
  };
  if (Memo)
    for (uint32_t I : Memo->fits(Prods, Request, Ctx))
      Add(I);
  else
    forEachFit(Prods, Request, Ctx, Add);

  // In-scope variables, walked from $0 outwards and then reversed, so they
  // are listed outermost first. Each matching variable splits the variable
  // mass.
  const size_t FirstVar = Out.size();
  int DeBruijn = 0;
  for (const TypeEnv *Frame = Environment; Frame;
       Frame = Frame->Outer, ++DeBruijn)
    if (tryChoice(Frame->Ty, /*IsVariable=*/true, Request, Ctx))
      Out.push_back({Expr::index(DeBruijn), LogVariable, Frame->Ty, -1});
  std::reverse(Out.begin() + FirstVar, Out.end());
  if (Out.size() > FirstVar) {
    double Split = std::log(static_cast<double>(Out.size() - FirstVar));
    for (size_t I = FirstVar; I < Out.size(); ++I)
      Out[I].LogProb -= Split;
  }

  // Normalize.
  std::span<GrammarCandidate> Added(Out.data() + Begin, Out.size() - Begin);
  if (Added.empty())
    return;
  double Z = logSumExp(Added);
  for (GrammarCandidate &C : Added)
    C.LogProb -= Z;
}

TypePtr dc::bindCandidate(const GrammarCandidate &C, TypePtr Request,
                          TypeContext &Ctx) {
  const bool IsVariable = C.ProductionIdx < 0;
  TypePtr T = unifyChoice(C.Declared, IsVariable, Request, Ctx);
  assert(T && "a candidate binds as candidates() tried it");
  // A variable's argument types are read off its type under the new
  // bindings.
  return IsVariable ? Ctx.apply(T) : T;
}

//===----------------------------------------------------------------------===//
// Decision replay (shared by likelihood, summaries, and bigram training)
//===----------------------------------------------------------------------===//

namespace {

/// One replay of a program's decisions. Each argument is walked from the
/// context its head's choice left, and the bindings its subtree made are
/// undone before the next argument.
class DecisionWalk {
public:
  DecisionWalk(const EnumerationSource &Src,
               const DecisionCallback &OnDecision)
      : Src(Src), OnDecision(OnDecision) {}

  bool run(const TypePtr &Request, ExprPtr Program) {
    TypePtr Req = Ctx.instantiate(Request);
    return walk(Req, nullptr, Program, ParentStart, 0, 0);
  }

private:
  bool walk(TypePtr Request, const TypeEnv *Env, ExprPtr E, int ParentIdx,
            int ArgIdx, int Depth) {
    if (Depth > 256)
      return false;
    Request = Ctx.resolve(Request);

    if (Request->isArrow()) {
      TypeEnv Frame{Request->arrowArgument(), Env};
      if (E->isAbstraction())
        return walk(Request->arrowResult(), &Frame, E->body(), ParentIdx,
                    ArgIdx, Depth + 1);
      // Eta-expand on the fly: E ≡ (λ (E↑ $0)).
      ExprPtr Shifted = E->shift(1);
      if (!Shifted)
        return false;
      return walk(Request->arrowResult(), &Frame,
                  Expr::application(Shifted, Expr::index(0)), ParentIdx,
                  ArgIdx, Depth + 1);
    }

    auto [Head, Args] = applicationSpine(E);
    if (Head->isAbstraction())
      return false; // β-redexes are outside the grammar's support

    // This hole's choices sit on top of Choices until it has reported.
    const size_t Begin = Choices.size();
    Src.candidates(ParentIdx, ArgIdx, Request, Env, Ctx, Choices, nullptr);
    std::span<const GrammarCandidate> All(Choices.data() + Begin,
                                          Choices.size() - Begin);
    auto Chosen = std::find_if(All.begin(), All.end(),
                               [&](const GrammarCandidate &C) {
                                 return C.Leaf == Head;
                               });
    TypePtr Ty = Chosen == All.end() ? nullptr
                                     : bindCandidate(*Chosen, Request, Ctx);
    // An arity mismatch is an over-application of a polymorphic head.
    const bool Ok = Ty && functionArity(Ty) == static_cast<int>(Args.size());
    if (Ok)
      OnDecision(ParentIdx, ArgIdx, *Chosen, All);
    const int ChildParent =
        Ok && Chosen->ProductionIdx >= 0 ? Chosen->ProductionIdx
                                         : ParentVariable;
    Choices.resize(Begin);
    if (!Ok)
      return false;

    for (size_t I = 0; I < Args.size(); ++I, Ty = Ty->arrowResult()) {
      TypeContext::Mark M = Ctx.mark();
      bool ArgOk = walk(Ty->arrowArgument(), Env, Args[I], ChildParent,
                        static_cast<int>(I), Depth + 1);
      Ctx.undo(M);
      if (!ArgOk)
        return false;
    }
    return true;
  }

  const EnumerationSource &Src;
  const DecisionCallback &OnDecision;
  TypeContext Ctx;
  std::vector<GrammarCandidate> Choices;
};

} // namespace

bool dc::walkProgramDecisions(const EnumerationSource &Src,
                              const TypePtr &Request, ExprPtr Program,
                              const DecisionCallback &OnDecision) {
  return DecisionWalk(Src, OnDecision).run(Request, Program);
}

double Grammar::logLikelihood(const TypePtr &Request, ExprPtr Program) const {
  double Total = 0;
  bool Ok = walkProgramDecisions(
      *this, Request, Program,
      [&](int, int, const GrammarCandidate &Chosen,
          std::span<const GrammarCandidate>) { Total += Chosen.LogProb; });
  return Ok ? Total : NegInf;
}

//===----------------------------------------------------------------------===//
// Sampling
//===----------------------------------------------------------------------===//

namespace {

ExprPtr sampleImpl(const EnumerationSource &Src, TypePtr Request,
                   TypeContext &Ctx, const TypeEnv *Env, int ParentIdx,
                   int ArgIdx, std::mt19937 &Rng, int DepthLeft,
                   std::vector<GrammarCandidate> &Choices) {
  if (DepthLeft <= 0)
    return nullptr;
  Request = Ctx.resolve(Request);

  if (Request->isArrow()) {
    TypeEnv Frame{Request->arrowArgument(), Env};
    ExprPtr Body = sampleImpl(Src, Request->arrowResult(), Ctx, &Frame,
                              ParentIdx, ArgIdx, Rng, DepthLeft - 1, Choices);
    return Body ? Expr::abstraction(Body) : nullptr;
  }

  Choices.clear();
  Src.candidates(ParentIdx, ArgIdx, Request, Env, Ctx, Choices, nullptr);
  if (Choices.empty())
    return nullptr;
  std::vector<double> Probs;
  Probs.reserve(Choices.size());
  for (const GrammarCandidate &C : Choices)
    Probs.push_back(std::exp(C.LogProb));
  std::discrete_distribution<int> Dist(Probs.begin(), Probs.end());
  const GrammarCandidate Chosen = Choices[Dist(Rng)];

  TypePtr Ty = bindCandidate(Chosen, Request, Ctx);
  int ChildParent =
      Chosen.ProductionIdx >= 0 ? Chosen.ProductionIdx : ParentVariable;
  ExprPtr Out = Chosen.Leaf;
  for (int I = 0; Ty->isArrow(); ++I, Ty = Ty->arrowResult()) {
    ExprPtr Arg = sampleImpl(Src, Ty->arrowArgument(), Ctx, Env, ChildParent,
                             I, Rng, DepthLeft - 1, Choices);
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
  std::vector<GrammarCandidate> Choices;
  TypePtr Req = Ctx.instantiate(Request);
  return sampleImpl(Src, Req, Ctx, nullptr, ParentStart, 0, Rng, MaxDepth,
                    Choices);
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
