//===- core/ContextualGrammar.cpp - Bigram-parameterized grammars ---------===//

#include "core/ContextualGrammar.h"

#include <algorithm>

using namespace dc;

ContextualGrammar::ContextualGrammar(const Grammar &Base)
    : Prods(Base.productions()) {
  for (const Production &P : Prods)
    MaxArity = std::max(MaxArity, functionArity(P.Ty));
  int Slot = 1 + MaxArity; // start, then the applied variable's arguments
  FirstSlot.reserve(Prods.size() + 1);
  for (const Production &P : Prods) {
    FirstSlot.push_back(Slot);
    Slot += std::max(1, functionArity(P.Ty));
  }
  FirstSlot.push_back(Slot);

  Weights.resize(static_cast<size_t>(slotCount()) * childCount());
  for (int S = 0; S < slotCount(); ++S) {
    double *Row = row(S);
    for (size_t I = 0; I < Prods.size(); ++I)
      Row[I] = Prods[I].LogWeight;
    Row[Prods.size()] = Base.logVariable();
  }
}

int ContextualGrammar::slotIndex(int ParentIdx, int ArgIdx) const {
  if (ParentIdx == ParentStart)
    return 0;
  if (ParentIdx == ParentVariable)
    return 1 + std::clamp(ArgIdx, 0, MaxArity - 1);
  assert(ParentIdx >= 0 && ParentIdx < static_cast<int>(Prods.size()) &&
         "parent production out of range");
  int First = FirstSlot[ParentIdx];
  return First + std::clamp(ArgIdx, 0, FirstSlot[ParentIdx + 1] - First - 1);
}

void ContextualGrammar::candidates(int ParentIdx, int ArgIdx,
                                   TypePtr Request,
                                   const TypeEnv *Environment,
                                   TypeContext &Ctx,
                                   std::vector<GrammarCandidate> &Out,
                                   ProductionFilterMemo *Memo) const {
  const double *Row = row(slotIndex(ParentIdx, ArgIdx));
  holeCandidates(Prods, Row, Row[Prods.size()], Request, Environment, Ctx,
                 Out, Memo);
}
