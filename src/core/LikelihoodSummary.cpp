//===- core/LikelihoodSummary.cpp - Reusable likelihood decompositions ----===//

#include "core/LikelihoodSummary.h"

#include <algorithm>
#include <cmath>
#include <limits>

using namespace dc;

namespace {
constexpr double NegInf = -std::numeric_limits<double>::infinity();
} // namespace

LikelihoodSummary LikelihoodSummary::build(const Grammar &G,
                                           const TypePtr &Request,
                                           ExprPtr Program) {
  LikelihoodSummary S;
  bool Ok = walkProgramDecisions(
      G, Request, Program,
      [&](int, int, const GrammarCandidate &Chosen,
          std::span<const GrammarCandidate>All) {
        int MatchingVars = 0;
        std::vector<int> CandidateIdxs;
        for (const GrammarCandidate &C : All) {
          if (C.ProductionIdx < 0)
            ++MatchingVars;
          else
            CandidateIdxs.push_back(C.ProductionIdx);
        }
        if (MatchingVars > 0)
          CandidateIdxs.push_back(-1);
        S.recordDecision(Chosen.ProductionIdx, MatchingVars,
                         std::move(CandidateIdxs));
      });
  S.Valid = Ok;
  return S;
}

void LikelihoodSummary::recordDecision(int ChosenIdx, int MatchingVariables,
                                       std::vector<int> CandidateIdxs) {
  if (ChosenIdx >= 0) {
    Uses[ChosenIdx] += 1;
  } else {
    VarUses += 1;
    // The chosen-variable probability carries a -log(#matching variables)
    // term that does not depend on θ.
    Constant -= std::log(static_cast<double>(MatchingVariables));
  }
  std::sort(CandidateIdxs.begin(), CandidateIdxs.end());
  for (Normalizer &N : Norms)
    if (N.Candidates == CandidateIdxs) {
      N.Count += 1;
      return;
    }
  Norms.push_back({std::move(CandidateIdxs), 1});
}

double LikelihoodSummary::logLikelihood(const Grammar &G) const {
  if (!Valid)
    return NegInf;
  double Total = Constant;
  for (const auto &[Idx, Count] : Uses) {
    assert(Idx < static_cast<int>(G.productions().size()) &&
           "summary built for a different library");
    Total += Count * G.productions()[Idx].LogWeight;
  }
  Total += VarUses * G.logVariable();
  for (const Normalizer &N : Norms) {
    double M = NegInf;
    for (int Idx : N.Candidates) {
      double W = Idx < 0 ? G.logVariable() : G.productions()[Idx].LogWeight;
      M = std::max(M, W);
    }
    double Z = 0;
    for (int Idx : N.Candidates) {
      double W = Idx < 0 ? G.logVariable() : G.productions()[Idx].LogWeight;
      Z += std::exp(W - M);
    }
    Total -= N.Count * (M + std::log(Z));
  }
  return Total;
}

void LikelihoodSummary::accumulate(const LikelihoodSummary &Other,
                                   double Weight) {
  assert(Other.Valid && "cannot accumulate an invalid summary");
  for (const auto &[Idx, Count] : Other.Uses)
    Uses[Idx] += Weight * Count;
  VarUses += Weight * Other.VarUses;
  Constant += Weight * Other.Constant;
  for (const Normalizer &N : Other.Norms) {
    bool Found = false;
    for (Normalizer &Mine : Norms)
      if (Mine.Candidates == N.Candidates) {
        Mine.Count += Weight * N.Count;
        Found = true;
        break;
      }
    if (!Found)
      Norms.push_back({N.Candidates, Weight * N.Count});
  }
}

void ExpectedCounts::add(const LikelihoodSummary &S, double Weight) {
  for (const auto &[Idx, Count] : S.uses())
    Uses[Idx] += Weight * Count;
  VarUses += Weight * S.variableUses();
  for (const LikelihoodSummary::Normalizer &N : S.normalizers())
    for (int Idx : N.Candidates) {
      if (Idx < 0)
        VarPossible += Weight * N.Count;
      else
        PossibleUses[Idx] += Weight * N.Count;
    }
}

void dc::refitGrammar(Grammar &G, const ExpectedCounts &Counts,
                      double PseudoCount) {
  for (size_t I = 0; I < G.productions().size(); ++I) {
    auto UseIt = Counts.Uses.find(static_cast<int>(I));
    double U = UseIt == Counts.Uses.end() ? 0 : UseIt->second;
    auto PossIt = Counts.PossibleUses.find(static_cast<int>(I));
    double P = PossIt == Counts.PossibleUses.end() ? 0 : PossIt->second;
    G.productions()[I].LogWeight =
        std::log(U + PseudoCount) - std::log(P + PseudoCount);
  }
  G.setLogVariable(std::log(Counts.VarUses + PseudoCount) -
                   std::log(Counts.VarPossible + PseudoCount));
}
