//===- core/Grammar.h - Probabilistic grammars over programs --------------===//
//
// Part of the DreamCoder C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The library D equipped with a weight vector θ defines a distribution over
/// well-typed programs P[ρ|D,θ] (paper §2.4 and Appendix 6): generation
/// walks the requested type; at arrow types it introduces a lambda; at
/// ground types it chooses among type-compatible productions (primitives,
/// invented routines) and in-scope variables, with probability proportional
/// to exp(θ).
///
/// A Grammar both scores programs (likelihood / likelihood summaries for θ
/// re-estimation) and samples them (dream-phase fantasies).
///
//===----------------------------------------------------------------------===//

#ifndef DC_CORE_GRAMMAR_H
#define DC_CORE_GRAMMAR_H

#include "core/Program.h"

#include <random>
#include <unordered_map>

namespace dc {

/// One library entry with its weight.
struct Production {
  ExprPtr Program;  ///< primitive or invented routine
  TypePtr Ty;       ///< cached declared type
  double LogWeight; ///< unnormalized log weight θ_i
  /// Interned head constructor of the return type (null when the return
  /// type is a type variable); used to reject unification cheaply during
  /// enumeration.
  TypeName ReturnHead;
};

/// A typed, weighted choice available while generating at some hole.
struct GrammarCandidate {
  ExprPtr Leaf;      ///< production expr, or Expr::index(i) for a variable
  double LogProb;    ///< normalized log probability of this choice
  TypePtr Ty;        ///< the leaf's type after unification with the request
  TypeContext Ctx;   ///< type context extended by that unification
  int ProductionIdx; ///< index into productions(), or -1 for a variable
};

/// Distinguished parent slots for the bigram model (paper §4): the root of
/// the program, and arguments of applied variables.
enum : int {
  ParentStart = -2, ///< generating the root of the program
  ParentVariable = -1, ///< generating an argument of an applied variable
};

/// Interface shared by Grammar (unigram) and ContextualGrammar (bigram) so
/// one enumerator serves both. The (ParentIdx, ArgIdx) pair identifies the
/// syntactic slot being filled: ParentIdx is the production index of the
/// library routine whose argument is being generated (or ParentStart /
/// ParentVariable), ArgIdx which of its arguments.
class EnumerationSource {
public:
  virtual ~EnumerationSource() = default;

  /// Type-compatible choices for the hole, with normalized probabilities.
  virtual std::vector<GrammarCandidate>
  candidates(int ParentIdx, int ArgIdx, const TypePtr &Request,
             const std::vector<TypePtr> &Environment,
             const TypeContext &Ctx) const = 0;
};

/// The choices at one hole, the body of both sources' candidates(): every
/// production whose return type unifies with \p Request, then every
/// in-scope variable that does (splitting \p LogVariable evenly), all
/// normalized. Production I weighs \p Row[I], or its own LogWeight when
/// \p Row is null.
std::vector<GrammarCandidate>
holeCandidates(const std::vector<Production> &Prods, const double *Row,
               double LogVariable, const TypePtr &Request,
               const std::vector<TypePtr> &Environment,
               const TypeContext &Ctx);

/// One grammar decision observed while replaying a program: at the slot
/// (ParentIdx, ArgIdx), Chosen was selected among All.
using DecisionCallback =
    std::function<void(int ParentIdx, int ArgIdx,
                       const GrammarCandidate &Chosen,
                       const std::vector<GrammarCandidate> &All)>;

/// Replays the generation decisions of \p Program at \p Request under
/// \p Src, eta-expanding on the fly. Returns false when the program lies
/// outside the model's support (in which case some prefix of decisions may
/// already have been reported).
bool walkProgramDecisions(const EnumerationSource &Src,
                          const TypePtr &Request, ExprPtr Program,
                          const DecisionCallback &OnDecision);

/// Samples a program of type \p Request from any enumeration source
/// (unigram grammar or recognition-model bigram); nullptr when the depth
/// bound was exceeded.
ExprPtr sampleFromSource(const EnumerationSource &Src, const TypePtr &Request,
                         std::mt19937 &Rng, int MaxDepth = 14);

/// Unigram probabilistic grammar: one weight per production plus a weight
/// for "use a variable".
class Grammar : public EnumerationSource {
public:
  Grammar() = default;

  /// Uniform weights over \p Prims (all zero log weights).
  static Grammar uniform(const std::vector<ExprPtr> &Prims,
                         double LogVariable = -1.0);

  const std::vector<Production> &productions() const { return Prods; }
  std::vector<Production> &productions() { return Prods; }
  double logVariable() const { return LogVar; }
  void setLogVariable(double LV) { LogVar = LV; }

  /// Index of \p P among the productions; -1 when absent.
  int productionIndex(ExprPtr P) const;

  /// Adds \p P (with weight 0) if not already present; returns its index.
  int addProduction(ExprPtr P);

  /// Number of invented routines in the library.
  int inventionCount() const;

  /// Maximum invention-nesting depth across the library — the "library
  /// depth" statistic of Fig 7C.
  int libraryDepth() const;

  /// Sum over invented routines of the size of their bodies; the structure
  /// penalty log P[D] of Eq. 4 is -λ times this.
  int structureSize() const;

  std::vector<GrammarCandidate>
  candidates(int ParentIdx, int ArgIdx, const TypePtr &Request,
             const std::vector<TypePtr> &Environment,
             const TypeContext &Ctx) const override;

  /// Log probability of generating \p Program at \p Request. Programs are
  /// eta-expanded on the fly, so partial applications score correctly.
  /// Returns -inf for programs outside the grammar's support.
  double logLikelihood(const TypePtr &Request, ExprPtr Program) const;

  /// Samples a program of type \p Request; nullptr when the depth bound is
  /// exceeded (callers typically retry).
  ExprPtr sample(const TypePtr &Request, std::mt19937 &Rng,
                 int MaxDepth = 14) const;

  /// Human-readable listing of the library with weights.
  std::string show() const;

private:
  friend class LikelihoodSummary;

  std::vector<Production> Prods;
  double LogVar = -1.0;
};

} // namespace dc

#endif // DC_CORE_GRAMMAR_H
