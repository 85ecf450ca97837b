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
/// Both sources, the unigram Grammar and the bigram ContextualGrammar,
/// build a hole's choices with one body, holeCandidates(). A search passes
/// it a ProductionFilterMemo, which remembers which productions fit each
/// request with its bindings applied, so the productions are trial-unified
/// once per distinct request in a search rather than at every hole; the
/// weights, the in-scope variables and the normalization stay per hole.
///
//===----------------------------------------------------------------------===//

#ifndef DC_CORE_GRAMMAR_H
#define DC_CORE_GRAMMAR_H

#include "core/Hash.h"
#include "core/Program.h"

#include <cstdint>
#include <random>
#include <span>

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

/// A typing environment: the types of the enclosing lambda binders as a
/// list from the innermost ($0) outwards; nullptr is the empty one. Each
/// frame lives on the stack of whoever opens the binder, so extending an
/// environment allocates nothing, and a hole still waiting to be filled
/// keeps the binders that were in scope where it was opened.
struct TypeEnv {
  TypePtr Ty;
  const TypeEnv *Outer;
};

/// A weighted choice available while generating at some hole. It holds no
/// type context: candidates() tries each choice on the caller's context and
/// undoes it, and bindCandidate() binds the one taken.
struct GrammarCandidate {
  ExprPtr Leaf;      ///< production expr, or Expr::index(i) for a variable
  double LogProb;    ///< normalized log probability of this choice
  /// What bindCandidate() binds: the production's declared type, or the
  /// variable's binder type.
  TypePtr Declared;
  int ProductionIdx; ///< index into productions(), or -1 for a variable
};

/// Distinguished parent slots for the bigram model (paper §4): the root of
/// the program, and arguments of applied variables.
enum : int {
  ParentStart = -2, ///< generating the root of the program
  ParentVariable = -1, ///< generating an argument of an applied variable
};

/// Which productions fit each hole request, remembered for the length of
/// one search. Whether production I fits depends only on I's declared type
/// and on the request with the context's bindings applied: a production is
/// tried on variables numbered from the context's next free id, which are
/// unbound and occur nowhere in the request. So holeCandidates() keys the
/// memo on the interned applied request and trial-unifies the productions
/// the first time it sees one; later holes with that request read the
/// indices that fit. A memo serves one production list on one thread: a
/// search (searchGroup in core/Enumeration.cpp) owns one for all its
/// windows. It allocates per distinct request, never per lookup.
class ProductionFilterMemo {
public:
  /// Number of distinct requests remembered.
  size_t size() const { return Ranges.size(); }

private:
  friend void holeCandidates(const std::vector<Production> &Prods,
                             const double *Row, double LogVariable,
                             TypePtr Request, const TypeEnv *Environment,
                             TypeContext &Ctx,
                             std::vector<GrammarCandidate> &Out,
                             ProductionFilterMemo *Memo);

  /// The indices, ascending, of the productions of \p Prods that fit
  /// \p Request on \p Ctx, which is left as it was.
  std::span<const uint32_t> fits(const std::vector<Production> &Prods,
                                 TypePtr Request, TypeContext &Ctx);

  struct Range {
    size_t Begin;
    size_t Count;
  };
  /// The production list this memo serves, set on first use.
  const std::vector<Production> *Source = nullptr;
  /// The fitting indices of each applied request (keyed by its address)
  /// as a range of Indices.
  FlatKeyMap<Range> Ranges;
  std::vector<uint32_t> Indices;
};

/// Interface shared by Grammar (unigram) and ContextualGrammar (bigram) so
/// one enumerator serves both. The (ParentIdx, ArgIdx) pair identifies the
/// syntactic slot being filled: ParentIdx is the production index of the
/// library routine whose argument is being generated (or ParentStart /
/// ParentVariable), ArgIdx which of its arguments.
class EnumerationSource {
public:
  virtual ~EnumerationSource() = default;

  /// Appends the type-compatible choices for the hole to \p Out, with
  /// normalized probabilities. Each choice is tried on \p Ctx and undone,
  /// so \p Ctx is unchanged on return. \p Memo, when not null, is the
  /// search's production filter (see holeCandidates()).
  virtual void candidates(int ParentIdx, int ArgIdx, TypePtr Request,
                          const TypeEnv *Environment, TypeContext &Ctx,
                          std::vector<GrammarCandidate> &Out,
                          ProductionFilterMemo *Memo) const = 0;
};

/// The choices at one hole, the body of both sources' candidates(): every
/// production whose return type unifies with \p Request, then every
/// in-scope variable that does, outermost first (splitting \p LogVariable
/// evenly), all normalized and appended to \p Out. Production I weighs
/// \p Row[I], or its own LogWeight when \p Row is null. With a \p Memo,
/// which productions fit is read from it (and filled on a new request);
/// without one every production is tried. The choices are the same bits
/// either way.
void holeCandidates(const std::vector<Production> &Prods, const double *Row,
                    double LogVariable, TypePtr Request,
                    const TypeEnv *Environment, TypeContext &Ctx,
                    std::vector<GrammarCandidate> &Out,
                    ProductionFilterMemo *Memo);

/// Binds the choice \p C at \p Request on \p Ctx, as candidates() tried
/// it, and returns the chosen leaf's type: a production's type instantiated
/// (its argument types resolve through \p Ctx), or a variable's type under
/// the new bindings. Its arrows are the leaf's argument holes. The
/// enumerator, the decision walk and the sampler all take a hole's choice
/// through this function.
TypePtr bindCandidate(const GrammarCandidate &C, TypePtr Request,
                      TypeContext &Ctx);

/// One grammar decision observed while replaying a program: at the slot
/// (ParentIdx, ArgIdx), Chosen was selected among All.
using DecisionCallback =
    std::function<void(int ParentIdx, int ArgIdx,
                       const GrammarCandidate &Chosen,
                       std::span<const GrammarCandidate> All)>;

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

  void candidates(int ParentIdx, int ArgIdx, TypePtr Request,
                  const TypeEnv *Environment, TypeContext &Ctx,
                  std::vector<GrammarCandidate> &Out,
                  ProductionFilterMemo *Memo) const override;

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
