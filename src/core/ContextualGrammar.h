//===- core/ContextualGrammar.h - Bigram-parameterized grammars -----------===//
//
// Part of the DreamCoder C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bigram parameterization of §4: instead of one weight vector shared by
/// every hole, the distribution over a hole's contents conditions on the
/// immediate parent in the syntax tree and on which argument of that parent
/// is being generated. This is what lets the recognition model break
/// syntactic symmetries (e.g. forbid 0 as an argument of +) while remaining
/// cheap enough to drive enumerative search: the neural net runs once per
/// task, emitting the transition tensor Q[parent, argIndex, child].
///
//===----------------------------------------------------------------------===//

#ifndef DC_CORE_CONTEXTUALGRAMMAR_H
#define DC_CORE_CONTEXTUALGRAMMAR_H

#include "core/Grammar.h"

namespace dc {

/// One production list (the library) and one row of log weights per
/// syntactic slot, childCount() wide: one weight per production, then the
/// variable's. The slots are laid out as the recognition head's rows (the
/// head is sized from this layout): the start slot, then one slot per
/// argument of an applied variable (maxArity() of them), then one per
/// argument of each production (at least one each).
class ContextualGrammar : public EnumerationSource {
public:
  /// Builds a contextual grammar whose every slot carries \p Base's weights.
  explicit ContextualGrammar(const Grammar &Base);

  /// The library, shared by every slot.
  const std::vector<Production> &productions() const { return Prods; }

  int slotCount() const { return FirstSlot.back(); }
  int childCount() const { return static_cast<int>(Prods.size()) + 1; }

  /// Largest argument count of any production (at least 1): the number of
  /// slots an applied variable's arguments have.
  int maxArity() const { return MaxArity; }

  /// The slot filled by argument \p ArgIdx of \p ParentIdx (a production
  /// index, ParentStart, or ParentVariable); \p ArgIdx is clamped to the
  /// parent's slots.
  int slotIndex(int ParentIdx, int ArgIdx) const;

  /// The childCount() log weights of slot \p Slot.
  double *row(int Slot) {
    return Weights.data() + static_cast<size_t>(Slot) * childCount();
  }
  const double *row(int Slot) const {
    return Weights.data() + static_cast<size_t>(Slot) * childCount();
  }

  void candidates(int ParentIdx, int ArgIdx, TypePtr Request,
                  const TypeEnv *Environment, TypeContext &Ctx,
                  std::vector<GrammarCandidate> &Out,
                  ProductionFilterMemo *Memo) const override;

private:
  std::vector<Production> Prods;
  int MaxArity = 1;
  /// First slot of each production's arguments; the last entry is
  /// slotCount().
  std::vector<int> FirstSlot;
  std::vector<double> Weights; ///< slotCount() rows of childCount()
};

} // namespace dc

#endif // DC_CORE_CONTEXTUALGRAMMAR_H
