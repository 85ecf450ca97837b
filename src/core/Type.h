//===- core/Type.h - Polymorphic types for typed lambda calculus ---------===//
//
// Part of the DreamCoder C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hindley-Milner style polymorphic types used throughout the system. A type
/// is either a type variable (written t0, t1, ...) or a constructor applied
/// to argument types (e.g. int, list(int), int -> bool). Function types are
/// represented as the binary constructor "->".
///
/// Types are interned in a process-wide arena, the same way programs are
/// (core/Program.h): structurally equal types are one node, so equality is
/// pointer identity and a TypePtr is a plain pointer with no refcount.
/// Constructor names are interned too and compare by identity. Nodes are
/// immutable and live for the whole process.
///
/// Unification lives in TypeContext. A context keeps its bindings in place
/// and records each one on an undo trail, the scheme of Prolog's WAM: a
/// search that tries a choice takes a mark(), unifies, and undo()es back
/// to the mark, so backtracking through the candidates of a hole costs
/// what the bindings cost and never copies the context.
///
//===----------------------------------------------------------------------===//

#ifndef DC_CORE_TYPE_H
#define DC_CORE_TYPE_H

#include <cassert>
#include <cstddef>
#include <string>
#include <vector>

namespace dc {

class Type;
class TypeArena;

/// Interned handle to a type node; equality is identity.
using TypePtr = const Type *;

/// Interned constructor name: one string per distinct name, so names
/// compare by identity.
using TypeName = const std::string *;

/// A polymorphic type: either a variable or a constructor application.
class Type {
public:
  enum class Kind : unsigned char { Variable, Constructor };

  /// The type variable with the given id.
  static TypePtr variable(int Id);

  /// A nullary or applied type constructor.
  static TypePtr constructor(const std::string &Name,
                             const std::vector<TypePtr> &Args = {});

  /// The function type \p From -> \p To.
  static TypePtr arrow(TypePtr From, TypePtr To);

  /// A right-nested arrow from argument types to a return type.
  static TypePtr arrows(const std::vector<TypePtr> &Args, TypePtr Ret);

  Kind kind() const { return TheKind; }
  bool isVariable() const { return TheKind == Kind::Variable; }
  bool isConstructor() const { return TheKind == Kind::Constructor; }
  bool isArrow() const { return Arrow; }

  /// Variable id; only valid when isVariable().
  int variableId() const {
    assert(isVariable() && "not a type variable");
    return VarId;
  }

  /// Interned constructor name; only valid when isConstructor().
  TypeName head() const {
    assert(isConstructor() && "not a constructor");
    return Head;
  }

  /// Constructor name; only valid when isConstructor().
  const std::string &name() const { return *head(); }

  /// Constructor arguments; only valid when isConstructor().
  const std::vector<TypePtr> &arguments() const {
    assert(isConstructor() && "not a constructor");
    return Args;
  }

  /// For an arrow type, the argument (left) side.
  TypePtr arrowArgument() const {
    assert(isArrow() && "not an arrow type");
    return Args[0];
  }

  /// For an arrow type, the result (right) side.
  TypePtr arrowResult() const {
    assert(isArrow() && "not an arrow type");
    return Args[1];
  }

  /// Renders the type with the conventional infix arrow, e.g.
  /// "int -> list(int) -> bool".
  std::string show() const;

  /// True if the type contains no type variables.
  bool isMonomorphic() const { return Mono; }

  /// Largest variable id occurring in the type; -1 when monomorphic.
  int maxVariable() const { return MaxVar; }

  /// Collects the distinct variable ids occurring in this type, in first
  /// occurrence order.
  void collectVariables(std::vector<int> &Out) const;

  /// Structural hash, computed once when the node is interned.
  size_t hash() const { return HashVal; }

private:
  friend class TypeArena;
  Type() = default;
  void showInto(std::string &Out) const;

  Kind TheKind = Kind::Variable;
  bool Arrow = false;
  bool Mono = true;
  int VarId = 0;
  int MaxVar = -1;
  size_t HashVal = 0;
  TypeName Head = nullptr;
  std::vector<TypePtr> Args;
};

/// Returns the list of curried argument types of \p T (empty when \p T is not
/// an arrow) — e.g. for a -> b -> c returns [a, b].
std::vector<TypePtr> functionArguments(TypePtr T);

/// Returns the final return type of \p T after stripping all arrows.
inline TypePtr functionReturn(TypePtr T) {
  while (T->isArrow())
    T = T->arrowResult();
  return T;
}

/// Number of curried arguments of \p T.
inline int functionArity(TypePtr T) {
  int N = 0;
  for (; T->isArrow(); T = T->arrowResult())
    ++N;
  return N;
}

//===----------------------------------------------------------------------===//
// Common ground types
//===----------------------------------------------------------------------===//

TypePtr tInt();
TypePtr tReal();
TypePtr tBool();
TypePtr tChar();
TypePtr tList(TypePtr Elem);
TypePtr tString(); ///< Convenience: list(char).
TypePtr t0();      ///< Type variable 0.
TypePtr t1();      ///< Type variable 1.
TypePtr t2();      ///< Type variable 2.

//===----------------------------------------------------------------------===//
// TypeContext — substitution environment for unification
//===----------------------------------------------------------------------===//

/// Mutable unification state: a binding per type-variable id, kept in
/// place, an undo trail of the variables bound, and the count of variables
/// minted. A context belongs to one search (or sampler, walk or inference)
/// on one thread; callers that try a choice and back out of it bracket it
/// with mark() and undo().
class TypeContext {
public:
  /// A point to undo() back to: the trail length and the variable count.
  struct Mark {
    size_t Trail;
    int NextVar;
  };

  TypeContext() = default;

  /// Mints a fresh, unbound type variable.
  TypePtr makeVariable() { return Type::variable(NextVar++); }

  /// Number of variables allocated so far.
  int variableCount() const { return NextVar; }

  /// The current point on the trail.
  Mark mark() const { return {Trail.size(), NextVar}; }

  /// Unbinds every variable bound since \p M and forgets the variables
  /// minted since, so the context is as it was when \p M was taken. Marks
  /// nest: undoing to an outer mark also undoes everything after inner
  /// ones, and a mark is spent once the trail is undone past it.
  void undo(Mark M);

  /// Binds every variable occurring in \p T to fresh variables, returning the
  /// renamed type. This is how polymorphic library entries are instantiated
  /// at each use site. The result depends only on \p T and
  /// variableCount(), so it is memoized per thread on that pair.
  TypePtr instantiate(TypePtr T);

  /// Resolves \p T under the current substitution (deep walk).
  TypePtr apply(TypePtr T) const;

  /// Follows variable bindings at the head only — O(chain) and allocation
  /// free. Sufficient for dispatching on arrow-ness or the head constructor;
  /// argument positions may still contain bound variables.
  TypePtr resolve(TypePtr T) const { return shallowResolve(T); }

  /// Attempts to unify \p A and \p B, extending the substitution. Returns
  /// false when the types cannot be unified; the context may then hold
  /// some of the attempt's bindings, and undo() to a mark taken before the
  /// call rolls them back.
  bool unify(TypePtr A, TypePtr B);

private:
  TypePtr lookup(int Var) const {
    return Var >= 0 && Var < static_cast<int>(Bindings.size()) ? Bindings[Var]
                                                               : nullptr;
  }
  /// Walks variable chains until hitting an unbound variable or constructor.
  TypePtr shallowResolve(TypePtr T) const;
  bool occurs(int Var, TypePtr T) const;
  void bind(int Var, TypePtr T);

  int NextVar = 0;
  /// Binding per variable id (null entry or out-of-range id = free).
  std::vector<TypePtr> Bindings;
  /// The variables bound, in binding order; undo() pops back to a mark.
  std::vector<int> Trail;
};

/// Renames the variables of \p T to 0,1,2,... in order of first occurrence,
/// so alpha-equivalent types canonicalize to the same node.
TypePtr canonicalize(TypePtr T);

} // namespace dc

#endif // DC_CORE_TYPE_H
