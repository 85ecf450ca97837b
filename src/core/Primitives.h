//===- core/Primitives.h - Primitive registry and standard library --------===//
//
// Part of the DreamCoder C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The global primitive registry maps primitive names to interned Expr
/// nodes. Registration creates each node with its runtime value, which the
/// evaluator reads off the node. Domains register their own primitives at
/// startup and receive interned Expr handles suitable for building
/// grammars.
///
/// This header also exposes the shared standard library: the functional core
/// (map/fold/cons/...), arithmetic, the 1959-Lisp subset with the fixpoint
/// combinator, and real-valued arithmetic for physics/regression.
///
//===----------------------------------------------------------------------===//

#ifndef DC_CORE_PRIMITIVES_H
#define DC_CORE_PRIMITIVES_H

#include "core/Evaluator.h"

namespace dc {

/// Registers (or re-fetches, when already present with the same name) a
/// primitive with native semantics. \p Fn receives functionArity(Ty)
/// evaluated arguments.
ExprPtr definePrimitive(const std::string &Name, const TypePtr &Ty,
                        BuiltinFn Fn);

/// Registers a constant-valued primitive (arity 0 at runtime).
ExprPtr definePrimitive(const std::string &Name, const TypePtr &Ty,
                        ValuePtr Constant);

/// Interned Expr for a previously registered primitive; nullptr when
/// unregistered. Used by the parser.
ExprPtr lookupPrimitive(const std::string &Name);

/// Convenience: registers (idempotently) an int constant named after its
/// value, e.g. intPrimitive(3) is the primitive "3".
ExprPtr intPrimitive(long N);

/// Convenience: registers a real constant.
ExprPtr realPrimitive(const std::string &Name, double V);

namespace prims {

/// map, fold, cons, car, cdr, if, length, index, =, +, -, 0, 1, nil, is-nil
/// — the list-domain base language from §5 of the paper.
std::vector<ExprPtr> functionalCore();

/// mod, *, >, is-square, is-prime — the list-domain numeric extras.
std::vector<ExprPtr> arithmeticExtras();

/// if, =, >, +, -, 0, 1, cons, car, cdr, nil, is-nil, fix — the 1959 Lisp
/// basis of §5.2 (the origami experiment), with primitive recursion.
std::vector<ExprPtr> mcCarthy1959();

/// +., -., *., /., real constants and vector helpers shared by the physics
/// and symbolic-regression domains.
std::vector<ExprPtr> realArithmetic();

/// empty?, filter, range, append, zip, unfold-style helpers used by task
/// generators (NOT part of base grammars unless a domain opts in).
std::vector<ExprPtr> listExtras();

} // namespace prims

} // namespace dc

#endif // DC_CORE_PRIMITIVES_H
