//===- core/Value.h - Runtime values for the evaluator --------------------===//
//
// Part of the DreamCoder C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dynamically-typed runtime values produced by evaluating programs:
/// integers, reals, booleans, characters, lists, closures over expression
/// bodies, partially-applied builtins, and opaque domain objects (turtle
/// states, towers, regexes, ...). Values are immutable and shared.
///
//===----------------------------------------------------------------------===//

#ifndef DC_CORE_VALUE_H
#define DC_CORE_VALUE_H

#include "core/Program.h"

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace dc {

class EvalState;

/// Environment for de Bruijn variables: a persistent cons list so extending
/// is O(1) and shares structure with the parent scope.
struct EnvNode;
using EnvPtr = std::shared_ptr<const EnvNode>;
struct EnvNode {
  ValuePtr Head;
  EnvPtr Tail;
};

/// Prepends \p V to \p Env.
EnvPtr envExtend(EnvPtr Env, ValuePtr V);
/// Looks up de Bruijn index \p I; nullptr when out of range.
ValuePtr envLookup(const EnvPtr &Env, int I);

/// Native implementation of a builtin primitive. Receives exactly `arity`
/// evaluated arguments; returns nullptr to signal a runtime error (the error
/// propagates and the program fails on the current task).
using BuiltinFn =
    std::function<ValuePtr(EvalState &, const std::vector<ValuePtr> &)>;

/// Discriminator for Value.
enum class ValueKind : uint8_t {
  Int,
  Real,
  Bool,
  Char,
  List,
  Closure, ///< λ body captured with its environment
  Builtin, ///< native primitive, possibly partially applied
  Opaque,  ///< domain-specific payload (turtle state, regex node, ...)
};

/// One immutable runtime value.
class Value {
public:
  ValueKind kind() const { return TheKind; }
  bool isInt() const { return TheKind == ValueKind::Int; }
  bool isReal() const { return TheKind == ValueKind::Real; }
  bool isBool() const { return TheKind == ValueKind::Bool; }
  bool isChar() const { return TheKind == ValueKind::Char; }
  bool isList() const { return TheKind == ValueKind::List; }
  bool isClosure() const { return TheKind == ValueKind::Closure; }
  bool isBuiltin() const { return TheKind == ValueKind::Builtin; }
  bool isOpaque() const { return TheKind == ValueKind::Opaque; }
  /// True for closures and builtins (things that can be applied).
  bool isCallable() const { return isClosure() || isBuiltin(); }

  long asInt() const {
    assert(isInt() && "not an int");
    return IntVal;
  }
  double asReal() const {
    assert((isReal() || isInt()) && "not numeric");
    return isInt() ? static_cast<double>(IntVal) : RealVal;
  }
  bool asBool() const {
    assert(isBool() && "not a bool");
    return BoolVal;
  }
  char asChar() const {
    assert(isChar() && "not a char");
    return CharVal;
  }
  const std::vector<ValuePtr> &asList() const {
    assert(isList() && "not a list");
    return ListVal;
  }

  ExprPtr closureBody() const {
    assert(isClosure() && "not a closure");
    return Body;
  }
  const EnvPtr &closureEnv() const {
    assert(isClosure() && "not a closure");
    return Env;
  }

  const std::string &builtinName() const {
    assert(isBuiltin() && "not a builtin");
    return Name;
  }
  int builtinArity() const {
    assert(isBuiltin() && "not a builtin");
    return Arity;
  }
  const BuiltinFn &builtinFn() const {
    assert(isBuiltin() && "not a builtin");
    return Fn;
  }
  const std::vector<ValuePtr> &builtinPending() const {
    assert(isBuiltin() && "not a builtin");
    return Pending;
  }

  /// Tag identifying the domain payload type (e.g. "turtle", "regex").
  const std::string &opaqueTag() const {
    assert(isOpaque() && "not opaque");
    return Name;
  }
  const std::shared_ptr<const void> &opaquePayload() const {
    assert(isOpaque() && "not opaque");
    return Payload;
  }

  /// Structural equality; callables compare by identity (never equal unless
  /// the same object), opaques by payload pointer identity unless the domain
  /// registered a tag-level comparator elsewhere.
  bool equals(const Value &Other) const;

  /// Debug/test rendering, e.g. "[1, 2, 3]" or "'a'".
  std::string show() const;

  //===--------------------------------------------------------------------===//
  // Factories
  //===--------------------------------------------------------------------===//

  static ValuePtr makeInt(long V);
  static ValuePtr makeReal(double V);
  static ValuePtr makeBool(bool V);
  static ValuePtr makeChar(char V);
  static ValuePtr makeList(std::vector<ValuePtr> Elems);
  /// Builds list(char) from a std::string.
  static ValuePtr makeString(const std::string &S);
  static ValuePtr makeClosure(ExprPtr Body, EnvPtr Env);
  static ValuePtr makeBuiltin(std::string Name, int Arity, BuiltinFn Fn);
  /// A builtin with some arguments already collected.
  static ValuePtr makeBuiltinPartial(const Value &Base,
                                     std::vector<ValuePtr> Pending);
  static ValuePtr makeOpaque(std::string Tag,
                             std::shared_ptr<const void> Payload);

  /// Converts list(char) back to std::string; empty optional when the value
  /// is not a character list.
  static std::optional<std::string> toString(const ValuePtr &V);

private:
  /// Passkey: only the factories construct values, through make_shared,
  /// so the value and its reference count share one allocation.
  struct Key {
    explicit Key() = default;
  };

public:
  Value(Key, ValueKind K) : TheKind(K) {}

private:
  static std::shared_ptr<Value> make(ValueKind K) {
    return std::make_shared<Value>(Key{}, K);
  }

  ValueKind TheKind;
  long IntVal = 0;
  double RealVal = 0;
  bool BoolVal = false;
  char CharVal = 0;
  std::vector<ValuePtr> ListVal;
  ExprPtr Body = nullptr;
  EnvPtr Env;
  std::string Name;
  int Arity = 0;
  BuiltinFn Fn;
  std::vector<ValuePtr> Pending;
  std::shared_ptr<const void> Payload;
};

} // namespace dc

#endif // DC_CORE_VALUE_H
