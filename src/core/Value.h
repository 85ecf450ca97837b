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
/// Each value is one make_shared of a layout sized to its kind, behind the
/// accessors of Value: 16 bytes for a scalar, 32 for a list or a closure,
/// 48 for a partial application, 56 for an opaque (on 64-bit targets). A
/// builtin's name, arity and native function live once, in the value
/// definePrimitive registers (core/Primitives.h); a partial application is
/// (definition, the previous partial, one argument), so applying a builtin
/// copies no function, name or argument vector.
///
//===----------------------------------------------------------------------===//

#ifndef DC_CORE_VALUE_H
#define DC_CORE_VALUE_H

#include "core/Program.h"

#include <functional>
#include <memory>
#include <optional>
#include <span>
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
/// evaluated arguments, in order; returns nullptr to signal a runtime error
/// (the error propagates and the program fails on the current task).
using BuiltinFn =
    std::function<ValuePtr(EvalState &, std::span<const ValuePtr>)>;

/// The most arguments a builtin may take: the evaluator gathers a
/// saturated call's arguments in a stack array of this size.
constexpr int MaxBuiltinArity = 8;

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

namespace layout {
struct ScalarValue;
struct ListValue;
struct ClosureValue;
struct BuiltinDefinition;
struct BuiltinPartial;
struct OpaqueValue;
} // namespace layout

/// One immutable runtime value: the header each kind's layout (namespace
/// `layout` below) starts with.
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

  inline long asInt() const;
  inline double asReal() const;
  inline bool asBool() const;
  inline char asChar() const;
  inline const std::vector<ValuePtr> &asList() const;

  inline ExprPtr closureBody() const;
  inline const EnvPtr &closureEnv() const;

  inline const std::string &builtinName() const;
  int builtinArity() const {
    assert(isBuiltin() && "not a builtin");
    return Arity;
  }
  /// Arguments this builtin value has collected: 0 for the registered
  /// definition, k for a partial application to k arguments.
  int builtinPendingCount() const {
    assert(isBuiltin() && "not a builtin");
    return Pending;
  }
  inline const BuiltinFn &builtinFn() const;
  /// The collected arguments, in order, copied into \p Out (which holds at
  /// least builtinPendingCount() values).
  void builtinPendingInto(ValuePtr *Out) const;

  /// Tag identifying the domain payload type (e.g. "turtle", "regex").
  inline const std::string &opaqueTag() const;
  inline const std::shared_ptr<const void> &opaquePayload() const;

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
  /// A builtin definition taking \p Arity (1..MaxBuiltinArity) arguments.
  static ValuePtr makeBuiltin(std::string Name, int Arity, BuiltinFn Fn);
  /// \p F (a builtin definition or partial application that still lacks
  /// two or more arguments) with \p Arg collected as its next argument.
  static ValuePtr makeBuiltinPartial(ValuePtr F, ValuePtr Arg);
  static ValuePtr makeOpaque(std::string Tag,
                             std::shared_ptr<const void> Payload);

  /// Converts list(char) back to std::string; empty optional when the value
  /// is not a character list.
  static std::optional<std::string> toString(const ValuePtr &V);

protected:
  explicit Value(ValueKind K) : TheKind(K) {}
  /// A builtin's header also carries its arity and collected arguments.
  Value(int Arity, int Pending)
      : TheKind(ValueKind::Builtin), Arity(static_cast<uint8_t>(Arity)),
        Pending(static_cast<uint8_t>(Pending)) {}

private:
  ValueKind TheKind;
  uint8_t Arity = 0;   ///< builtins only
  uint8_t Pending = 0; ///< builtins only
};

namespace layout {

/// Int, Real, Bool and Char: 16 bytes.
struct ScalarValue final : Value {
  explicit ScalarValue(long V) : Value(ValueKind::Int), Int(V) {}
  explicit ScalarValue(double V) : Value(ValueKind::Real), Real(V) {}
  explicit ScalarValue(bool V) : Value(ValueKind::Bool), Bool(V) {}
  explicit ScalarValue(char V) : Value(ValueKind::Char), Char(V) {}
  union {
    long Int;
    double Real;
    bool Bool;
    char Char;
  };
};

/// 32 bytes; the elements live in the vector's own buffer.
struct ListValue final : Value {
  explicit ListValue(std::vector<ValuePtr> Elems)
      : Value(ValueKind::List), Elems(std::move(Elems)) {}
  std::vector<ValuePtr> Elems;
};

/// 32 bytes.
struct ClosureValue final : Value {
  ClosureValue(ExprPtr Body, EnvPtr Env)
      : Value(ValueKind::Closure), Body(Body), Env(std::move(Env)) {}
  ExprPtr Body;
  EnvPtr Env;
};

/// A builtin as registered: its name and native function, stored once.
struct BuiltinDefinition final : Value {
  BuiltinDefinition(std::string Name, int Arity, BuiltinFn Fn)
      : Value(Arity, 0), Name(std::move(Name)), Fn(std::move(Fn)) {}
  std::string Name;
  BuiltinFn Fn;
};

/// A builtin applied to Pending (>= 1) arguments: 48 bytes. Prev is the
/// value it was built from (the definition when Pending is 1), Arg the
/// last argument.
struct BuiltinPartial final : Value {
  BuiltinPartial(const BuiltinDefinition *Def, int Pending, ValuePtr Prev,
                 ValuePtr Arg)
      : Value(Def->builtinArity(), Pending), Def(Def), Prev(std::move(Prev)),
        Arg(std::move(Arg)) {}
  const BuiltinDefinition *Def;
  ValuePtr Prev;
  ValuePtr Arg;
};

/// 56 bytes.
struct OpaqueValue final : Value {
  OpaqueValue(std::string Tag, std::shared_ptr<const void> Payload)
      : Value(ValueKind::Opaque), Tag(std::move(Tag)),
        Payload(std::move(Payload)) {}
  std::string Tag;
  std::shared_ptr<const void> Payload;
};

/// The definition behind a builtin value.
inline const BuiltinDefinition &definitionOf(const Value &V) {
  assert(V.isBuiltin() && "not a builtin");
  return V.builtinPendingCount() == 0
             ? static_cast<const BuiltinDefinition &>(V)
             : *static_cast<const BuiltinPartial &>(V).Def;
}

} // namespace layout

long Value::asInt() const {
  assert(isInt() && "not an int");
  return static_cast<const layout::ScalarValue *>(this)->Int;
}

double Value::asReal() const {
  assert((isReal() || isInt()) && "not numeric");
  const auto *S = static_cast<const layout::ScalarValue *>(this);
  return isInt() ? static_cast<double>(S->Int) : S->Real;
}

bool Value::asBool() const {
  assert(isBool() && "not a bool");
  return static_cast<const layout::ScalarValue *>(this)->Bool;
}

char Value::asChar() const {
  assert(isChar() && "not a char");
  return static_cast<const layout::ScalarValue *>(this)->Char;
}

const std::vector<ValuePtr> &Value::asList() const {
  assert(isList() && "not a list");
  return static_cast<const layout::ListValue *>(this)->Elems;
}

ExprPtr Value::closureBody() const {
  assert(isClosure() && "not a closure");
  return static_cast<const layout::ClosureValue *>(this)->Body;
}

const EnvPtr &Value::closureEnv() const {
  assert(isClosure() && "not a closure");
  return static_cast<const layout::ClosureValue *>(this)->Env;
}

const std::string &Value::builtinName() const {
  return layout::definitionOf(*this).Name;
}

const BuiltinFn &Value::builtinFn() const {
  return layout::definitionOf(*this).Fn;
}

const std::string &Value::opaqueTag() const {
  assert(isOpaque() && "not opaque");
  return static_cast<const layout::OpaqueValue *>(this)->Tag;
}

const std::shared_ptr<const void> &Value::opaquePayload() const {
  assert(isOpaque() && "not opaque");
  return static_cast<const layout::OpaqueValue *>(this)->Payload;
}

} // namespace dc

#endif // DC_CORE_VALUE_H
