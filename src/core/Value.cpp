//===- core/Value.cpp - Runtime values implementation ---------------------===//

#include "core/Value.h"

#include <cmath>
#include <sstream>

using namespace dc;
using namespace dc::layout;

EnvPtr dc::envExtend(EnvPtr Env, ValuePtr V) {
  auto Node = std::make_shared<EnvNode>();
  Node->Head = std::move(V);
  Node->Tail = std::move(Env);
  return Node;
}

ValuePtr dc::envLookup(const EnvPtr &Env, int I) {
  const EnvNode *Cur = Env.get();
  while (Cur && I > 0) {
    Cur = Cur->Tail.get();
    --I;
  }
  return Cur ? Cur->Head : nullptr;
}

// The layout sizes Value.h promises, on 64-bit targets.
static_assert(sizeof(void *) != 8 || sizeof(ScalarValue) == 16);
static_assert(sizeof(void *) != 8 || sizeof(ListValue) <= 32);
static_assert(sizeof(void *) != 8 || sizeof(ClosureValue) == 32);
static_assert(sizeof(void *) != 8 || sizeof(BuiltinPartial) == 48);
static_assert(sizeof(void *) != 8 || sizeof(OpaqueValue) <= 56);

bool Value::equals(const Value &Other) const {
  if (TheKind != Other.TheKind) {
    // Int/Real compare numerically across kinds; everything else requires
    // matching kinds.
    if ((isInt() || isReal()) && (Other.isInt() || Other.isReal()))
      return std::fabs(asReal() - Other.asReal()) < 1e-9;
    return false;
  }
  switch (TheKind) {
  case ValueKind::Int:
    return asInt() == Other.asInt();
  case ValueKind::Real:
    return std::fabs(asReal() - Other.asReal()) < 1e-9;
  case ValueKind::Bool:
    return asBool() == Other.asBool();
  case ValueKind::Char:
    return asChar() == Other.asChar();
  case ValueKind::List: {
    const std::vector<ValuePtr> &L = asList(), &R = Other.asList();
    if (L.size() != R.size())
      return false;
    for (size_t I = 0; I < L.size(); ++I)
      if (!L[I]->equals(*R[I]))
        return false;
    return true;
  }
  case ValueKind::Closure:
  case ValueKind::Builtin:
    return this == &Other;
  case ValueKind::Opaque:
    return opaquePayload().get() == Other.opaquePayload().get();
  }
  return false;
}

std::string Value::show() const {
  switch (TheKind) {
  case ValueKind::Int:
    return std::to_string(asInt());
  case ValueKind::Real: {
    std::ostringstream OS;
    OS << asReal();
    return OS.str();
  }
  case ValueKind::Bool:
    return asBool() ? "true" : "false";
  case ValueKind::Char:
    return std::string("'") + asChar() + "'";
  case ValueKind::List: {
    // Character lists print as quoted strings for readability.
    const std::vector<ValuePtr> &L = asList();
    bool AllChars = !L.empty();
    for (const ValuePtr &E : L)
      AllChars = AllChars && E->isChar();
    if (AllChars) {
      std::string S = "\"";
      for (const ValuePtr &E : L)
        S += E->asChar();
      return S + "\"";
    }
    std::string S = "[";
    for (size_t I = 0; I < L.size(); ++I) {
      if (I)
        S += ", ";
      S += L[I]->show();
    }
    return S + "]";
  }
  case ValueKind::Closure:
    return "<closure " + closureBody()->show() + ">";
  case ValueKind::Builtin:
    return "<builtin " + builtinName() + ">";
  case ValueKind::Opaque:
    return "<" + opaqueTag() + ">";
  }
  return "<?>";
}

void Value::builtinPendingInto(ValuePtr *Out) const {
  const Value *V = this;
  for (int I = builtinPendingCount() - 1; I >= 0; --I) {
    const auto &P = static_cast<const BuiltinPartial &>(*V);
    Out[I] = P.Arg;
    V = P.Prev.get();
  }
}

ValuePtr Value::makeInt(long V) { return std::make_shared<ScalarValue>(V); }

ValuePtr Value::makeReal(double V) {
  return std::make_shared<ScalarValue>(V);
}

ValuePtr Value::makeBool(bool V) { return std::make_shared<ScalarValue>(V); }

ValuePtr Value::makeChar(char V) { return std::make_shared<ScalarValue>(V); }

ValuePtr Value::makeList(std::vector<ValuePtr> Elems) {
  return std::make_shared<ListValue>(std::move(Elems));
}

ValuePtr Value::makeString(const std::string &S) {
  std::vector<ValuePtr> Elems;
  Elems.reserve(S.size());
  for (char C : S)
    Elems.push_back(makeChar(C));
  return makeList(std::move(Elems));
}

ValuePtr Value::makeClosure(ExprPtr Body, EnvPtr Env) {
  return std::make_shared<ClosureValue>(Body, std::move(Env));
}

ValuePtr Value::makeBuiltin(std::string Name, int Arity, BuiltinFn Fn) {
  assert(Arity >= 1 && Arity <= MaxBuiltinArity &&
         "builtins take 1..MaxBuiltinArity arguments");
  return std::make_shared<BuiltinDefinition>(std::move(Name), Arity,
                                             std::move(Fn));
}

ValuePtr Value::makeBuiltinPartial(ValuePtr F, ValuePtr Arg) {
  assert(F && F->isBuiltin() && "partial application requires a builtin");
  const int Pending = F->builtinPendingCount() + 1;
  assert(Pending < F->builtinArity() && "a saturated builtin is a call");
  const BuiltinDefinition *Def = &definitionOf(*F);
  return std::make_shared<BuiltinPartial>(Def, Pending, std::move(F),
                                          std::move(Arg));
}

ValuePtr Value::makeOpaque(std::string Tag,
                           std::shared_ptr<const void> Payload) {
  return std::make_shared<OpaqueValue>(std::move(Tag), std::move(Payload));
}

std::optional<std::string> Value::toString(const ValuePtr &V) {
  if (!V || !V->isList())
    return std::nullopt;
  std::string S;
  for (const ValuePtr &E : V->asList()) {
    if (!E->isChar())
      return std::nullopt;
    S += E->asChar();
  }
  return S;
}
