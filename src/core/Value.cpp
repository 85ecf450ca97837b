//===- core/Value.cpp - Runtime values implementation ---------------------===//

#include "core/Value.h"

#include <cmath>
#include <sstream>

using namespace dc;

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
    return IntVal == Other.IntVal;
  case ValueKind::Real:
    return std::fabs(RealVal - Other.RealVal) < 1e-9;
  case ValueKind::Bool:
    return BoolVal == Other.BoolVal;
  case ValueKind::Char:
    return CharVal == Other.CharVal;
  case ValueKind::List: {
    if (ListVal.size() != Other.ListVal.size())
      return false;
    for (size_t I = 0; I < ListVal.size(); ++I)
      if (!ListVal[I]->equals(*Other.ListVal[I]))
        return false;
    return true;
  }
  case ValueKind::Closure:
  case ValueKind::Builtin:
    return this == &Other;
  case ValueKind::Opaque:
    return Payload.get() == Other.Payload.get();
  }
  return false;
}

std::string Value::show() const {
  switch (TheKind) {
  case ValueKind::Int:
    return std::to_string(IntVal);
  case ValueKind::Real: {
    std::ostringstream OS;
    OS << RealVal;
    return OS.str();
  }
  case ValueKind::Bool:
    return BoolVal ? "true" : "false";
  case ValueKind::Char:
    return std::string("'") + CharVal + "'";
  case ValueKind::List: {
    // Character lists print as quoted strings for readability.
    bool AllChars = !ListVal.empty();
    for (const ValuePtr &E : ListVal)
      AllChars = AllChars && E->isChar();
    if (AllChars) {
      std::string S = "\"";
      for (const ValuePtr &E : ListVal)
        S += E->asChar();
      return S + "\"";
    }
    std::string S = "[";
    for (size_t I = 0; I < ListVal.size(); ++I) {
      if (I)
        S += ", ";
      S += ListVal[I]->show();
    }
    return S + "]";
  }
  case ValueKind::Closure:
    return "<closure " + Body->show() + ">";
  case ValueKind::Builtin:
    return "<builtin " + Name + ">";
  case ValueKind::Opaque:
    return "<" + Name + ">";
  }
  return "<?>";
}

ValuePtr Value::makeInt(long V) {
  auto P = make(ValueKind::Int);
  P->IntVal = V;
  return P;
}

ValuePtr Value::makeReal(double V) {
  auto P = make(ValueKind::Real);
  P->RealVal = V;
  return P;
}

ValuePtr Value::makeBool(bool V) {
  auto P = make(ValueKind::Bool);
  P->BoolVal = V;
  return P;
}

ValuePtr Value::makeChar(char V) {
  auto P = make(ValueKind::Char);
  P->CharVal = V;
  return P;
}

ValuePtr Value::makeList(std::vector<ValuePtr> Elems) {
  auto P = make(ValueKind::List);
  P->ListVal = std::move(Elems);
  return P;
}

ValuePtr Value::makeString(const std::string &S) {
  std::vector<ValuePtr> Elems;
  Elems.reserve(S.size());
  for (char C : S)
    Elems.push_back(makeChar(C));
  return makeList(std::move(Elems));
}

ValuePtr Value::makeClosure(ExprPtr Body, EnvPtr Env) {
  auto P = make(ValueKind::Closure);
  P->Body = Body;
  P->Env = std::move(Env);
  return P;
}

ValuePtr Value::makeBuiltin(std::string Name, int Arity, BuiltinFn Fn) {
  assert(Arity >= 1 && "builtins must take at least one argument");
  auto P = make(ValueKind::Builtin);
  P->Name = std::move(Name);
  P->Arity = Arity;
  P->Fn = std::move(Fn);
  return P;
}

ValuePtr Value::makeBuiltinPartial(const Value &Base,
                                   std::vector<ValuePtr> Pending) {
  assert(Base.isBuiltin() && "partial application requires a builtin");
  auto P = make(ValueKind::Builtin);
  P->Name = Base.Name;
  P->Arity = Base.Arity;
  P->Fn = Base.Fn;
  P->Pending = std::move(Pending);
  return P;
}

ValuePtr Value::makeOpaque(std::string Tag,
                           std::shared_ptr<const void> Payload) {
  auto P = make(ValueKind::Opaque);
  P->Name = std::move(Tag);
  P->Payload = std::move(Payload);
  return P;
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
