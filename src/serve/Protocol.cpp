//===- serve/Protocol.cpp - dc_serve wire protocol ------------------------===//

#include "serve/Protocol.h"

#include <cctype>
#include <climits>
#include <cstdlib>

using namespace dc;
using namespace dc::serve;

//===----------------------------------------------------------------------===//
// Type parsing
//===----------------------------------------------------------------------===//

namespace {

bool setError(std::string *ErrorOut, const std::string &Msg) {
  if (ErrorOut && ErrorOut->empty())
    *ErrorOut = Msg;
  return false;
}

/// Recursive-descent parser for Type::show() output. Grammar:
///
///   type := atom ("->" type)?           (arrows right-associative)
///   atom := "(" type ")"
///         | ident ("(" type ("," type)* ")")?
///
/// "tN" idents are type variables; everything else is a constructor.
class TypeParser {
public:
  TypeParser(const std::string &Text, std::string *ErrorOut)
      : Text(Text), ErrorOut(ErrorOut) {}

  TypePtr run() {
    TypePtr T = parseType();
    if (!T)
      return nullptr;
    skipSpace();
    if (Pos != Text.size()) {
      setError(ErrorOut, "trailing content in type at offset " +
                             std::to_string(Pos));
      return nullptr;
    }
    return T;
  }

private:
  void skipSpace() {
    while (Pos < Text.size() && std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }

  TypePtr parseType() {
    TypePtr Left = parseAtom();
    if (!Left)
      return nullptr;
    skipSpace();
    if (Pos + 1 < Text.size() && Text[Pos] == '-' && Text[Pos + 1] == '>') {
      Pos += 2;
      skipSpace();
      TypePtr Right = parseType();
      if (!Right)
        return nullptr;
      return Type::arrow(Left, Right);
    }
    return Left;
  }

  TypePtr parseAtom() {
    skipSpace();
    if (Pos >= Text.size()) {
      setError(ErrorOut, "unexpected end of type");
      return nullptr;
    }
    if (Text[Pos] == '(') {
      ++Pos;
      TypePtr Inner = parseType();
      if (!Inner)
        return nullptr;
      skipSpace();
      if (Pos >= Text.size() || Text[Pos] != ')') {
        setError(ErrorOut, "expected ')' in type at offset " +
                               std::to_string(Pos));
        return nullptr;
      }
      ++Pos;
      return Inner;
    }
    std::string Name = parseIdent();
    if (Name.empty()) {
      setError(ErrorOut,
               "expected type name at offset " + std::to_string(Pos));
      return nullptr;
    }
    // "t0", "t1", ... are type variables (Type::show()'s rendering).
    if (Name.size() > 1 && Name[0] == 't' &&
        Name.find_first_not_of("0123456789", 1) == std::string::npos)
      return Type::variable(std::atoi(Name.c_str() + 1));
    std::vector<TypePtr> Args;
    skipSpace();
    if (Pos < Text.size() && Text[Pos] == '(') {
      ++Pos;
      while (true) {
        TypePtr Arg = parseType();
        if (!Arg)
          return nullptr;
        Args.push_back(std::move(Arg));
        skipSpace();
        if (Pos >= Text.size()) {
          setError(ErrorOut, "unterminated type constructor arguments");
          return nullptr;
        }
        char C = Text[Pos++];
        if (C == ')')
          break;
        if (C != ',') {
          setError(ErrorOut, "expected ',' or ')' in type at offset " +
                                 std::to_string(Pos - 1));
          return nullptr;
        }
      }
    }
    return Type::constructor(std::move(Name), std::move(Args));
  }

  std::string parseIdent() {
    size_t Start = Pos;
    while (Pos < Text.size() &&
           (std::isalnum(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '_'))
      ++Pos;
    return Text.substr(Start, Pos - Start);
  }

  const std::string &Text;
  std::string *ErrorOut;
  size_t Pos = 0;
};

} // namespace

TypePtr dc::serve::parseTypeString(const std::string &Text,
                                   std::string *ErrorOut) {
  return TypeParser(Text, ErrorOut).run();
}

//===----------------------------------------------------------------------===//
// Typed JSON <-> Value conversion
//===----------------------------------------------------------------------===//

namespace {

bool isGround(const TypePtr &T, const char *Name) {
  return T->isConstructor() && T->name() == Name && T->arguments().empty();
}

bool isCharList(const TypePtr &T) {
  return T->isConstructor() && T->name() == "list" &&
         T->arguments().size() == 1 && isGround(T->arguments()[0], "char");
}

} // namespace

ValuePtr dc::serve::jsonToValue(const Json &J, const TypePtr &T,
                                std::string *ErrorOut) {
  auto Fail = [&](const std::string &Msg) -> ValuePtr {
    setError(ErrorOut, Msg);
    return nullptr;
  };
  if (!T || T->isVariable())
    return Fail("cannot build a value at a polymorphic type");
  if (isGround(T, "int")) {
    if (!J.isNumber() || !J.isInteger())
      return Fail("expected an integer for type int, got " + J.dump());
    return Value::makeInt(static_cast<long>(J.asInteger()));
  }
  if (isGround(T, "real")) {
    if (!J.isNumber())
      return Fail("expected a number for type real, got " + J.dump());
    return Value::makeReal(J.asNumber());
  }
  if (isGround(T, "bool")) {
    if (!J.isBool())
      return Fail("expected a boolean for type bool, got " + J.dump());
    return Value::makeBool(J.asBool());
  }
  if (isGround(T, "char")) {
    if (!J.isString() || J.asString().size() != 1)
      return Fail("expected a 1-character string for type char, got " +
                  J.dump());
    return Value::makeChar(J.asString()[0]);
  }
  if (isCharList(T) && J.isString())
    return Value::makeString(J.asString());
  if (T->isConstructor() && T->name() == "list" &&
      T->arguments().size() == 1) {
    if (!J.isArray())
      return Fail("expected an array for type " + T->show() + ", got " +
                  J.dump());
    std::vector<ValuePtr> Elems;
    Elems.reserve(J.items().size());
    for (const Json &Item : J.items()) {
      ValuePtr V = jsonToValue(Item, T->arguments()[0], ErrorOut);
      if (!V)
        return nullptr;
      Elems.push_back(std::move(V));
    }
    return Value::makeList(std::move(Elems));
  }
  return Fail("no JSON representation for type " + T->show());
}

Json dc::serve::valueToJson(const ValuePtr &V) {
  if (!V)
    return Json::null();
  switch (V->kind()) {
  case ValueKind::Int:
    return Json::integer(V->asInt());
  case ValueKind::Real:
    return Json::number(V->asReal());
  case ValueKind::Bool:
    return Json::boolean(V->asBool());
  case ValueKind::Char:
    return Json::string(std::string(1, V->asChar()));
  case ValueKind::List: {
    // Character lists render as strings, matching the input convention.
    if (std::optional<std::string> S = Value::toString(V))
      if (!V->asList().empty())
        return Json::string(*S);
    Json Arr = Json::array();
    for (const ValuePtr &E : V->asList())
      Arr.push(valueToJson(E));
    return Arr;
  }
  default:
    return Json::string(V->show());
  }
}

//===----------------------------------------------------------------------===//
// Request parsing
//===----------------------------------------------------------------------===//

std::optional<Request> dc::serve::parseRequestLine(const std::string &Line,
                                                   std::string *ErrorOut) {
  std::optional<Json> Parsed = Json::parse(Line, ErrorOut);
  if (!Parsed)
    return std::nullopt;
  if (!Parsed->isObject()) {
    setError(ErrorOut, "request must be a JSON object");
    return std::nullopt;
  }
  Request R;
  if (const Json *Id = Parsed->find("id"))
    R.Id = *Id;
  const Json *Method = Parsed->find("method");
  if (!Method || !Method->isString()) {
    setError(ErrorOut, "request is missing a string 'method'");
    return std::nullopt;
  }
  R.Method = Method->asString();
  if (const Json *Params = Parsed->find("params")) {
    if (!Params->isObject() && !Params->isNull()) {
      setError(ErrorOut, "'params' must be an object");
      return std::nullopt;
    }
    R.Params = *Params;
  }
  return R;
}

namespace {

/// Reads an optional integer member into \p Out (left alone when absent);
/// false + error when the member is not an integer in [0, \p Max], so no
/// value wraps when stored in its field's type.
bool readCount(const Json &Params, const char *Key, long long Max,
               long long &Out, std::string *ErrorOut) {
  const Json *J = Params.find(Key);
  if (!J)
    return true;
  if (!J->isNumber() || !J->isInteger() || J->asInteger() < 0 ||
      J->asInteger() > Max) {
    setError(ErrorOut, std::string("'") + Key +
                           "' must be an integer in [0, " +
                           std::to_string(Max) + "]");
    return false;
  }
  Out = J->asInteger();
  return true;
}

TaskPtr buildInlineTask(const Json &Params, std::string *ErrorOut) {
  const Json *Name = Params.find("name");
  const Json *RequestStr = Params.find("request");
  const Json *Examples = Params.find("examples");
  if (!RequestStr || !RequestStr->isString()) {
    setError(ErrorOut, "inline task needs a string 'request' type");
    return nullptr;
  }
  if (!Examples || !Examples->isArray() || Examples->items().empty()) {
    setError(ErrorOut, "inline task needs a non-empty 'examples' array");
    return nullptr;
  }
  TypePtr Request = parseTypeString(RequestStr->asString(), ErrorOut);
  if (!Request)
    return nullptr;
  if (!Request->isMonomorphic()) {
    setError(ErrorOut, "request type must be monomorphic, got " +
                           Request->show());
    return nullptr;
  }
  std::vector<TypePtr> ArgTypes = functionArguments(Request);
  TypePtr OutType = functionReturn(Request);
  std::vector<Example> Built;
  Built.reserve(Examples->items().size());
  for (const Json &Ex : Examples->items()) {
    const Json *Inputs = Ex.find("inputs");
    const Json *Output = Ex.find("output");
    if (!Ex.isObject() || !Inputs || !Inputs->isArray() || !Output) {
      setError(ErrorOut,
               "each example needs an 'inputs' array and an 'output'");
      return nullptr;
    }
    if (Inputs->items().size() != ArgTypes.size()) {
      setError(ErrorOut, "example has " +
                             std::to_string(Inputs->items().size()) +
                             " inputs but the request type takes " +
                             std::to_string(ArgTypes.size()));
      return nullptr;
    }
    Example E;
    for (size_t I = 0; I < ArgTypes.size(); ++I) {
      ValuePtr V = jsonToValue(Inputs->items()[I], ArgTypes[I], ErrorOut);
      if (!V)
        return nullptr;
      E.Inputs.push_back(std::move(V));
    }
    E.Output = jsonToValue(*Output, OutType, ErrorOut);
    if (!E.Output)
      return nullptr;
    Built.push_back(std::move(E));
  }
  std::string TaskName =
      Name && Name->isString() ? Name->asString() : "inline";
  return std::make_shared<Task>(TaskName, Request, std::move(Built));
}

} // namespace

std::optional<SolveParams>
dc::serve::parseSolveParams(const Json &Params, std::string *ErrorOut) {
  if (!Params.isObject()) {
    setError(ErrorOut, "'solve' needs a params object");
    return std::nullopt;
  }
  SolveParams SP;
  if (const Json *Domain = Params.find("domain")) {
    if (!Domain->isString() || Domain->asString().empty()) {
      setError(ErrorOut, "'domain' must be a non-empty string");
      return std::nullopt;
    }
    SP.Domain = Domain->asString();
  }
  const Json *TaskName = Params.find("task");
  if (TaskName) {
    if (!TaskName->isString() || TaskName->asString().empty()) {
      setError(ErrorOut, "'task' must be a non-empty string");
      return std::nullopt;
    }
    SP.TaskName = TaskName->asString();
  } else {
    SP.InlineTask = buildInlineTask(Params, ErrorOut);
    if (!SP.InlineTask)
      return std::nullopt;
  }
  long long TimeoutMs = -1, NodeBudget = 0, FrontierSize = 0;
  if (!readCount(Params, "timeout_ms", LONG_MAX, TimeoutMs, ErrorOut) ||
      !readCount(Params, "node_budget", LONG_MAX, NodeBudget, ErrorOut) ||
      !readCount(Params, "frontier_size", INT_MAX, FrontierSize, ErrorOut))
    return std::nullopt;
  SP.TimeoutMs = static_cast<long>(TimeoutMs);
  SP.NodeBudget = static_cast<long>(NodeBudget);
  SP.FrontierSize = static_cast<int>(FrontierSize);
  return SP;
}

std::optional<ReloadParams>
dc::serve::parseReloadParams(const Json &Params, std::string *ErrorOut) {
  ReloadParams RP;
  if (Params.isNull())
    return RP; // bare reload: default domain, current files
  if (!Params.isObject()) {
    setError(ErrorOut, "'reload' params must be an object");
    return std::nullopt;
  }
  auto ReadString = [&](const char *Key, bool AllowEmpty,
                        std::optional<std::string> &Out) {
    const Json *J = Params.find(Key);
    if (!J)
      return true;
    if (!J->isString() || (!AllowEmpty && J->asString().empty())) {
      setError(ErrorOut, std::string("'") + Key + "' must be a " +
                             (AllowEmpty ? "string" : "non-empty string"));
      return false;
    }
    Out = J->asString();
    return true;
  };
  std::optional<std::string> Domain;
  if (!ReadString("domain", /*AllowEmpty=*/false, Domain))
    return std::nullopt;
  if (Domain)
    RP.Domain = *Domain;
  // Empty strings are meaningful overrides: "" clears the model (serve
  // grammar-only) or the checkpoint (serve uniform base weights).
  if (!ReadString("checkpoint", /*AllowEmpty=*/true, RP.Checkpoint) ||
      !ReadString("model", /*AllowEmpty=*/true, RP.Model))
    return std::nullopt;
  long long Seed = -1;
  if (!readCount(Params, "seed", UINT_MAX, Seed, ErrorOut))
    return std::nullopt;
  if (Seed >= 0)
    RP.Seed = static_cast<unsigned>(Seed);
  return RP;
}

//===----------------------------------------------------------------------===//
// Response building
//===----------------------------------------------------------------------===//

Json dc::serve::makeOkResponse(const Json &Id, Json Result) {
  Json R = Json::object();
  R.set("id", Id);
  R.set("ok", Json::boolean(true));
  R.set("result", std::move(Result));
  return R;
}

Json dc::serve::makeErrorResponse(const Json &Id, const char *Code,
                                  const std::string &Message) {
  Json Err = Json::object();
  Err.set("code", Json::string(Code));
  Err.set("message", Json::string(Message));
  Json R = Json::object();
  R.set("id", Id);
  R.set("ok", Json::boolean(false));
  R.set("error", std::move(Err));
  return R;
}
