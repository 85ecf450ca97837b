//===- serve/Json.h - Minimal JSON value, parser, and writer --------------===//
//
// Part of the DreamCoder C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The repo's one JSON module, and it stays dependency-free: a small
/// self-contained JSON value type with a strict recursive-descent parser
/// and a writer. It is compiled into dc_obs, so the telemetry exports
/// (obs/Metrics.h, obs/Trace.h), the bench reports (bench/BenchUtil.h) and
/// the dc_serve wire format (line-delimited JSON) all write through it,
/// and the fuzz-tested parser reads every one of them back. Design points
/// that matter for a network service:
///
///   * Parsing is bounded: nesting depth is capped (stack safety against
///     hostile input) and errors carry a byte offset for diagnostics.
///   * Numbers remember whether they were written as integers, so request
///     ids and budgets round-trip without float formatting surprises.
///   * Object member order is preserved (responses read naturally in
///     logs); lookup is linear, which is fine at protocol sizes.
///   * JSON has no Inf/NaN: a non-finite number is written as null.
///
//===----------------------------------------------------------------------===//

#ifndef DC_SERVE_JSON_H
#define DC_SERVE_JSON_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dc::serve {

/// One JSON value (null / bool / number / string / array / object).
class Json {
public:
  enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };

  /// Maximum container nesting accepted by parse() — protocol messages
  /// are a few levels deep; anything deeper is hostile or broken.
  static constexpr int MaxDepth = 64;

  Json() = default; ///< null

  static Json null() { return Json(); }
  static Json boolean(bool B) {
    Json J(Kind::Bool);
    J.BoolVal = B;
    return J;
  }
  static Json number(double D) {
    Json J(Kind::Number);
    J.NumVal = D;
    return J;
  }
  static Json integer(long long I) {
    Json J(Kind::Number);
    J.NumVal = static_cast<double>(I);
    J.IntVal = I;
    J.IsInt = true;
    return J;
  }
  static Json string(std::string S) {
    Json J(Kind::String);
    J.StrVal = std::move(S);
    return J;
  }
  static Json array() { return Json(Kind::Array); }
  static Json object() { return Json(Kind::Object); }

  Kind kind() const { return TheKind; }
  bool isNull() const { return TheKind == Kind::Null; }
  bool isBool() const { return TheKind == Kind::Bool; }
  bool isNumber() const { return TheKind == Kind::Number; }
  bool isString() const { return TheKind == Kind::String; }
  bool isArray() const { return TheKind == Kind::Array; }
  bool isObject() const { return TheKind == Kind::Object; }
  /// Number written without fraction/exponent and representable exactly.
  bool isInteger() const { return IsInt; }

  bool asBool() const { return BoolVal; }
  double asNumber() const { return NumVal; }
  long long asInteger() const { return IntVal; }
  const std::string &asString() const { return StrVal; }

  /// Array elements (valid for arrays; empty otherwise).
  const std::vector<Json> &items() const { return Items; }
  std::vector<Json> &items() { return Items; }
  void push(Json J) { Items.push_back(std::move(J)); }

  /// Object members in insertion order.
  const std::vector<std::pair<std::string, Json>> &members() const {
    return Members;
  }
  /// Sets (or overwrites) a member; returns *this for chaining literals.
  Json &set(std::string Key, Json Value);
  /// Member lookup; nullptr when absent or not an object.
  const Json *find(std::string_view Key) const;

  /// Compact single-line rendering (the wire format — no raw newlines can
  /// appear inside a line-delimited message; they are always escaped).
  std::string dump() const;

  /// Strict parse of exactly one JSON document (trailing non-space input
  /// is an error). On failure returns nullopt and, when \p ErrorOut is
  /// non-null, a diagnostic with the byte offset.
  static std::optional<Json> parse(std::string_view Text,
                                   std::string *ErrorOut = nullptr);

private:
  explicit Json(Kind K) : TheKind(K) {}

  Kind TheKind = Kind::Null;
  bool BoolVal = false;
  bool IsInt = false;
  double NumVal = 0;
  long long IntVal = 0;
  std::string StrVal;
  std::vector<Json> Items;
  std::vector<std::pair<std::string, Json>> Members;
};

} // namespace dc::serve

#endif // DC_SERVE_JSON_H
