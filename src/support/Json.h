// Json.h - shared JSON emission and validation helpers.
//
// Every JSON producer in the repo (batch trace, synthesis report, Chrome
// trace) goes through these helpers so escaping and number formatting are
// correct in exactly one place:
//  * escape() implements RFC 8259 string escaping (quotes, backslashes,
//    and control characters as \uXXXX / short forms);
//  * number() formats doubles locale-independently — printf's %f honours
//    LC_NUMERIC and emits a decimal comma under e.g. de_DE, which is not
//    valid JSON;
//  * parse() and validate() share one recursive-descent reader: parse()
//    builds a Value tree (object member order preserved, numbers kept as
//    doubles; asInt() hands back only integral, int64-range ones),
//    validate() is its check-only mode, which builds nothing, and
//    parseShallow() builds only the outer value's members;
//  * writeFile() is the one way a JSON artifact reaches disk (Chrome
//    trace, metrics snapshot, batch trace, DSE report and cache, fuzz
//    report and repro, bench rows): it validates first, so a malformed
//    document fails loudly instead of shipping a broken file.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mha::json {

/// A parsed JSON value. Objects preserve member order; lookups are linear
/// (the documents we read back — QoR caches, trace files — are small).
class Value {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Value() = default;

  Kind kind() const { return kind_; }
  bool isNull() const { return kind_ == Kind::Null; }
  bool isBool() const { return kind_ == Kind::Bool; }
  bool isNumber() const { return kind_ == Kind::Number; }
  bool isString() const { return kind_ == Kind::String; }
  bool isArray() const { return kind_ == Kind::Array; }
  bool isObject() const { return kind_ == Kind::Object; }

  bool asBool(bool fallback = false) const {
    return isBool() ? bool_ : fallback;
  }
  double asDouble(double fallback = 0) const {
    return isNumber() ? number_ : fallback;
  }
  /// The number as an integer: empty unless this is a number that is
  /// integral and within int64_t (so 2.5, 1e300 and a string all are).
  std::optional<int64_t> asInt() const;
  const std::string &asString() const { return string_; }

  const std::vector<Value> &elements() const { return elements_; }
  const std::vector<std::pair<std::string, Value>> &members() const {
    return members_;
  }

  /// Object member lookup (nullptr when absent or not an object).
  const Value *get(std::string_view key) const;

  static Value makeNull() { return Value(); }
  static Value makeBool(bool b);
  static Value makeNumber(double n);
  static Value makeString(std::string s);
  static Value makeArray(std::vector<Value> elements);
  static Value makeObject(std::vector<std::pair<std::string, Value>> members);

private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<Value> elements_;
  std::vector<std::pair<std::string, Value>> members_;
};

/// Parses one complete JSON document (whitespace-padded) into a Value
/// tree. Returns nullopt on malformed input and describes the first
/// problem in `*error` (when non-null). String escapes are decoded;
/// \uXXXX escapes are re-encoded as UTF-8.
std::optional<Value> parse(std::string_view text, std::string *error = nullptr);

/// parse() for protocol lines whose callers read only the outer value's
/// members: those are built (scalars read back as parse() gives them),
/// while every object or array nested below them is checked without
/// building anything and reads as null. Accepts and rejects exactly the
/// texts parse() does, with the same error text.
std::optional<Value> parseShallow(std::string_view text,
                                  std::string *error = nullptr);

/// Escapes `s` for inclusion inside a JSON string literal (no surrounding
/// quotes added).
std::string escape(std::string_view s);

/// Appends escape(s) to `out` (writers that build one string in place).
void appendEscaped(std::string &out, std::string_view s);

/// Formats `value` with `precision` digits after the decimal point using
/// '.' as the decimal separator regardless of the process locale.
/// Non-finite values (which JSON cannot represent) render as 0 with the
/// requested precision.
std::string number(double value, int precision = 3);

/// Formats `value` in the shortest form that round-trips exactly back to
/// the same double (std::to_chars), locale-independent: '.' is always the
/// decimal separator, and a ".0" suffix is appended to integral values
/// ("3" -> "3.0") so IR lexers still see a float token. Handles
/// non-finite values as "nan"/"inf"/"-inf"; callers whose grammar cannot
/// spell those must special-case them first.
std::string shortestDouble(double value);

/// Returns true iff `text` is one complete well-formed JSON value with
/// nothing but whitespace around it — exactly when parse() would succeed.
/// On failure, `*error` (when non-null) describes the first problem and
/// its byte offset, in the same words parse() uses. Both reject a number
/// outside the double range (1e999).
bool validate(std::string_view text, std::string *error = nullptr);

/// Validates `text`, then writes it to `path` (binary, closed and checked).
/// Returns false and fills `*error` (when non-null) when the text is
/// malformed, in which case no file is created, or when the write fails.
bool writeFile(const std::string &path, std::string_view text,
               std::string *error = nullptr);

/// Removes all insignificant whitespace from a JSON document (string-
/// aware: whitespace inside string literals is preserved). Turns a
/// pretty-printed document into a single line — what NDJSON framing
/// (mha-serve) needs before embedding one document inside another.
std::string compact(std::string_view text);

} // namespace mha::json
