#include "support/Json.h"

#include "support/StringUtils.h"

#include <cctype>
#include <charconv>
#include <cmath>

namespace mha::json {

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  appendEscaped(out, s);
  return out;
}

void appendEscaped(std::string &out, std::string_view s) {
  for (char ch : s) {
    unsigned char c = static_cast<unsigned char>(ch);
    switch (c) {
    case '"':
      out += "\\\"";
      break;
    case '\\':
      out += "\\\\";
      break;
    case '\b':
      out += "\\b";
      break;
    case '\f':
      out += "\\f";
      break;
    case '\n':
      out += "\\n";
      break;
    case '\r':
      out += "\\r";
      break;
    case '\t':
      out += "\\t";
      break;
    default:
      if (c < 0x20)
        out += strfmt("\\u%04x", c);
      else
        out += ch;
    }
  }
}

std::string number(double value, int precision) {
  if (!std::isfinite(value))
    value = 0;
  std::string out = strfmt("%.*f", precision, value);
  // %f uses LC_NUMERIC's decimal separator; JSON requires '.'.
  for (char &c : out)
    if (c == ',')
      c = '.';
  return out;
}

std::string shortestDouble(double value) {
  if (std::isnan(value))
    return "nan";
  if (std::isinf(value))
    return value < 0 ? "-inf" : "inf";
  char buf[64];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  (void)ec; // 64 bytes always suffice for the shortest double form
  std::string out(buf, ptr);
  // to_chars emits "3" / "1e+20" for integral values; IR lexers key the
  // int/float distinction off the token shape, so force a mantissa dot
  // when neither '.' nor an exponent is present.
  if (out.find('.') == std::string::npos &&
      out.find('e') == std::string::npos &&
      out.find('E') == std::string::npos)
    out += ".0";
  return out;
}

namespace {

void appendUtf8(std::string &out, unsigned code) {
  if (code < 0x80) {
    out += static_cast<char>(code);
  } else if (code < 0x800) {
    out += static_cast<char>(0xc0 | (code >> 6));
    out += static_cast<char>(0x80 | (code & 0x3f));
  } else {
    out += static_cast<char>(0xe0 | (code >> 12));
    out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
    out += static_cast<char>(0x80 | (code & 0x3f));
  }
}

/// The one recursive-descent JSON grammar behind parse(), parseShallow()
/// and validate(). Every value function takes an output slot, null in
/// check mode: parse() runs Reader<true> and gets a Value tree; validate()
/// runs Reader<false>, whose slots are all null. `Build` tells the
/// compiler what the slot's null test would tell it at run time, so the
/// check-only instantiation folds the building away and constructs no
/// Value; with a run-time test instead, validate() measured about 20%
/// slower. parseShallow() runs Reader<true, true>, which hands every
/// object or array below the outer value to the check-only reader, so
/// they read as null.
template <bool Build, bool Shallow = false> class Reader {
  template <bool, bool> friend class Reader;

public:
  explicit Reader(std::string_view text) : text_(text) {}

  bool run(Value *out, std::string *error) {
    skipWs();
    bool ok = value(out, 0);
    if (ok) {
      skipWs();
      if (pos_ != text_.size())
        ok = fail("trailing characters after value");
    }
    if (!ok && error)
      *error = strfmt("%s at offset %zu", message_, errorPos_);
    return ok;
  }

private:
  bool fail(const char *what) {
    if (!message_) {
      message_ = what;
      errorPos_ = pos_;
    }
    return false;
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }
  bool atDigit() const {
    return !eof() && std::isdigit(static_cast<unsigned char>(peek()));
  }

  void skipWs() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                      peek() == '\r'))
      ++pos_;
  }

  /// Consumes a run of digits; false when there was none.
  bool digits() {
    size_t start = pos_;
    while (atDigit())
      ++pos_;
    return pos_ > start;
  }

  bool literal(Value *out) {
    std::string_view word = peek() == 't'   ? "true"
                            : peek() == 'f' ? "false"
                                            : "null";
    if (text_.substr(pos_, word.size()) != word)
      return fail("invalid literal");
    pos_ += word.size();
    if (Build && word != "null")
      *out = Value::makeBool(word == "true");
    return true;
  }

  bool value(Value *out, int depth) {
    if (depth > 128)
      return fail("nesting too deep");
    if (eof())
      return fail("unexpected end of input");
    switch (peek()) {
    case '{':
    case '[':
      if (Shallow && depth > 0)
        return checkOnly(depth);
      return peek() == '{' ? object(out, depth) : array(out, depth);
    case '"': {
      if (!Build)
        return string(nullptr);
      std::string s;
      if (!string(&s))
        return false;
      *out = Value::makeString(std::move(s));
      return true;
    }
    case 't':
    case 'f':
    case 'n':
      return literal(out);
    default:
      return numberToken(out);
    }
  }

  /// Checks the value at the cursor with the check-only reader, at the
  /// same offset and depth, so errors read exactly as parse()'s would.
  bool checkOnly(int depth) {
    Reader<false> check(text_);
    check.pos_ = pos_;
    bool ok = check.value(nullptr, depth);
    pos_ = check.pos_;
    if (!ok) {
      message_ = check.message_;
      errorPos_ = check.errorPos_;
    }
    return ok;
  }

  /// The comma-separated body of an array or object, after its opening
  /// bracket: calls `item` for each element up to `close`.
  template <typename Item>
  bool sequence(char close, const char *unterminated, const char *expected,
                Item item) {
    ++pos_; // '[' or '{'
    skipWs();
    if (!eof() && peek() == close) {
      ++pos_;
      return true;
    }
    while (true) {
      skipWs();
      if (!item())
        return false;
      skipWs();
      if (eof())
        return fail(unterminated);
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == close) {
        ++pos_;
        return true;
      }
      return fail(expected);
    }
  }

  bool object(Value *out, int depth) {
    std::vector<std::pair<std::string, Value>> members;
    bool ok = sequence(
        '}', "unterminated object", "expected ',' or '}' in object", [&] {
          if (eof() || peek() != '"')
            return fail("expected object key");
          auto *member = Build ? &members.emplace_back() : nullptr;
          if (!string(Build ? &member->first : nullptr))
            return false;
          skipWs();
          if (eof() || peek() != ':')
            return fail("expected ':' after object key");
          ++pos_;
          skipWs();
          return value(Build ? &member->second : nullptr, depth + 1);
        });
    if (ok && Build)
      *out = Value::makeObject(std::move(members));
    return ok;
  }

  bool array(Value *out, int depth) {
    std::vector<Value> elements;
    bool ok = sequence(
        ']', "unterminated array", "expected ',' or ']' in array", [&] {
          return value(Build ? &elements.emplace_back() : nullptr, depth + 1);
        });
    if (ok && Build)
      *out = Value::makeArray(std::move(elements));
    return ok;
  }

  /// Reads a string literal, decoding it into `*out` when building.
  /// Unescaped runs are scanned in a tight loop and appended whole.
  bool string(std::string *out) {
    ++pos_; // opening quote
    while (true) {
      size_t run = pos_;
      while (!eof() && peek() != '"' && peek() != '\\' &&
             static_cast<unsigned char>(peek()) >= 0x20)
        ++pos_;
      if (Build)
        out->append(text_.data() + run, pos_ - run);
      if (eof())
        return fail("unterminated string");
      if (peek() == '"') {
        ++pos_;
        return true;
      }
      if (peek() != '\\')
        return fail("unescaped control character in string");
      ++pos_;
      if (eof())
        return fail("unterminated escape");
      char esc = peek();
      if (esc == 'u') {
        ++pos_;
        unsigned code = 0;
        for (int i = 0; i < 4; ++i, ++pos_) {
          if (eof() || !std::isxdigit(static_cast<unsigned char>(peek())))
            return fail("invalid \\u escape");
          char h = peek();
          code = code * 16 + (h <= '9' ? h - '0' : (h | 0x20) - 'a' + 10);
        }
        if (Build)
          appendUtf8(*out, code);
        continue;
      }
      // Pairs of (escape letter, decoded character).
      static constexpr std::string_view kEscapes =
          "\"\"\\\\//b\bf\fn\nr\rt\t";
      size_t at = 0;
      while (at < kEscapes.size() && kEscapes[at] != esc)
        at += 2;
      if (at == kEscapes.size())
        return fail("invalid escape character");
      if (Build)
        *out += kEscapes[at + 1];
      ++pos_;
    }
  }

  /// Scans the exact RFC 8259 number grammar in one pass.
  bool numberToken(Value *out) {
    size_t start = pos_;
    if (!eof() && peek() == '-')
      ++pos_;
    if (!atDigit())
      return fail("invalid number");
    if (peek() == '0')
      ++pos_;
    else
      digits();
    if (!eof() && peek() == '.') {
      ++pos_;
      if (!digits())
        return fail("digit required after decimal point");
    }
    bool exponent = !eof() && (peek() == 'e' || peek() == 'E');
    if (exponent) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-'))
        ++pos_;
      if (!digits())
        return fail("digit required in exponent");
    }
    // Only a token with an exponent or hundreds of digits can fall
    // outside the double range, so check mode converts just those and
    // both modes reject the same numbers.
    if (!Build && !exponent && pos_ - start < 300)
      return true;
    // from_chars, unlike strtod, ignores LC_NUMERIC, and it accepts every
    // token the grammar above does, so only the range can fail.
    double parsed = 0;
    if (std::from_chars(text_.data() + start, text_.data() + pos_, parsed)
            .ec != std::errc()) {
      pos_ = start;
      return fail("number out of double range");
    }
    if (Build)
      *out = Value::makeNumber(parsed);
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
  const char *message_ = nullptr;
  size_t errorPos_ = 0;
};

} // namespace

std::optional<int64_t> Value::asInt() const {
  // 2^63 is exact as a double; every integral double in [-2^63, 2^63)
  // converts to int64_t without loss. NaN fails both comparisons.
  constexpr double kLimit = 9223372036854775808.0;
  if (!isNumber() || !(number_ >= -kLimit && number_ < kLimit) ||
      std::trunc(number_) != number_)
    return std::nullopt;
  return static_cast<int64_t>(number_);
}

const Value *Value::get(std::string_view key) const {
  if (!isObject())
    return nullptr;
  for (const auto &[name, value] : members_)
    if (name == key)
      return &value;
  return nullptr;
}

Value Value::makeBool(bool b) {
  Value v;
  v.kind_ = Kind::Bool;
  v.bool_ = b;
  return v;
}

Value Value::makeNumber(double n) {
  Value v;
  v.kind_ = Kind::Number;
  v.number_ = n;
  return v;
}

Value Value::makeString(std::string s) {
  Value v;
  v.kind_ = Kind::String;
  v.string_ = std::move(s);
  return v;
}

Value Value::makeArray(std::vector<Value> elements) {
  Value v;
  v.kind_ = Kind::Array;
  v.elements_ = std::move(elements);
  return v;
}

Value Value::makeObject(std::vector<std::pair<std::string, Value>> members) {
  Value v;
  v.kind_ = Kind::Object;
  v.members_ = std::move(members);
  return v;
}

bool validate(std::string_view text, std::string *error) {
  return Reader<false>(text).run(nullptr, error);
}

std::optional<Value> parse(std::string_view text, std::string *error) {
  Value result;
  if (!Reader<true>(text).run(&result, error))
    return std::nullopt;
  return result;
}

std::optional<Value> parseShallow(std::string_view text, std::string *error) {
  Value result;
  if (!Reader<true, true>(text).run(&result, error))
    return std::nullopt;
  return result;
}

bool writeFile(const std::string &path, std::string_view text,
               std::string *error) {
  std::string problem;
  if (!validate(text, &problem)) {
    if (error)
      *error = "not well-formed JSON: " + problem;
    return false;
  }
  return writeTextFile(path, text, error);
}

std::string compact(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  bool inString = false;
  bool escaped = false;
  for (char c : text) {
    if (inString) {
      out += c;
      if (escaped)
        escaped = false;
      else if (c == '\\')
        escaped = true;
      else if (c == '"')
        inString = false;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
      continue;
    out += c;
    if (c == '"')
      inString = true;
  }
  return out;
}

} // namespace mha::json
