#include "support/StringUtils.h"

#include <cctype>
#include <charconv>
#include <cstring>
#include <fstream>

namespace mha {

std::string strfmt(const char *fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list argsCopy;
  va_copy(argsCopy, args);
  int len = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (len < 0) {
    // vsnprintf reports encoding errors (e.g. a malformed multibyte
    // sequence under a UTF-8 locale) as a negative length. Returning an
    // empty string here would silently drop diagnostics, so surface the
    // failure in-band instead of propagating garbage.
    va_end(argsCopy);
    return std::string("<strfmt-error:") + fmt + ">";
  }
  if (len > 0) {
    out.resize(static_cast<size_t>(len));
    std::vsnprintf(out.data(), out.size() + 1, fmt, argsCopy);
  }
  va_end(argsCopy);
  return out;
}

std::vector<std::string> splitString(std::string_view text, char sep,
                                     bool keepEmpty) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= text.size()) {
    size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos)
      pos = text.size();
    std::string_view piece = text.substr(start, pos - start);
    if (keepEmpty || !piece.empty())
      out.emplace_back(piece);
    if (pos == text.size())
      break;
    start = pos + 1;
  }
  return out;
}

std::string firstLine(std::string_view text) {
  return std::string(text.substr(0, text.find('\n')));
}

std::string_view trim(std::string_view text) {
  size_t b = 0, e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b])))
    ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1])))
    --e;
  return text.substr(b, e - b);
}

bool startsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.compare(0, prefix.size(), prefix) == 0;
}

bool endsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string joinStrings(const std::vector<std::string> &parts,
                        std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i)
      out += sep;
    out += parts[i];
  }
  return out;
}

std::optional<int64_t> parseInt(std::string_view text) {
  int64_t value = 0;
  const char *first = text.data();
  const char *last = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(first, last, value, 10);
  if (ec != std::errc() || ptr != last)
    return std::nullopt;
  return value;
}

std::optional<double> parseDouble(std::string_view text) {
  // from_chars accepts "inf"/"nan" spellings; the IR grammars never emit
  // them, so reject any input containing a letter other than the exponent
  // marker before handing off.
  for (char c : text)
    if (std::isalpha(static_cast<unsigned char>(c)) && c != 'e' && c != 'E')
      return std::nullopt;
  double value = 0;
  const char *first = text.data();
  const char *last = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(first, last, value,
                                   std::chars_format::general);
  if (ec != std::errc() || ptr != last)
    return std::nullopt;
  return value;
}

bool isValidIdentifier(std::string_view name) {
  if (name.empty())
    return false;
  auto isHead = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
  };
  auto isBody = [&](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.';
  };
  if (!isHead(name[0]))
    return false;
  for (char c : name.substr(1))
    if (!isBody(c))
      return false;
  return true;
}

bool writeTextFile(const std::string &path, std::string_view text,
                   std::string *error) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    if (error)
      *error = "cannot open " + path + " for writing";
    return false;
  }
  out << text;
  out.close();
  if (!out) {
    if (error)
      *error = "write to " + path + " failed";
    return false;
  }
  return true;
}

} // namespace mha
