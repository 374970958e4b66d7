// StringUtils.h - string helpers used by printers, parsers and reports,
// and the checked text-file writer they share.
#pragma once

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mha {

/// printf-style formatting into a std::string.
std::string strfmt(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/// Splits `text` on `sep`, optionally keeping empty fields.
std::vector<std::string> splitString(std::string_view text, char sep,
                                     bool keepEmpty = false);

/// The text up to (not including) the first newline; all of `text` when
/// it has none.
std::string firstLine(std::string_view text);

/// Removes leading/trailing whitespace.
std::string_view trim(std::string_view text);

bool startsWith(std::string_view text, std::string_view prefix);
bool endsWith(std::string_view text, std::string_view suffix);

/// Joins `parts` with `sep` between elements.
std::string joinStrings(const std::vector<std::string> &parts,
                        std::string_view sep);

/// True if `name` is a valid identifier ([A-Za-z_][A-Za-z0-9_.]*).
bool isValidIdentifier(std::string_view name);

/// Strictly parses the whole of `text` as a base-10 integer (optional
/// leading '-'). Rejects empty input, whitespace, trailing characters and
/// out-of-range values — unlike atoi/atoll, which silently return 0 or
/// stop at the first bad character.
std::optional<int64_t> parseInt(std::string_view text);

/// Strictly parses the whole of `text` as a decimal floating-point number
/// ("1.5", "-2e3", "1e-9"). Locale-independent (from_chars; '.' is always
/// the decimal separator) and non-throwing — unlike std::stod, which
/// honours LC_NUMERIC and throws std::out_of_range on e.g. "1e999".
/// Rejects empty input, whitespace, trailing characters, hex/inf/nan
/// forms and values outside the finite double range.
std::optional<double> parseDouble(std::string_view text);

/// Writes `text` to `path` (binary), closes the file and checks every
/// step. Returns false and fills `*error` (when non-null) on failure.
/// JSON artifacts go through json::writeFile, which validates first.
bool writeTextFile(const std::string &path, std::string_view text,
                   std::string *error = nullptr);

} // namespace mha
