#ifndef GVA_UTIL_STRINGS_H_
#define GVA_UTIL_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace gva {

/// Joins `parts` with `separator` ("a", "b" -> "a,b").
std::string Join(const std::vector<std::string>& parts,
                 std::string_view separator);

/// Splits `text` on `delimiter`, keeping empty fields. Splitting "" yields
/// one empty field, matching common CSV semantics.
std::vector<std::string> Split(std::string_view text, char delimiter);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

/// Parses a non-negative decimal integer that is all of `text`: digits
/// only — no sign, no whitespace, no trailing characters — and no larger
/// than SIZE_MAX. Returns false (leaving *out untouched) otherwise, so
/// "abc" is not read as 0 and "-5" does not wrap.
bool ParseSize(std::string_view text, size_t* out);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// Formats a count with thousands separators (1234567 -> "1'234'567"),
/// matching the paper's table typography.
std::string FormatWithThousands(uint64_t value);

}  // namespace gva

#endif  // GVA_UTIL_STRINGS_H_
