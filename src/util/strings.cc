#include "util/strings.h"

#include <cstdarg>
#include <cstdint>
#include <cstdio>

namespace gva {

std::string Join(const std::vector<std::string>& parts,
                 std::string_view separator) {
  std::string result;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) {
      result.append(separator);
    }
    result.append(parts[i]);
  }
  return result;
}

std::vector<std::string> Split(std::string_view text, char delimiter) {
  std::vector<std::string> fields;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(delimiter, start);
    if (pos == std::string_view::npos) {
      fields.emplace_back(text.substr(start));
      break;
    }
    fields.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return fields;
}

std::string_view StripWhitespace(std::string_view text) {
  const char* kWhitespace = " \t\r\n\f\v";
  size_t begin = text.find_first_not_of(kWhitespace);
  if (begin == std::string_view::npos) {
    return std::string_view();
  }
  size_t end = text.find_last_not_of(kWhitespace);
  return text.substr(begin, end - begin + 1);
}

bool ParseSize(std::string_view text, size_t* out) {
  if (text.empty()) {
    return false;
  }
  size_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      return false;
    }
    const auto digit = static_cast<size_t>(c - '0');
    if (value > (SIZE_MAX - digit) / 10) {
      return false;
    }
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

std::string StrFormat(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  int size = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  std::string result;
  if (size > 0) {
    result.resize(static_cast<size_t>(size));
    std::vsnprintf(result.data(), result.size() + 1, format, args_copy);
  }
  va_end(args_copy);
  return result;
}

std::string FormatWithThousands(uint64_t value) {
  std::string digits = std::to_string(value);
  std::string result;
  result.reserve(digits.size() + digits.size() / 3);
  size_t leading = digits.size() % 3;
  if (leading == 0) {
    leading = 3;
  }
  for (size_t i = 0; i < digits.size(); ++i) {
    if (i == leading || (i > leading && (i - leading) % 3 == 0)) {
      result.push_back('\'');
    }
    result.push_back(digits[i]);
  }
  return result;
}

}  // namespace gva
