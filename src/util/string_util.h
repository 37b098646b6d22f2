#ifndef HOLIM_UTIL_STRING_UTIL_H_
#define HOLIM_UTIL_STRING_UTIL_H_

#include <charconv>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace holim {

/// Splits on any character in `delims`, dropping empty tokens.
std::vector<std::string_view> SplitTokens(std::string_view s,
                                          std::string_view delims = " \t\r\n");

/// Parses all of `token` as a number with std::from_chars. False when
/// anything is left over, on a '+' (or a '-' for unsigned T), on leading
/// blanks and on overflow: "12abc" is not 12.
template <typename T>
bool ParseNumber(std::string_view token, T& value) {
  const char* const end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  return ec == std::errc() && ptr == end;
}

/// True if `s` begins with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Human-readable byte count, e.g. "1.5 GiB".
std::string HumanBytes(std::size_t bytes);

/// Human-readable duration from seconds, e.g. "3.2 s", "45 ms", "2.1 min".
std::string HumanSeconds(double seconds);

}  // namespace holim

#endif  // HOLIM_UTIL_STRING_UTIL_H_
