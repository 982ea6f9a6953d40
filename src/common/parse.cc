#include "common/parse.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <system_error>

namespace cpt {

std::optional<std::uint64_t> ParseU64(std::string_view text, std::uint64_t min,
                                      std::uint64_t max) {
  // from_chars already rejects a leading '-' or whitespace for unsigned
  // types; the digit check also turns away '+', which it would otherwise
  // leave unparsed rather than fail on.
  if (text.empty() || text.front() < '0' || text.front() > '9') {
    return std::nullopt;
  }
  std::uint64_t value = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value < min || value > max) {
    return std::nullopt;
  }
  return value;
}

std::uint64_t ParseU64OrExit(std::string_view knob, std::string_view text, std::uint64_t min,
                             std::uint64_t max) {
  if (const std::optional<std::uint64_t> value = ParseU64(text, min, max)) {
    return *value;
  }
  std::fprintf(stderr, "%.*s: invalid value '%.*s' (expected an integer in [%llu, %llu])\n",
               static_cast<int>(knob.size()), knob.data(), static_cast<int>(text.size()),
               text.data(), static_cast<unsigned long long>(min),
               static_cast<unsigned long long>(max));
  std::exit(2);
}

}  // namespace cpt
