// Strict parsing of numeric external inputs (environment knobs, CLI flags).
//
// Every knob goes through ParseU64, so none can wrap, truncate at junk, or
// quietly fall back to a default: `-5`, `+7`, `1e3`, `abc`, an empty string
// and anything past 2^64-1 are all rejected, as is a value outside the
// knob's documented [min, max] range.
#ifndef CPT_COMMON_PARSE_H_
#define CPT_COMMON_PARSE_H_

#include <cstdint>
#include <optional>
#include <string_view>

namespace cpt {

// `text` as a base-10 unsigned integer in [min, max]: digits only (no sign,
// whitespace, exponent or suffix), no overflow.  nullopt otherwise.
std::optional<std::uint64_t> ParseU64(std::string_view text, std::uint64_t min,
                                      std::uint64_t max);

// ParseU64, or exit(2) with a message naming `knob`, the rejected text and
// the accepted range.
std::uint64_t ParseU64OrExit(std::string_view knob, std::string_view text, std::uint64_t min,
                             std::uint64_t max);

}  // namespace cpt

#endif  // CPT_COMMON_PARSE_H_
