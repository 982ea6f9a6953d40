// Compile-time tie between an enum's count constant and its wire names.
//
// Every enum whose values reach a report by name (obs::EventKind,
// obs::WalkHitClass, obs::SegmentClass, workload::SegmentKind) names its
// enumerators in a constexpr ToString() switch with no default, so
// -Werror=switch rejects an enumerator that has no name.  The switch
// cannot see the k<Enum>Count constant that sizes the arrays indexed by the
// enum; NamesExactly() can:
//
//   static_assert(NamesExactly<EventKind>(kEventKindCount));
//
// holds only when every value below the count has a name and the count
// itself has none.  An enumerator appended without a count bump, or a count
// bumped without an enumerator, then fails to compile.
#ifndef CPT_COMMON_ENUM_NAMES_H_
#define CPT_COMMON_ENUM_NAMES_H_

#include <cstddef>
#include <string_view>

namespace cpt {

// What a ToString() returns for a value that is not one of its enumerators.
inline constexpr const char* kUnnamed = "?";

// `Enum` must have a fixed underlying type, so that every value up to
// `count` is a valid `Enum` (the cast below is then well defined).
template <typename Enum>
constexpr bool NamesExactly(std::size_t count) {
  auto named = [](std::size_t i) {
    return std::string_view(ToString(static_cast<Enum>(i))) != kUnnamed;
  };
  for (std::size_t i = 0; i < count; ++i) {
    if (!named(i)) {
      return false;
    }
  }
  return !named(count);
}

}  // namespace cpt

#endif  // CPT_COMMON_ENUM_NAMES_H_
