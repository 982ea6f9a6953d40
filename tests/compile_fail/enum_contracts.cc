// Compile-fail probes for the enum contracts the compiler enforces
// (DESIGN.md "Compiler-enforced contracts").  As written, this file
// compiles, and tests/CMakeLists.txt builds it with the tree.  Each
// CPT_BREAK_* macro seeds one defect, and the matching ctest requires the
// build to fail:
//
//   CPT_BREAK_SWITCH  a switch over obs::EventKind that has a default but
//                     leaves one enumerator out (-Werror=switch-enum);
//   CPT_BREAK_NAME    the same switch without a default, as in every
//                     ToString(), leaving one enumerator out (-Werror=switch);
//   CPT_BREAK_COUNT   an enum whose count constant is one short of its
//                     named enumerators (NamesExactly).
#include <cstddef>
#include <cstdint>

#include "common/enum_names.h"
#include "obs/trace.h"

namespace cpt::compile_fail {

int IsWalkBracket(obs::EventKind kind) {
  switch (kind) {
    case obs::EventKind::kWalkStep:
    case obs::EventKind::kWalkHit:
    case obs::EventKind::kWalkEnd:
    case obs::EventKind::kWalkAbort:
      return 1;
    case obs::EventKind::kTlbHit:
    case obs::EventKind::kTlbMiss:
    case obs::EventKind::kTlbBlockMiss:
    case obs::EventKind::kTlbSubblockMiss:
    case obs::EventKind::kPageFault:
    case obs::EventKind::kPtePromotion:
    case obs::EventKind::kBlockPrefetch:
    case obs::EventKind::kReservationGrant:
    case obs::EventKind::kSwTlbHit:
#if !defined(CPT_BREAK_SWITCH) && !defined(CPT_BREAK_NAME)
    case obs::EventKind::kSwTlbMiss:
#endif
      return 0;
#ifdef CPT_BREAK_SWITCH
    default:
      return -1;
#endif
  }
  return -1;
}

enum class Probe : std::uint8_t { kFirst, kSecond, kThird };
#ifdef CPT_BREAK_COUNT
inline constexpr std::size_t kProbeCount = 2;
#else
inline constexpr std::size_t kProbeCount = 3;
#endif

constexpr const char* ToString(Probe probe) {
  switch (probe) {
    case Probe::kFirst:
      return "first";
    case Probe::kSecond:
      return "second";
    case Probe::kThird:
      return "third";
  }
  return kUnnamed;
}
static_assert(NamesExactly<Probe>(kProbeCount),
              "kProbeCount must equal the number of named Probes");

}  // namespace cpt::compile_fail
