// Fixture: unknown-suppression.
//
// A suppression must name a rule the linter has.  A misspelled or retired
// rule name suppresses nothing, so it is itself a finding; a correctly
// spelled suppression on the same file still works.
#include <cstdlib>

namespace fx {

void Misspelled() {
  std::abort();  // cpt-lint: allow(check-macro-hygeine)
}

// cpt-lint: allow(struct-layout)
int Retired() { return 0; }

// cpt-lint: off(no-such-rule)
int BlockOfNothing() { return 1; }
// cpt-lint: on(no-such-rule)

void Known() {
  std::abort();  // cpt-lint: allow(check-macro-hygiene)
}

}  // namespace fx
