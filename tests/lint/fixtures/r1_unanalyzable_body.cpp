// mclint fixture: R1 territory that no other rule covers. The #ifdef
// makes this body unanalyzable for the CFG stage, so R11 skips it, and
// the call is direct, so R16 has no forwarding chain to follow. Only the
// token-level R1 flags the bare fallible call. Never compiled — linted
// only.
#include "parmonc/support/Text.h"

namespace parmonc {

void fixtureTracedSave(const std::string &Path) {
#ifdef PARMONC_FIXTURE_TRACE
  int Traced = 1;
#endif
  writeFileAtomic(Path, "x"); // expect: R1
}

} // namespace parmonc
