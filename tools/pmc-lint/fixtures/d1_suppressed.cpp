// Fixture: the suppression path — a D1 hit covered by a justified allow()
// comment must be reported as suppressed, and an allow() without a
// justification must not count. Scan fodder for the lint suite, not compiled.

// pmc-lint: allow(D1): scratch set probed for membership, never iterated
#include <unordered_set>
// pmc-lint: allow(D1)
#include <unordered_map>
