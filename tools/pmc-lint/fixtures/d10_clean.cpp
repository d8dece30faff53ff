// Fixture: D10 must stay silent — the allow() is consumed by a live
// (suppressed) D1 hit. Scan fodder for the lint suite, not compiled.
#include <cstdint>
// pmc-lint: allow(D1): scratch set probed for membership, never iterated
#include <unordered_set>
