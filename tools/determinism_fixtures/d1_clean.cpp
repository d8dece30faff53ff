// Fixture: D1 must stay silent on graph code, which may still hash: the
// check scans this file as src/graph/d1.cpp (and as src/service/d1.cpp,
// where the include is a hit). Scan fodder for the rule check, not compiled.
#include <cstdint>
#include <unordered_set>
#include <vector>

std::int64_t distinct(const std::vector<std::int64_t>& keys) {
  std::unordered_set<std::int64_t> used(keys.begin(), keys.end());
  return static_cast<std::int64_t>(used.size());
}
