// Fixture: D1 must stay silent on graph code, which may still hash: the
// test lints this file as src/graph/d1_clean.cpp. Scan fodder for the lint
// fixture suite, not compiled.
#include <cstdint>
#include <unordered_set>
#include <vector>

std::int64_t distinct(const std::vector<std::int64_t>& keys) {
  std::unordered_set<std::int64_t> used(keys.begin(), keys.end());
  return static_cast<std::int64_t>(used.size());
}
