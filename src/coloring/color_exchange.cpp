#include "coloring/color_exchange.hpp"

#include <algorithm>

namespace pmc {

void sort_lost(std::vector<VertexId>& lost) {
  std::sort(lost.begin(), lost.end());
  lost.erase(std::unique(lost.begin(), lost.end()), lost.end());
}

}  // namespace pmc
