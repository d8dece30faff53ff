// Distance-2 graph coloring — the derivative-computation variant the paper's
// introduction motivates ("efficient computation of sparse Jacobian and
// Hessian matrices"): vertices at distance <= 2 must receive distinct
// colors. Greedy first-fit uses at most Δ² + 1 colors.
//
// Provided as the library's extension beyond the paper's distance-1
// experiments: a sequential greedy algorithm plus verification. The
// distributed version is coloring/distance2_parallel.hpp.
#pragma once

#include "coloring/coloring.hpp"
#include "coloring/sequential.hpp"
#include "graph/csr_graph.hpp"

namespace pmc {

/// Greedy distance-2 coloring in the given static ordering.
[[nodiscard]] Coloring greedy_distance2_coloring(
    const Graph& g, OrderingKind ordering = OrderingKind::kNatural,
    std::uint64_t seed = 0);

/// True iff no two vertices at distance 1 or 2 share a color.
[[nodiscard]] bool is_proper_distance2_coloring(const Graph& g,
                                                const Coloring& c,
                                                std::string* why = nullptr);

}  // namespace pmc
