// Shared helpers for the pmc test suite.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <string>
#include <tuple>
#include <vector>

#include "graph/csr_graph.hpp"
#include "matching/matching.hpp"
#include "runtime/serialize.hpp"
#include "support/types.hpp"

namespace pmc::test {

/// Exhaustive maximum-weight matching by branching over the edge list.
/// Exponential — only for graphs with at most ~20 edges.
inline Weight brute_force_max_weight_matching(const Graph& g) {
  struct E {
    VertexId u;
    VertexId v;
    Weight w;
  };
  std::vector<E> edges;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    const auto ws = g.weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] > v) {
        edges.push_back(E{v, nbrs[i], g.has_weights() ? ws[i] : Weight{1}});
      }
    }
  }
  std::vector<bool> used(static_cast<std::size_t>(g.num_vertices()), false);
  Weight best = 0;
  auto recurse = [&](auto&& self, std::size_t idx, Weight acc) -> void {
    best = std::max(best, acc);
    for (std::size_t i = idx; i < edges.size(); ++i) {
      const auto& e = edges[i];
      if (used[static_cast<std::size_t>(e.u)] ||
          used[static_cast<std::size_t>(e.v)]) {
        continue;
      }
      used[static_cast<std::size_t>(e.u)] = true;
      used[static_cast<std::size_t>(e.v)] = true;
      self(self, i + 1, acc + e.w);
      used[static_cast<std::size_t>(e.u)] = false;
      used[static_cast<std::size_t>(e.v)] = false;
    }
  };
  recurse(recurse, 0, Weight{0});
  return best;
}

/// A fresh path under the test temp dir for `stem` ("name.ext"): the name
/// is tagged with this process's pid and a per-process counter, so
/// concurrent runs of the same binary (ctest --repeat, parallel CI stages)
/// never share a file.
inline std::string unique_temp_path(const std::string& stem) {
  static std::atomic<unsigned> counter{0};
  const std::string tag =
      "_" + std::to_string(::getpid()) + "_" + std::to_string(counter++);
  const std::size_t dot = stem.rfind('.');
  const std::size_t cut = dot == std::string::npos ? stem.size() : dot;
  return ::testing::TempDir() + stem.substr(0, cut) + tag + stem.substr(cut);
}

/// Pretty label for parameterized tests.
inline std::string sanitize(std::string s) {
  for (char& c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return s;
}

/// A one-field wire record for tests that need some payload: one id on the
/// frame's delta chain (see runtime/serialize.hpp for the fields() idiom).
struct IdRecord {
  VertexId id = 0;

  template <class IO>
  static void fields(IO& io, IdRecord& r) {
    io.id(r.id);
  }
};

/// A frame holding the single record IdRecord{id}.
inline std::vector<std::byte> id_frame(VertexId id) {
  FrameWriter w;
  w.append(IdRecord{id});
  return w.take();
}

/// The id of a frame holding a single IdRecord (-1 for an empty span).
inline VertexId only_id(std::span<const std::byte> frame) {
  VertexId id = -1;
  for_each_record<IdRecord>(frame, [&](const IdRecord& r) { id = r.id; });
  return id;
}

}  // namespace pmc::test
