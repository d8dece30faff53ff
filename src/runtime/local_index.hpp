// Global -> local id index of one rank's share of a graph (LocalGraph, the
// distance-2 views): an open-addressing table of 32-bit local ids with
// linear probing, keyed by the global id each slot's local id names in the
// owner's global-id array, which the index does not copy. At most 3/4 full,
// it costs 4 bytes x 4/3 per local vertex; a lookup is one hash plus a
// short probe run.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "support/error.hpp"
#include "support/types.hpp"

namespace pmc {

class LocalIndex {
 public:
  /// Indexes every entry of `global_ids` (unique), in a table of exactly
  /// n + n/3 + 1 slots.
  void build(std::span<const VertexId> global_ids) {
    const std::size_t n = global_ids.size();
    rehash(global_ids, n + n / 3 + 1);
  }

  /// Local id of `global` in `global_ids`, the array the index covers;
  /// kNoVertex when absent.
  [[nodiscard]] VertexId find(std::span<const VertexId> global_ids,
                              VertexId global) const {
    if (slots_.empty()) return kNoVertex;
    for (std::size_t s = home_slot(global);;
         s = s + 1 == slots_.size() ? 0 : s + 1) {
      const std::uint32_t local = slots_[s];
      if (local == kEmptySlot) return kNoVertex;
      if (global_ids[local] == global) return static_cast<VertexId>(local);
    }
  }

  /// Local id of `global`, appending it to `global_ids` (and indexing it)
  /// when absent. The table doubles before it would pass 3/4 full.
  VertexId intern(std::vector<VertexId>& global_ids, VertexId global) {
    const VertexId found = find(global_ids, global);
    if (found != kNoVertex) return found;
    const std::size_t local = global_ids.size();
    PMC_CHECK(local < kEmptySlot, "more than 2^32 - 1 local vertices");
    global_ids.push_back(global);
    if (4 * (local + 1) > 3 * slots_.size()) {
      rehash(global_ids, 2 * slots_.size() + 16);
    } else {
      place(local, global);
    }
    return static_cast<VertexId>(local);
  }

 private:
  static constexpr std::uint32_t kEmptySlot = UINT32_MAX;

  /// First probe slot of `global`: the high half of a Fibonacci hash,
  /// scaled onto [0, slots_.size()).
  [[nodiscard]] std::size_t home_slot(VertexId global) const {
    const std::uint64_t h =
        (static_cast<std::uint64_t>(global) * 0x9E3779B97F4A7C15ULL) >> 32;
    return static_cast<std::size_t>((h * slots_.size()) >> 32);
  }

  /// Stores `local` in the first free slot of `global`'s probe run.
  void place(std::size_t local, VertexId global) {
    std::size_t s = home_slot(global);
    while (slots_[s] != kEmptySlot) s = s + 1 == slots_.size() ? 0 : s + 1;
    slots_[s] = static_cast<std::uint32_t>(local);
  }

  void rehash(std::span<const VertexId> global_ids, std::size_t slots) {
    slots_.assign(slots, kEmptySlot);
    for (std::size_t local = 0; local < global_ids.size(); ++local) {
      place(local, global_ids[local]);
    }
  }

  std::vector<std::uint32_t> slots_;  // local ids by hash slot
};

}  // namespace pmc
