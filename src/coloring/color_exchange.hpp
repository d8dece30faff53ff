// Shared pieces of the BSP coloring drivers: the speculative round loop's
// contract with a rank's neighbourhood, decoding boundary-color frames, the
// fault-repair lost-announcement tracking, and the deterministic priority
// comparator. The distance-1 and distance-2 colorings and the service-mode
// incremental re-coloring share the exact same wire handling and repair
// semantics through this header.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "coloring/coloring.hpp"
#include "coloring/parallel.hpp"
#include "runtime/bsp_engine.hpp"
#include "runtime/fabric.hpp"
#include "runtime/serialize.hpp"
#include "support/error.hpp"
#include "support/types.hpp"

namespace pmc {

/// The speculative round loop (coloring/parallel.cpp), run over one
/// neighbourhood per rank: `views[r]` is rank r's. A View supplies
/// num_owned(), num_local(), global_id(), local_id(), is_boundary(),
/// boundary_slots(v) and its staging set neighbor_ranks(); parallel.cpp
/// holds each View's first-fit walk and conflict scan. Instantiated for
/// LocalGraph (distance 1) and Dist2RankView (distance 2).
template <class View>
[[nodiscard]] DistColoringResult color_speculative(
    std::span<const View> views, VertexId num_global_vertices,
    const DistColoringOptions& options);

/// Applies one boundary-color message to `color` (indexed by the view's
/// local ids), received under send policy `policy`. Only FIAB's shared
/// union payload may name a vertex outside the view (the receiver skips
/// it); under the customized policies such a record fails a PMC_CHECK.
/// When `changed` is non-null, appends the local ids whose stored color
/// actually changed — the incremental driver's re-check frontier.
template <class View>
void apply_color_records(const View& view, std::vector<Color>& color,
                         const BspMessage& msg, SendPolicy policy,
                         std::vector<VertexId>* changed = nullptr) {
  // FIAC sends (possibly empty) messages to every rank; an empty message
  // carries no frame and no records.
  for_each_record<ColorRecord>(msg.payload, [&](const ColorRecord& rec) {
    const VertexId local = view.local_id(rec.vertex);
    if (local == kNoVertex) {
      // Broadcast delivers records for vertices this rank has never heard
      // of; that waste is exactly what the customized modes eliminate.
      PMC_CHECK(policy == SendPolicy::kBroadcastUnion,
                "customized color record for vertex "
                    << rec.vertex << " outside the receiver's view");
      return;
    }
    auto& slot = color[static_cast<std::size_t>(local)];
    if (changed != nullptr && slot != rec.color) changed->push_back(local);
    slot = rec.color;
  });
}

/// Global ids whose color announcement was dropped or corrupted in flight,
/// per sending rank, in replay order (a vertex announced to several ranks
/// may repeat); the repair phase sorts them with sort_lost(), then resets
/// and re-enters those vertices.
using LostColorSets = std::vector<std::vector<VertexId>>;

/// Sorts one rank's lost ids and drops repeats, for binary-search probes.
void sort_lost(std::vector<VertexId>& lost);

/// Send callable for color frames from `ctx`: forwards to ctx.send and,
/// when faults are on, decodes the sender-side copy of every dropped or
/// corrupted frame into lost[src]. Receipt callbacks fire on the main
/// thread at the rank-ordered merge that replays each rank's lane, so no
/// locking is needed.
[[nodiscard]] std::function<void(Rank, std::vector<std::byte>, std::int64_t)>
lost_tracking_color_sender(LostColorSets& lost, bool faults_on,
                           BspEngine::RankCtx& ctx);

/// The deterministic total priority order shared by Jones–Plassmann and the
/// speculative framework's conflict resolution: a beats b iff its
/// (vertex_priority, global id) pair is larger. Each check_conflict()
/// recolors exactly the endpoint that does not win.
[[nodiscard]] inline bool wins_priority(VertexId ga, VertexId gb,
                                        std::uint64_t seed) {
  const std::uint64_t pa = vertex_priority(ga, seed);
  const std::uint64_t pb = vertex_priority(gb, seed);
  return pa > pb || (pa == pb && ga > gb);
}

}  // namespace pmc
