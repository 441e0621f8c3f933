// Access-interval visibility index for SGP4 constellations: a candidate
// prefilter for the serving-satellite question.
//
// For each (1-degree ground cell, time slab) the index lists the
// satellites that can be visible from the cell during the slab: one cone
// test per satellite of the slab-midpoint batch frame, with the gate
// widened by the cell half-diagonal and the satellites' motion across
// the slab. The list is a strict superset of the visible set in
// canonical order, so the exact ephemeris over it reproduces
// best_visible bit-for-bit without a full-catalog frame per query.
//
// Walker constellations skip the index: their exact sweep drops every
// orbit plane whose great circle misses the cone (walker_cone_sweep),
// leaving slab lists nothing to save. The index stays SGP4-only until
// per-backend candidate generation (ROADMAP item 3) replaces it.
//
// Candidate lists are pure geometry, cached per thread and keyed by a
// process-unique index id: no locks, no cross-thread coupling, and no
// fault-plan dependence. --no-timeline ablates the index together with
// the epoch timeline in favour of the exact sweep.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "geo/geodesy.hpp"
#include "orbit/constellation.hpp"

namespace satnet::orbit {

struct AccessConfig;

/// Per-AccessNetwork index over an SGP4 constellation (the constructor
/// rejects Walker). Shared by copies of the owning network; all queries
/// are const and thread-safe via thread-local candidate caches.
class AccessIndex {
 public:
  AccessIndex(const AccessConfig& config,
              std::shared_ptr<const Constellation> constellation);
  ~AccessIndex();

  AccessIndex(const AccessIndex&) = delete;
  AccessIndex& operator=(const AccessIndex&) = delete;

  /// Serving satellite at an epoch boundary. Byte-identical to
  /// constellation->best_visible(user, epoch_sec, min_elevation_deg).
  std::optional<VisibleSat> serving(const geo::GeoPoint& user, double epoch_sec) const;

  /// Candidate satellites for the (cell, slab) containing (user, epoch),
  /// in canonical sweep order — exposed for tests asserting the superset
  /// property that underlies the equivalence argument.
  std::vector<SatId> candidates_for_test(const geo::GeoPoint& user,
                                         double epoch_sec) const;

 private:
  struct Impl;
  std::unique_ptr<const Impl> impl_;
};

}  // namespace satnet::orbit
