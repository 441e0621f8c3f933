// Access-interval visibility index: a candidate prefilter for the
// serving-satellite question.
//
// For each (1-degree ground cell, time slab) the index precomputes the
// satellites whose visibility interval can intersect the slab, via the
// same central-angle cone test as Constellation::best_visible widened by
// the cell half-diagonal and the satellites' angular motion across the
// slab. The candidate list is a strict superset of the visible set, kept
// in canonical sweep order, so running the exact ephemeris over it
// reproduces best_visible bit-for-bit at a fraction of the sweep cost.
//
// Candidate lists are pure geometry, cached per thread and keyed by a
// process-unique index id: no locks, no cross-thread coupling, and no
// fault-plan dependence. The index answers only the serving question;
// full access samples are built by AccessNetwork (or replayed from an
// EpochTimeline), and --no-timeline ablates both accelerators at once in
// favour of the exact sweep.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "geo/geodesy.hpp"
#include "orbit/constellation.hpp"

namespace satnet::orbit {

struct AccessConfig;

/// Per-AccessNetwork visibility index. Shared by copies of the owning
/// network (the derived data is immutable); all queries are const and
/// thread-safe via thread-local candidate caches.
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
