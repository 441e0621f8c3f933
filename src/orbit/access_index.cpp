#include "orbit/access_index.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "orbit/access.hpp"

namespace satnet::orbit {

namespace {

constexpr double kPi = 3.14159265358979323846;

/// Ground cells are 1 degree on a side; the half-diagonal bounds the
/// central angle between any terminal in the cell and the cell center
/// (longitude degrees shrink with latitude, so sqrt(2)/2 degrees is an
/// upper bound at every latitude).
constexpr double kCellDeg = 1.0;
constexpr double kCellHalfDiagRad = 0.7072 * kPi / 180.0;

/// Extra gate slack absorbing the rounding of the frame's unit vectors
/// (same idea as best_visible's 1e-6, widened since the index gate is
/// reused across a whole slab).
constexpr double kRoundingSlackRad = 1e-3;

/// Soft bound on a thread's candidate lists; crossing it clears the
/// map. Generous enough that campaigns never hit it — it exists so
/// pathological query patterns stay bounded.
constexpr std::size_t kMaxSlabEntries = std::size_t{1} << 16;

void hash_mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
}

struct SlabKey {
  std::int32_t cell_lat = 0, cell_lon = 0;
  std::int64_t slab = 0;
  bool operator==(const SlabKey&) const = default;
};

struct SlabKeyHash {
  std::size_t operator()(const SlabKey& k) const {
    std::uint64_t h = 0x8f1d3acb92e604ull;
    hash_mix(h, static_cast<std::uint32_t>(k.cell_lat));
    hash_mix(h, static_cast<std::uint32_t>(k.cell_lon));
    hash_mix(h, static_cast<std::uint64_t>(k.slab));
    return static_cast<std::size_t>(h);
  }
};

obs::Counter& slab_build_counter() {
  // satlint:allow(shared-state): cached reference to a thread-safe striped counter; magic-static init is synchronized
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "access.cache.slab_build", "(cell, slab) candidate lists built");
  return c;
}

using SlabMap = std::unordered_map<SlabKey, std::vector<SatId>, SlabKeyHash>;

/// Per-thread candidate lists keyed by a process-unique index id (never
/// a raw pointer: ids are not reused, so a new index at a recycled
/// address cannot alias a dead one's lists).
SlabMap& thread_slabs(std::uint64_t index_id) {
  thread_local std::unordered_map<std::uint64_t, SlabMap> caches;
  return caches[index_id];
}

std::uint64_t next_index_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

SlabKey slab_key(const geo::GeoPoint& user, double epoch_sec, double slab_sec) {
  return SlabKey{static_cast<std::int32_t>(std::floor(user.lat_deg / kCellDeg)),
                 static_cast<std::int32_t>(std::floor(user.lon_deg / kCellDeg)),
                 static_cast<std::int64_t>(std::floor(epoch_sec / slab_sec))};
}

}  // namespace

struct AccessIndex::Impl {
  std::uint64_t id = 0;
  std::shared_ptr<const Constellation> constellation;
  double min_elevation_deg = 0;
  double slab_sec = 60.0;
  /// Slab-granularity cone gate from the propagator's conservative
  /// altitude/rate bounds (altitude varies per satellite, so one
  /// worst-case gate covers the catalog): cos(theta_max + cell
  /// half-diagonal + motion slack + rounding slack).
  double cos_gate = 2.0;

  const std::vector<SatId>& slab_candidates(const SlabKey& key) const;
};

const std::vector<SatId>& AccessIndex::Impl::slab_candidates(const SlabKey& key) const {
  SlabMap& slabs = thread_slabs(id);
  const auto it = slabs.find(key);
  if (it != slabs.end()) return it->second;
  if (slabs.size() >= kMaxSlabEntries) slabs.clear();
  slab_build_counter().add(1);

  // One cone test per satellite of the slab-midpoint batch frame, with
  // the gate widened so every satellite that can clear min_elevation_deg
  // from anywhere in the cell at any instant of the slab passes. Frame
  // order is canonical order.
  const double t_mid = (static_cast<double>(key.slab) + 0.5) * slab_sec;
  const double clat =
      geo::deg_to_rad((static_cast<double>(key.cell_lat) + 0.5) * kCellDeg);
  const double clon =
      geo::deg_to_rad((static_cast<double>(key.cell_lon) + 0.5) * kCellDeg);
  const double gx = std::cos(clat) * std::cos(clon);
  const double gy = std::cos(clat) * std::sin(clon);
  const double gz = std::sin(clat);

  std::vector<SatId> cands;
  const auto& prop = static_cast<const Sgp4Propagator&>(constellation->propagator());
  const BatchFrame& frame = prop.frame_at(t_mid);
  for (std::size_t f = 0; f < frame.size(); ++f) {
    if (gx * frame.ux[f] + gy * frame.uy[f] + gz * frame.uz[f] >= cos_gate) {
      cands.push_back(constellation->sat_id_from_flat(f));
    }
  }
  return slabs.emplace(key, std::move(cands)).first->second;
}

AccessIndex::AccessIndex(const AccessConfig& config,
                         std::shared_ptr<const Constellation> constellation) {
  if (constellation->model() != OrbitModel::sgp4) {
    throw std::invalid_argument("AccessIndex: SGP4 constellations only");
  }
  auto impl = std::make_unique<Impl>();
  impl->id = next_index_id();
  impl->constellation = std::move(constellation);
  impl->min_elevation_deg = config.min_elevation_deg;
  // Slabs cover a handful of reconfiguration epochs so one cone test
  // amortizes across them without the motion slack ballooning the gate.
  impl->slab_sec = std::max(60.0, 4.0 * config.reconfig_interval_sec);

  // A satellite's ECEF direction is the composition of the orbital
  // rotation and Earth's rotation, so its angular rate is bounded by the
  // sum of the two; half a slab away from the midpoint sample the
  // direction has moved at most rate * slab/2.
  const auto& prop =
      static_cast<const Sgp4Propagator&>(impl->constellation->propagator());
  const double e_min = geo::deg_to_rad(config.min_elevation_deg);
  const double ratio =
      geo::kEarthRadiusKm / (geo::kEarthRadiusKm + prop.max_gate_altitude_km());
  const double theta_max =
      std::acos(std::clamp(ratio * std::cos(e_min), -1.0, 1.0)) - e_min;
  const double motion_slack =
      (prop.max_angular_rate_rad_per_sec() + kEarthRotationRadPerSec) * impl->slab_sec /
      2.0;
  impl->cos_gate = std::cos(std::min(
      kPi, theta_max + kCellHalfDiagRad + motion_slack + kRoundingSlackRad));

  impl_ = std::move(impl);
}

AccessIndex::~AccessIndex() = default;

std::optional<VisibleSat> AccessIndex::serving(const geo::GeoPoint& user,
                                               double epoch_sec) const {
  const std::vector<SatId>& cands =
      impl_->slab_candidates(slab_key(user, epoch_sec, impl_->slab_sec));

  // Exact ephemeris over the candidate superset, in canonical order with
  // strict-improvement selection: the same operations, on a superset of
  // the same satellites, as best_visible's exact path — so the winner
  // (and every double in it) matches the full sweep bit-for-bit. The
  // serving satellite depends only on (lat, lon, epoch): ground altitude
  // is zeroed exactly as best_visible does.
  const Constellation& c = *impl_->constellation;
  std::optional<VisibleSat> best;
  for (const SatId& id : cands) {
    const geo::GeoPoint pos = c.position(id, epoch_sec);
    const double elev = geo::elevation_deg(user, pos);
    if (elev >= impl_->min_elevation_deg && (!best || elev > best->elevation_deg)) {
      best = VisibleSat{
          id, pos, elev,
          geo::slant_range_km({user.lat_deg, user.lon_deg, 0.0}, pos)};
    }
  }
  return best;
}

std::vector<SatId> AccessIndex::candidates_for_test(const geo::GeoPoint& user,
                                                    double epoch_sec) const {
  return impl_->slab_candidates(slab_key(user, epoch_sec, impl_->slab_sec));
}

}  // namespace satnet::orbit
