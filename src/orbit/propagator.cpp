#include "orbit/propagator.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <memory>
#include <stdexcept>

namespace satnet::orbit {

namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr double kTwoPi = 2.0 * kPi;

double wrap_angle(double a) {
  a = std::fmod(a, kTwoPi);
  if (a < 0) a += kTwoPi;
  return a;
}

void hash_mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// A satellite whose SGP4 propagation errored (decay, bad eccentricity)
/// is parked deterministically far below ground: finite everywhere, and
/// never above any horizon, so campaigns degrade to "unreachable"
/// instead of propagating NaNs.
constexpr geo::GeoPoint kDecayedSentinel{0.0, 0.0, -1000.0};

std::uint64_t next_propagator_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// geo::rad_to_deg's exact expression (same constant, same op order),
/// inlined so the batch inner loop doesn't pay an out-of-line call per
/// output angle. Bit-identical to the library function by construction.
inline double to_deg_inline(double rad) { return rad * 180.0 / kPi; }

/// geo::deg_to_rad's exact expression, inlined for the same reason.
inline double to_rad_inline(double deg) { return deg * kPi / 180.0; }

/// wrap_angle with the fmod bypassed for small quotients — the common
/// case in the epoch loop, where angles sit within a few turns of
/// [0, 2pi). Bit-identical to wrap_angle, because fmod is always exact
/// and every shortcut below computes the same exact remainder:
///  * [0, 2pi): fmod returns the argument unchanged.
///  * [2pi, 4pi): the exact remainder is a - 2pi, and by Sterbenz's
///    lemma (2pi <= a <= 2*2pi) the floating subtraction is exact.
///  * [4pi, 8pi): 4pi is the exact double 2*kTwoPi (power-of-two
///    multiple), a - 4pi is Sterbenz-exact there, and reducing by an
///    exact multiple of the modulus preserves the remainder — so the
///    result falls through to the two cases above.
///  * [-2pi, 0): fmod returns the argument (dividend sign), and the
///    `a + 2pi` below is the same rounded addition wrap_angle performs.
///    Strict bound: at exactly -2pi, fmod yields -0.0 un-adjusted (the
///    sign check sees -0.0 >= 0), which the fallback reproduces.
/// Anything further out falls back to the real thing.
inline double wrap_angle_fast(double a) {
  if (a >= 0.0) {
    if (a >= 2.0 * kTwoPi) {
      if (a >= 4.0 * kTwoPi) return wrap_angle(a);
      a -= 2.0 * kTwoPi;
    }
    if (a < kTwoPi) return a;
    return a - kTwoPi;
  }
  if (a > -kTwoPi) return a + kTwoPi;
  return wrap_angle(a);
}

}  // namespace

std::string_view to_string(OrbitModel m) {
  switch (m) {
    case OrbitModel::walker: return "walker";
    case OrbitModel::sgp4: return "sgp4";
  }
  return "?";
}

std::optional<OrbitModel> parse_orbit_model(std::string_view s) {
  if (s == "walker") return OrbitModel::walker;
  if (s == "sgp4") return OrbitModel::sgp4;
  return std::nullopt;
}

geo::GeoPoint walker_position(const Shell& shell, std::size_t plane, std::size_t index,
                              double t_sec) {
  const double inc = geo::deg_to_rad(shell.inclination_deg);
  const double raan =
      kTwoPi * static_cast<double>(plane) / static_cast<double>(shell.planes);
  // Walker phasing: satellites in adjacent planes are offset by
  // F * 2*pi / T where T is the shell's total satellite count.
  const double phase0 =
      kTwoPi * static_cast<double>(index) / static_cast<double>(shell.sats_per_plane) +
      kTwoPi * static_cast<double>(shell.phase_factor) * static_cast<double>(plane) /
          static_cast<double>(shell.total_sats());
  const double u = wrap_angle(phase0 + shell.mean_motion_rad_per_sec() * t_sec);

  // Latitude / inertial longitude of a circular inclined orbit.
  const double sin_lat = std::sin(inc) * std::sin(u);
  const double lat = std::asin(std::clamp(sin_lat, -1.0, 1.0));
  const double lon_inertial = std::atan2(std::cos(inc) * std::sin(u), std::cos(u)) + raan;
  // Earth-fixed longitude: subtract Earth's rotation since epoch.
  const double lon = wrap_angle(lon_inertial - kEarthRotationRadPerSec * t_sec);

  double lon_deg = geo::rad_to_deg(lon);
  if (lon_deg > 180.0) lon_deg -= 360.0;
  return {geo::rad_to_deg(lat), lon_deg, shell.altitude_km};
}

// ---------------------------------------------------------------------------
// BatchPropagator
// ---------------------------------------------------------------------------

BatchPropagator::BatchPropagator(const std::vector<Shell>& shells) {
  for (const Shell& shell : shells) {
    shell_begin_.push_back(n_);
    shell_mean_motion_.push_back(shell.mean_motion_rad_per_sec());
    for (std::size_t p = 0; p < shell.planes; ++p) {
      const double raan =
          kTwoPi * static_cast<double>(p) / static_cast<double>(shell.planes);
      for (std::size_t i = 0; i < shell.sats_per_plane; ++i) {
        const double phase0 =
            kTwoPi * static_cast<double>(i) / static_cast<double>(shell.sats_per_plane) +
            kTwoPi * static_cast<double>(shell.phase_factor) * static_cast<double>(p) /
                static_cast<double>(shell.total_sats());
        const double inc = geo::deg_to_rad(shell.inclination_deg);
        phase0_.push_back(phase0);
        raan_.push_back(raan);
        sin_inc_.push_back(std::sin(inc));
        cos_inc_.push_back(std::cos(inc));
        alt_km_.push_back(shell.altitude_km);
        ++n_;
      }
    }
  }
  shell_begin_.push_back(n_);
}

BatchPropagator::BatchPropagator(const Sgp4Propagator* sgp4)
    : n_(sgp4->size()), sgp4_(sgp4) {}

void BatchPropagator::advance(double t_sec, BatchFrame& out) const {
  out.t_sec = t_sec;
  out.lat_deg.resize(n_);
  out.lon_deg.resize(n_);
  out.alt_km.resize(n_);
  if (sgp4_ != nullptr) {
    // GMST depends only on the epoch, not the satellite — computed once
    // here, per-call in the scalar path, same double either way.
    const double gst = gstime(sgp4_->epoch_jd() + t_sec / 86400.0);
    for (std::size_t i = 0; i < n_; ++i) {
      const geo::GeoPoint p = sgp4_->position_at_gst(i, t_sec, gst);
      out.lat_deg[i] = p.lat_deg;
      out.lon_deg[i] = p.lon_deg;
      out.alt_km[i] = p.alt_km;
    }
  } else {
    advance_walker(t_sec, out);
  }
}

void BatchPropagator::advance_walker(double t_sec, BatchFrame& out) const {
  // The same expressions, evaluated in the same order, as
  // walker_position — with everything that does not depend on t hoisted
  // into the precomputed per-satellite arrays. `motion` and `spin` are
  // the identical products the scalar path forms per call, so every
  // output double matches the scalar path bit for bit.
  const double spin = kEarthRotationRadPerSec * t_sec;
  const std::size_t n_shells = shell_mean_motion_.size();
  const double* phase0 = phase0_.data();
  const double* raan = raan_.data();
  const double* sin_inc = sin_inc_.data();
  const double* cos_inc = cos_inc_.data();
  double* out_lat = out.lat_deg.data();
  double* out_lon = out.lon_deg.data();
  // Altitudes are t-independent for circular Walker orbits; one block
  // copy keeps them out of the trig loop.
  std::copy(alt_km_.begin(), alt_km_.end(), out.alt_km.begin());
  for (std::size_t s = 0; s < n_shells; ++s) {
    const double motion = shell_mean_motion_[s] * t_sec;
    const std::size_t begin = shell_begin_[s];
    const std::size_t end = shell_begin_[s + 1];
    for (std::size_t i = begin; i < end; ++i) {
      const double u = wrap_angle_fast(phase0[i] + motion);
      const double sin_u = std::sin(u);
      const double sin_lat = sin_inc[i] * sin_u;
      const double lat = std::asin(std::clamp(sin_lat, -1.0, 1.0));
      const double lon_inertial =
          std::atan2(cos_inc[i] * sin_u, std::cos(u)) + raan[i];
      const double lon = wrap_angle_fast(lon_inertial - spin);
      const double lon_deg = to_deg_inline(lon);
      // Branchless ±180 normalization: x - 0.0 == x for every double, so
      // the untaken side is an exact no-op (same bits as the branch).
      out_lat[i] = to_deg_inline(lat);
      out_lon[i] = lon_deg - (lon_deg > 180.0 ? 360.0 : 0.0);
    }
  }
}

// ---------------------------------------------------------------------------
// WalkerPropagator
// ---------------------------------------------------------------------------

WalkerPropagator::WalkerPropagator(std::vector<Shell> shells)
    : shells_(std::move(shells)), batch_(shells_) {
  std::size_t n = 0;
  for (const Shell& s : shells_) {
    shell_begin_.push_back(n);
    n += s.total_sats();
  }
  shell_begin_.push_back(n);
}

geo::GeoPoint WalkerPropagator::position(std::size_t sat, double t_sec) const {
  const auto it = std::upper_bound(shell_begin_.begin(), shell_begin_.end(), sat);
  const auto s = static_cast<std::size_t>(it - shell_begin_.begin()) - 1;
  const Shell& shell = shells_.at(s);
  const std::size_t local = sat - shell_begin_[s];
  return walker_position(shell, local / shell.sats_per_plane,
                         local % shell.sats_per_plane, t_sec);
}

// ---------------------------------------------------------------------------
// Sgp4Propagator
// ---------------------------------------------------------------------------

Sgp4Propagator::Sgp4Propagator(const std::vector<Shell>& shells) {
  // Every Walker slot becomes a near-circular SGP4 satellite at a fixed
  // canonical epoch (J2000.0). Mean motion comes from the shell's
  // altitude, phase/RAAN from the Walker geometry; bstar is zero (no
  // drag for synthetic fleets, so multi-day horizons stay in orbit).
  constexpr double kCanonicalEpochJd = 2451545.0;
  for (const Shell& shell : shells) {
    const double no_rad_min = shell.mean_motion_rad_per_sec() * 60.0;
    const double inclo = geo::deg_to_rad(shell.inclination_deg);
    for (std::size_t p = 0; p < shell.planes; ++p) {
      const double nodeo =
          kTwoPi * static_cast<double>(p) / static_cast<double>(shell.planes);
      for (std::size_t i = 0; i < shell.sats_per_plane; ++i) {
        const double mo =
            kTwoPi * static_cast<double>(i) / static_cast<double>(shell.sats_per_plane) +
            kTwoPi * static_cast<double>(shell.phase_factor) * static_cast<double>(p) /
                static_cast<double>(shell.total_sats());
        sats_.emplace_back(kCanonicalEpochJd, no_rad_min, /*ecco=*/1.0e-4, inclo,
                           nodeo, /*argpo=*/0.0, wrap_angle(mo), /*bstar=*/0.0);
        epoch_offset_min_.push_back(0.0);
      }
    }
  }
  epoch_jd_ = kCanonicalEpochJd;
  finalize();
}

Sgp4Propagator::Sgp4Propagator(std::vector<Tle> tles) : tles_(std::move(tles)) {
  if (tles_.empty()) {
    throw std::invalid_argument("Sgp4Propagator: empty TLE catalog");
  }
  epoch_jd_ = 0;
  for (const Tle& t : tles_) epoch_jd_ = std::max(epoch_jd_, t.epoch_jd());
  for (const Tle& t : tles_) {
    sats_.emplace_back(t);
    epoch_offset_min_.push_back((epoch_jd_ - t.epoch_jd()) * 1440.0);
  }
  finalize();
}

void Sgp4Propagator::finalize() {
  id_ = next_propagator_id();
  std::uint64_t h = 0x5d1f4a2b9c83e607ull;
  hash_mix(h, sats_.size());
  max_gate_alt_km_ = 0;
  max_rate_rad_s_ = 0;
  for (std::size_t i = 0; i < sats_.size(); ++i) {
    const Sgp4& s = sats_[i];
    hash_mix(h, bits(s.epoch_jd()));
    hash_mix(h, bits(s.no_unkozai()));
    hash_mix(h, bits(s.ecco()));
    hash_mix(h, bits(epoch_offset_min_[i]));
    max_gate_alt_km_ =
        std::max(max_gate_alt_km_, s.gate_apogee_alt_km(geo::kEarthRadiusKm));
    // True-anomaly rate peaks at perigee: n * sqrt(1-e^2) / (1-e)^2.
    const double e = std::min(s.ecco(), 0.99);
    const double perigee_rate = (s.no_unkozai() / 60.0) * std::sqrt(1.0 - e * e) /
                                ((1.0 - e) * (1.0 - e));
    max_rate_rad_s_ = std::max(max_rate_rad_s_, perigee_rate);
  }
  for (const Tle& t : tles_) {
    hash_mix(h, t.satnum);
    hash_mix(h, bits(t.bstar));
  }
  ephemeris_hash_ = h == 0 ? 1 : h;
  batch_ = std::make_unique<BatchPropagator>(this);
}

geo::GeoPoint Sgp4Propagator::position(std::size_t sat, double t_sec) const {
  return position_at_gst(sat, t_sec, gstime(epoch_jd_ + t_sec / 86400.0));
}

geo::GeoPoint Sgp4Propagator::position_at_gst(std::size_t sat, double t_sec,
                                              double gst) const {
  const Sgp4& s = sats_.at(sat);
  const double tsince = t_sec / 60.0 + epoch_offset_min_[sat];
  const auto state = s.propagate(tsince);
  if (!state.has_value()) return kDecayedSentinel;
  const double x = state->r[0], y = state->r[1], z = state->r[2];
  const double r = std::sqrt(x * x + y * y + z * z);
  if (r <= 0.0) return kDecayedSentinel;
  // TEME -> ECEF via GMST at the evaluation instant, then the repo's
  // spherical geodetic convention (altitude above kEarthRadiusKm).
  const double lat = std::asin(std::clamp(z / r, -1.0, 1.0));
  const double lon = wrap_angle(std::atan2(y, x) - gst);
  double lon_deg = geo::rad_to_deg(lon);
  if (lon_deg > 180.0) lon_deg -= 360.0;
  return {geo::rad_to_deg(lat), lon_deg, r - geo::kEarthRadiusKm};
}

namespace {

/// Bounds of the per-thread grid-frame memo: the most recently used
/// propagators, each with its most recently used grid frames. A matrix
/// world's horizon (at most 2700 s) spans at most 46 grid instants, so
/// one shard's walk through time leaves in place every frame the next
/// shard needs. The memo stays bounded however many propagators the
/// process builds: the least recently used propagator's frames go
/// first, and since ids are never reused a dropped entry cannot alias
/// a live propagator.
constexpr std::size_t kMemoPropagators = 4;
constexpr std::size_t kMemoFramesPerPropagator = 64;

struct PropagatorFrames {
  std::uint64_t id = 0;
  std::vector<std::unique_ptr<GridFrame>> frames;  ///< most recently used first
};

/// Moves the first element matching `match` to the front of `v`; false
/// when there is none.
template <typename T, typename Match>
bool move_to_front(std::vector<T>& v, Match match) {
  const auto it = std::find_if(v.begin(), v.end(), match);
  if (it == v.end()) return false;
  std::rotate(v.begin(), it, it + 1);
  return true;
}

}  // namespace

const GridFrame& Sgp4Propagator::grid_frame(double t_sec) const {
  const double t_grid =
      static_cast<double>(std::llround(t_sec / kGridStepSec)) * kGridStepSec;
  thread_local std::vector<PropagatorFrames> memo;  // most recently used first
  if (!move_to_front(memo, [&](const PropagatorFrames& p) { return p.id == id_; })) {
    if (memo.size() == kMemoPropagators) memo.pop_back();
    memo.insert(memo.begin(), PropagatorFrames{id_, {}});
  }
  std::vector<std::unique_ptr<GridFrame>>& frames = memo.front().frames;
  if (move_to_front(frames, [&](const auto& f) { return f->t_sec == t_grid; })) {
    return *frames.front();
  }
  std::unique_ptr<GridFrame> frame;
  if (frames.size() == kMemoFramesPerPropagator) {
    frame = std::move(frames.back());  // reuse the evicted frame's storage
    frames.pop_back();
  } else {
    frame = std::make_unique<GridFrame>();
  }
  const std::size_t n = sats_.size();
  frame->t_sec = t_grid;
  frame->ux.resize(n);
  frame->uy.resize(n);
  frame->uz.resize(n);
  frame->decayed.resize(n);
  const double gst = gstime(epoch_jd_ + t_grid / 86400.0);
  for (std::size_t i = 0; i < n; ++i) {
    const geo::GeoPoint p = position_at_gst(i, t_grid, gst);
    // Flagging a live satellite that happened to sit at the sentinel
    // altitude would only add a candidate, never drop one.
    frame->decayed[i] = p.alt_km == kDecayedSentinel.alt_km ? 1 : 0;
    const double lat = to_rad_inline(p.lat_deg);
    const double lon = to_rad_inline(p.lon_deg);
    const double clat = std::cos(lat);
    frame->ux[i] = clat * std::cos(lon);
    frame->uy[i] = clat * std::sin(lon);
    frame->uz[i] = std::sin(lat);
  }
  frames.insert(frames.begin(), std::move(frame));
  return *frames.front();
}

}  // namespace satnet::orbit
