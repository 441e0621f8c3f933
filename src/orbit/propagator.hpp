// Propagator interface: Walker-circular and SGP4 ephemeris backends,
// plus the structure-of-arrays batch kernel and the cone sweeps that
// answer visibility queries on each backend.
//
// The closed-form Walker mode is the fast exact default and stays
// bit-identical to the historical Constellation::position arithmetic
// (walker_position below IS that arithmetic, shared so the scalar and
// batch paths cannot drift). The SGP4 mode runs the perturbed
// propagation from sgp4.hpp per satellite, either from a real TLE
// catalog or from synthetic elements derived from Walker shell
// geometry.
//
// BatchPropagator advances the whole constellation per epoch in one
// pass over contiguous per-satellite arrays (precomputed constants,
// vectorizable inner loop). Its geodetic outputs are bit-identical to
// the scalar position() path per satellite — the batch is a throughput
// optimization, never a value change.
//
// Visibility queries go through walker_cone_sweep (incremental plane
// rotations, whole planes skipped) or sgp4_cone_sweep (one memoized
// unit-vector frame per 60 s grid instant, gate widened by the motion
// since that instant). Both emit a superset of the visible satellites
// in canonical order, and only those candidates run the exact
// ephemeris, so answers match a full-catalog sweep bit for bit.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "geo/geodesy.hpp"
#include "orbit/sgp4.hpp"
#include "orbit/shell.hpp"

namespace satnet::orbit {

/// Which ephemeris backend a constellation runs on.
enum class OrbitModel { walker, sgp4 };

std::string_view to_string(OrbitModel m);
std::optional<OrbitModel> parse_orbit_model(std::string_view s);

/// Closed-form circular Walker ephemeris for one satellite slot. This is
/// the exact arithmetic (op for op) the repo has always used for
/// Constellation::position; every Walker-mode consumer — scalar, batch,
/// timeline replay — funnels through it so positions agree bit for bit.
geo::GeoPoint walker_position(const Shell& shell, std::size_t plane, std::size_t index,
                              double t_sec);

/// One batch-propagated epoch: geodetic position per satellite in
/// canonical (shell, plane, index) order. Reused across advance() calls
/// so the steady-state epoch loop does no allocation.
struct BatchFrame {
  double t_sec = 0;
  std::vector<double> lat_deg, lon_deg, alt_km;

  std::size_t size() const { return lat_deg.size(); }
};

class Sgp4Propagator;

/// Earth-fixed unit vector of every SGP4 satellite at one grid instant,
/// in canonical order, for cone gating only. `decayed[i]` is 1 when
/// satellite i's propagation failed there (its position is the decayed
/// sentinel, whose direction means nothing).
struct GridFrame {
  double t_sec = 0;
  std::vector<double> ux, uy, uz;
  std::vector<std::uint8_t> decayed;
};

/// The SoA batch kernel. Construction precomputes every per-satellite
/// constant the scalar path re-derives per call (plane RAAN, phase
/// angle, inclination trig, mean motion — or the full sgp4init state);
/// advance() then runs one contiguous pass per epoch.
class BatchPropagator {
 public:
  /// Walker-circular batch over the given shells.
  explicit BatchPropagator(const std::vector<Shell>& shells);
  /// SGP4 batch over an initialized catalog (non-owning; the
  /// Sgp4Propagator that owns the states also owns this kernel).
  explicit BatchPropagator(const Sgp4Propagator* sgp4);

  std::size_t size() const { return n_; }

  /// Fills `out` with every satellite's position at t. Geodetic values
  /// are bit-identical to the scalar position() path.
  void advance(double t_sec, BatchFrame& out) const;

 private:
  void advance_walker(double t_sec, BatchFrame& out) const;

  std::size_t n_ = 0;
  const Sgp4Propagator* sgp4_ = nullptr;  ///< null in Walker mode
  // Walker per-satellite constants (canonical order, contiguous).
  std::vector<double> phase0_, raan_, sin_inc_, cos_inc_, alt_km_;
  // Walker per-shell constants + [start, end) satellite ranges.
  std::vector<double> shell_mean_motion_;
  std::vector<std::size_t> shell_begin_;
};

/// Abstract ephemeris backend: scalar per-satellite queries plus the
/// batch kernel. Satellites are addressed by flat canonical index.
class Propagator {
 public:
  virtual ~Propagator() = default;

  virtual OrbitModel model() const = 0;
  virtual std::size_t size() const = 0;

  /// Geodetic position of satellite `sat` at simulation time t.
  virtual geo::GeoPoint position(std::size_t sat, double t_sec) const = 0;

  /// The batch kernel over this backend's satellites.
  virtual const BatchPropagator& batch() const = 0;

  /// Stable hash of everything that determines positions (elements,
  /// epochs, model) — mixed into access identity hashes so persisted
  /// timelines can never answer for a different ephemeris.
  virtual std::uint64_t ephemeris_hash() const = 0;
};

/// The closed-form Walker backend.
class WalkerPropagator final : public Propagator {
 public:
  explicit WalkerPropagator(std::vector<Shell> shells);

  OrbitModel model() const override { return OrbitModel::walker; }
  std::size_t size() const override { return batch_.size(); }
  geo::GeoPoint position(std::size_t sat, double t_sec) const override;
  const BatchPropagator& batch() const override { return batch_; }
  std::uint64_t ephemeris_hash() const override { return 0; }

 private:
  std::vector<Shell> shells_;
  /// Flat index -> (shell, plane, index) decomposition helpers.
  std::vector<std::size_t> shell_begin_;
  BatchPropagator batch_;
};

/// The SGP4/SDP4 backend: one initialized Sgp4 state per satellite.
class Sgp4Propagator final : public Propagator {
 public:
  /// Synthetic elements from Walker shell geometry: each slot becomes a
  /// near-circular SGP4 satellite with the slot's inclination, RAAN and
  /// phase, at a fixed canonical epoch (no wall-clock anywhere).
  explicit Sgp4Propagator(const std::vector<Shell>& shells);
  /// A real TLE catalog. Simulation t=0 is the newest element epoch, so
  /// every satellite propagates forward from its own epoch.
  explicit Sgp4Propagator(std::vector<Tle> tles);

  OrbitModel model() const override { return OrbitModel::sgp4; }
  std::size_t size() const override { return sats_.size(); }
  geo::GeoPoint position(std::size_t sat, double t_sec) const override;
  const BatchPropagator& batch() const override { return *batch_; }
  std::uint64_t ephemeris_hash() const override { return ephemeris_hash_; }

  /// Upper bound on any satellite's geodetic altitude (km), for the
  /// visibility cone half-angle: higher altitude means a wider, i.e.
  /// more permissive, gate.
  double max_gate_altitude_km() const { return max_gate_alt_km_; }
  /// Upper bound on any satellite's inertial angular rate (rad/s, Earth
  /// rotation excluded), for widening the grid-frame gate.
  double max_angular_rate_rad_per_sec() const { return max_rate_rad_s_; }

  /// The catalog (empty for synthetic-element constellations).
  const std::vector<Tle>& tles() const { return tles_; }
  /// Julian date mapped to simulation t=0.
  double epoch_jd() const { return epoch_jd_; }

  /// Spacing of the coarse cone frames (see sgp4_cone_sweep).
  static constexpr double kGridStepSec = 60.0;
  /// Frame at the grid instant nearest t (llround(t / kGridStepSec)
  /// steps), memoized per thread. The memo is a pure, bounded cache:
  /// values always equal a fresh propagation at the grid instant. The
  /// reference is valid until this thread's next grid_frame call.
  const GridFrame& grid_frame(double t_sec) const;

  /// position() with the GMST precomputed by the caller — the batch
  /// kernel hoists it per epoch; gst must equal
  /// gstime(epoch_jd() + t_sec / 86400) for identical output.
  geo::GeoPoint position_at_gst(std::size_t sat, double t_sec, double gst) const;

 private:
  friend class BatchPropagator;
  void finalize();

  std::uint64_t id_ = 0;  ///< process-unique, keys the thread-local grid memo
  std::vector<Tle> tles_;
  std::vector<Sgp4> sats_;
  std::vector<double> epoch_offset_min_;  ///< sat epoch -> t=0 offset
  double epoch_jd_ = 0;
  std::uint64_t ephemeris_hash_ = 0;
  double max_gate_alt_km_ = 0;
  double max_rate_rad_s_ = 0;
  std::unique_ptr<BatchPropagator> batch_;
};

/// Shared cone-prefilter sweep over Walker shells: visits slots in
/// canonical (shell, plane, index) order via incremental plane rotations
/// (no per-satellite trig), calls `on_candidate(s, p, i)` for each
/// satellite whose ECEF direction clears the per-shell cos gate, and
/// returns how many satellites it tested against the gate. Shared by
/// best_visible and visible so their prefilters cannot diverge.
///
/// Plane skip: a plane's unit vectors are cos u·A + sin u·B with A =
/// (cos phi, sin phi, 0), B = (-cos i sin phi, cos i cos phi, sin i)
/// orthonormal, so g·r never exceeds hypot(g·A, g·B). The gated value
/// uses (cu, su) from the rotation recurrence, whose norm drifts from 1
/// by a few eps per step; over <= 1e4 slots plus the dot product's own
/// rounding that stays below 1e-11. With a 1e-9 slack a skipped plane
/// holds no satellite the per-satellite test would pass, so callers see
/// the same candidates, in the same order, as without the skip.
template <typename GateFn, typename CandidateFn>
std::size_t walker_cone_sweep(const std::vector<Shell>& shells, double gx, double gy,
                              double gz, double t_sec, GateFn&& gate_for_shell,
                              CandidateFn&& on_candidate) {
  constexpr double kTwoPi = 2.0 * 3.14159265358979323846;
  constexpr double kPlaneSlack = 1e-9;
  std::size_t tested = 0;
  for (std::size_t s = 0; s < shells.size(); ++s) {
    const Shell& shell = shells[s];
    const double gate = gate_for_shell(s);
    const double inc = geo::deg_to_rad(shell.inclination_deg);
    const double sin_i = std::sin(inc);
    const double cos_i = std::cos(inc);
    const double du = kTwoPi / static_cast<double>(shell.sats_per_plane);
    const double cos_du = std::cos(du);
    const double sin_du = std::sin(du);
    const double motion = shell.mean_motion_rad_per_sec() * t_sec;
    const double phase_step = kTwoPi * static_cast<double>(shell.phase_factor) /
                              static_cast<double>(shell.total_sats());
    for (std::size_t p = 0; p < shell.planes; ++p) {
      const double phi =
          kTwoPi * static_cast<double>(p) / static_cast<double>(shell.planes) -
          kEarthRotationRadPerSec * t_sec;
      const double cos_phi = std::cos(phi);
      const double sin_phi = std::sin(phi);
      const double g_a = gx * cos_phi + gy * sin_phi;
      const double g_b = cos_i * (gy * cos_phi - gx * sin_phi) + gz * sin_i;
      if (std::sqrt(g_a * g_a + g_b * g_b) + kPlaneSlack < gate) continue;
      tested += shell.sats_per_plane;
      const double u0 = phase_step * static_cast<double>(p) + motion;
      double cu = std::cos(u0);
      double su = std::sin(u0);
      for (std::size_t i = 0; i < shell.sats_per_plane; ++i) {
        const double w = cos_i * su;
        const double x = cu * cos_phi - w * sin_phi;
        const double y = cu * sin_phi + w * cos_phi;
        const double z = sin_i * su;
        if (gx * x + gy * y + gz * z >= gate) on_candidate(s, p, i);
        const double cu_next = cu * cos_du - su * sin_du;
        su = su * cos_du + cu * sin_du;
        cu = cu_next;
      }
    }
  }
  return tested;
}

/// SGP4 counterpart of walker_cone_sweep: gate-tests every satellite's
/// grid-frame direction against the ground unit vector g, runs the exact
/// ephemeris (one GMST per query) for each candidate in canonical order,
/// calls `on_candidate(flat, position)`, and returns how many satellites
/// it gate-tested. `cone_gate` is cos of the visibility half-angle at
/// max_gate_altitude_km() (cone_cos_gate). Shared by best_visible and
/// visible so their prefilters cannot diverge.
///
/// Gate widening: a satellite's ECEF direction turns at most at its
/// inertial rate plus Earth's (the angular velocities add), and the
/// inertial rate of any orbit is bounded by its perigee true-anomaly
/// rate, max_angular_rate_rad_per_sec(). So a satellite visible from g
/// at t, i.e. within the cone half-angle theta of g, sits within theta +
/// (rate + omega_earth)·|t − t_k| of g at the grid instant t_k. The
/// 1e-3 rad slack covers what that Kepler bound leaves out: SGP4's
/// secular and periodic perturbation rates (J2 precession and
/// short-period terms, below 1e-5 rad/s in LEO, so below 3e-4 rad over
/// the widest 30 s offset) and the unit vectors' rounding (~1e-15). A
/// satellite decayed so low that it outruns the catalog's rate bound
/// sees a cone far narrower than theta at max_gate_altitude_km(), which
/// absorbs the extra motion. A satellite whose grid-frame position is the
/// decayed sentinel is always a candidate: it may still be alive at t.
/// The exact evaluation is position_at_gst at t with gst = gstime(t),
/// the same double a full batch frame at t holds, so strict-improvement
/// selection over the candidates picks what a full sweep picks.
template <typename CandidateFn>
std::size_t sgp4_cone_sweep(const Sgp4Propagator& prop, double gx, double gy, double gz,
                            double t_sec, double cone_gate, CandidateFn&& on_candidate) {
  constexpr double kPi = 3.14159265358979323846;
  constexpr double kRoundingSlackRad = 1e-3;
  const GridFrame& frame = prop.grid_frame(t_sec);
  const double widen =
      (prop.max_angular_rate_rad_per_sec() + kEarthRotationRadPerSec) *
          std::fabs(t_sec - frame.t_sec) +
      kRoundingSlackRad;
  const double gate = std::cos(std::min(kPi, std::acos(cone_gate) + widen));
  const double gst = gstime(prop.epoch_jd() + t_sec / 86400.0);
  const std::size_t n = frame.ux.size();
  for (std::size_t f = 0; f < n; ++f) {
    if (frame.decayed[f] == 0 &&
        gx * frame.ux[f] + gy * frame.uy[f] + gz * frame.uz[f] < gate) {
      continue;
    }
    on_candidate(f, prop.position_at_gst(f, t_sec, gst));
  }
  return n;
}

}  // namespace satnet::orbit
