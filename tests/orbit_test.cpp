#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fault/hook.hpp"
#include "fault/plan.hpp"
#include "geo/geodesy.hpp"
#include "obs/metrics.hpp"
#include "orbit/access.hpp"
#include "orbit/constellation.hpp"
#include "orbit/shell.hpp"
#include "orbit/timeline.hpp"
#include "stats/rng.hpp"
#include "synth/worldgen.hpp"

namespace satnet::orbit {
namespace {

std::shared_ptr<const Constellation> starlink() {
  static const auto c =
      std::make_shared<const Constellation>(starlink_shells());
  return c;
}

/// Starlink's first shell on the SGP4 backend: the SGP4 cone sweep gates
/// it with the propagator's conservative altitude/rate bounds instead of
/// per-shell Walker geometry.
std::shared_ptr<const Constellation> starlink_sgp4() {
  static const auto c = std::make_shared<const Constellation>(
      std::vector{starlink_shell1()}, OrbitModel::sgp4);
  return c;
}

// ---------------------------------------------------------------- shell

TEST(ShellTest, StarlinkPeriodRoughly95Minutes) {
  EXPECT_NEAR(starlink_shell1().period_sec() / 60.0, 95.6, 1.0);
}

TEST(ShellTest, HigherAltitudeLongerPeriod) {
  EXPECT_GT(oneweb_shell().period_sec(), starlink_shell1().period_sec());
  EXPECT_GT(o3b_shell().period_sec(), oneweb_shell().period_sec());
}

TEST(ShellTest, TotalSatsMultiplies) {
  EXPECT_EQ(starlink_shell1().total_sats(), 72u * 22u);
  EXPECT_EQ(oneweb_shell().total_sats(), 18u * 36u);
}

// -------------------------------------------------------- constellation

TEST(ConstellationTest, PositionAltitudeConstant) {
  const auto c = starlink();
  for (double t : {0.0, 1000.0, 50000.0}) {
    const auto p = c->position({0, 10, 5}, t);
    EXPECT_NEAR(p.alt_km, 550.0, 1e-6);
  }
}

TEST(ConstellationTest, LatitudeBoundedByInclination) {
  const auto c = starlink();
  for (std::size_t plane = 0; plane < 72; plane += 7) {
    for (double t = 0; t < 6000; t += 313) {
      const auto p = c->position({0, plane, 3}, t);
      EXPECT_LE(std::abs(p.lat_deg), 53.5);
    }
  }
}

TEST(ConstellationTest, PolarShellReachesHighLatitudes) {
  const Constellation c(std::vector{oneweb_shell()});
  double max_lat = 0;
  for (double t = 0; t < oneweb_shell().period_sec(); t += 30) {
    max_lat = std::max(max_lat, std::abs(c.position({0, 0, 0}, t).lat_deg));
  }
  EXPECT_GT(max_lat, 80.0);
}

TEST(ConstellationTest, SatelliteMovesBetweenEpochs) {
  const auto c = starlink();
  const auto p0 = c->position({0, 0, 0}, 0.0);
  const auto p1 = c->position({0, 0, 0}, 60.0);
  // ~7.6 km/s ground track: a minute moves the satellite far.
  EXPECT_GT(geo::surface_distance_km({p0.lat_deg, p0.lon_deg, 0},
                                     {p1.lat_deg, p1.lon_deg, 0}),
            100.0);
}

TEST(ConstellationTest, PositionIsPeriodic) {
  const auto c = starlink();
  const double period = starlink_shell1().period_sec();
  const auto p0 = c->position({0, 5, 5}, 0.0);
  const auto p1 = c->position({0, 5, 5}, period);
  // After one period the satellite returns in the inertial frame; Earth
  // has rotated, so only latitude must match.
  EXPECT_NEAR(p0.lat_deg, p1.lat_deg, 0.2);
}

TEST(ConstellationTest, MidLatitudeUserSeesSatellites) {
  const auto c = starlink();
  const geo::GeoPoint seattle{47.61, -122.33, 0};
  for (double t = 0; t < 3600; t += 360) {
    EXPECT_TRUE(c->best_visible(seattle, t, 25.0).has_value()) << "t=" << t;
  }
}

TEST(ConstellationTest, VisibilityRespectsMinElevation) {
  const auto c = starlink();
  const geo::GeoPoint user{40.0, -100.0, 0};
  for (const auto& v : c->visible(user, 1234.0, 40.0)) {
    EXPECT_GE(v.elevation_deg, 40.0);
  }
}

TEST(ConstellationTest, BestVisibleIsMaxElevation) {
  const auto c = starlink();
  const geo::GeoPoint user{40.0, -100.0, 0};
  const auto all = c->visible(user, 777.0, 25.0);
  const auto best = c->best_visible(user, 777.0, 25.0);
  ASSERT_TRUE(best.has_value());
  for (const auto& v : all) EXPECT_LE(v.elevation_deg, best->elevation_deg + 1e-9);
}

TEST(ConstellationTest, EquatorialMeoInvisibleFromHighLatitude) {
  const Constellation c(std::vector{o3b_shell()});
  // O3b's equatorial orbit cannot serve 70N at a sane elevation.
  EXPECT_FALSE(c.best_visible({70.0, 10.0, 0}, 0.0, 15.0).has_value());
}

TEST(ConstellationTest, SlantRangeAtLeastAltitude) {
  const auto c = starlink();
  for (const auto& v : c->visible({47.0, -120.0, 0}, 99.0, 25.0)) {
    EXPECT_GE(v.slant_km, 549.0);
    EXPECT_LT(v.slant_km, 2600.0);  // bounded by geometry at 25 deg
  }
}

// ------------------------------------------------------------- GeoFleet

TEST(GeoFleetTest, SlotPositionIsEquatorial) {
  GeoFleet fleet;
  fleet.add_slot("test", -101.0);
  const auto p = fleet.position(0);
  EXPECT_DOUBLE_EQ(p.lat_deg, 0.0);
  EXPECT_DOUBLE_EQ(p.lon_deg, -101.0);
  EXPECT_DOUBLE_EQ(p.alt_km, geo::kGeoAltitudeKm);
}

TEST(GeoFleetTest, BestVisiblePicksNearestSlot) {
  GeoFleet fleet;
  fleet.add_slot("west", -130.0);
  fleet.add_slot("east", -60.0);
  const auto best = fleet.best_visible({40.0, -125.0, 0}, 10.0);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->id.index, 0u);
}

TEST(GeoFleetTest, InvisibleFromOppositeHemisphere) {
  GeoFleet fleet;
  fleet.add_slot("americas", -100.0);
  EXPECT_FALSE(fleet.best_visible({35.0, 139.0, 0}, 10.0).has_value());
}

// ------------------------------------------------------- access network

TEST(AccessTest, StarlinkSampleReachableAndFast) {
  const auto net = make_starlink_access(starlink());
  const geo::GeoPoint seattle{47.61, -122.33, 0};
  const auto s = net.sample(seattle, 1000.0);
  ASSERT_TRUE(s.reachable);
  // One-way: a few ms of radio + 12 ms scheduling + tiny backhaul.
  EXPECT_GT(s.one_way_ms, 12.0);
  EXPECT_LT(s.one_way_ms, 30.0);
  EXPECT_EQ(net.config().pops[s.pop_index].city, "seattle");
}

TEST(AccessTest, ManilaServedFromTokyo) {
  const auto net = make_starlink_access(starlink());
  const geo::GeoPoint manila{14.60, 120.98, 0};
  const auto s = net.sample(manila, 5000.0);
  ASSERT_TRUE(s.reachable);
  EXPECT_EQ(net.config().pops[s.pop_index].city, "tokyo");
  // The backhaul detour makes Manila roughly 2x a well-served user.
  EXPECT_GT(s.one_way_ms, 30.0);
}

TEST(AccessTest, AlaskaServedFromSeattle) {
  const auto net = make_starlink_access(starlink());
  const auto s = net.sample({61.22, -149.90, 0}, 300.0);
  ASSERT_TRUE(s.reachable);
  EXPECT_EQ(net.config().pops[s.pop_index].city, "seattle");
  EXPECT_GT(s.backhaul_ms, 10.0);  // ~2,300 km of fiber
}

TEST(AccessTest, NewZealandPopMigratesFromSydneyToAuckland) {
  const auto net = make_starlink_access(starlink());
  const geo::GeoPoint auckland{-36.85, 174.76, 0};
  constexpr double kDay = 86400.0;
  EXPECT_EQ(net.config().pops[net.assigned_pop(auckland, 30 * kDay)].city, "sydney");
  EXPECT_EQ(net.config().pops[net.assigned_pop(auckland, 100 * kDay)].city, "auckland");
}

TEST(AccessTest, NewZealandLatencyDropsAfterMigration) {
  const auto net = make_starlink_access(starlink());
  const geo::GeoPoint auckland{-36.85, 174.76, 0};
  constexpr double kDay = 86400.0;
  double before = 0, after = 0;
  int n = 0;
  for (int k = 0; k < 50; ++k) {
    const auto b = net.sample(auckland, 30 * kDay + k * 977.0);
    const auto a = net.sample(auckland, 100 * kDay + k * 977.0);
    if (!b.reachable || !a.reachable) continue;
    before += b.one_way_ms;
    after += a.one_way_ms;
    ++n;
  }
  ASSERT_GT(n, 30);
  // Paper: ~20 ms RTT reduction, i.e. ~10 ms one-way.
  EXPECT_GT(before / n - after / n, 5.0);
}

TEST(AccessTest, NetherlandsMigratesFrankfurtToLondon) {
  const auto net = make_starlink_access(starlink());
  const geo::GeoPoint ams{52.37, 4.90, 0};
  constexpr double kDay = 86400.0;
  EXPECT_EQ(net.config().pops[net.assigned_pop(ams, 100 * kDay)].city, "frankfurt");
  EXPECT_EQ(net.config().pops[net.assigned_pop(ams, 200 * kDay)].city, "london");
}

TEST(AccessTest, RenoFlipsToDenverAndBack) {
  const auto net = make_starlink_access(starlink());
  const geo::GeoPoint reno{39.53, -119.81, 0};
  constexpr double kDay = 86400.0;
  EXPECT_EQ(net.config().pops[net.assigned_pop(reno, 100 * kDay)].city, "los angeles");
  EXPECT_EQ(net.config().pops[net.assigned_pop(reno, 145 * kDay)].city, "denver");
  EXPECT_EQ(net.config().pops[net.assigned_pop(reno, 200 * kDay)].city, "los angeles");
}

TEST(AccessTest, LasVegasUnaffectedByRenoOverride) {
  const auto net = make_starlink_access(starlink());
  const geo::GeoPoint vegas{36.17, -115.14, 0};
  constexpr double kDay = 86400.0;
  EXPECT_EQ(net.config().pops[net.assigned_pop(vegas, 145 * kDay)].city, "los angeles");
}

TEST(AccessTest, GeoAccessLatencyNearTheoreticalFloor) {
  const auto net = make_geo_access("denver", -101.0, 45.0);
  const auto s = net.sample({39.0, -98.0, 0}, 0.0);
  ASSERT_TRUE(s.reachable);
  // One-way: ~125 ms up + ~120 ms down + 45 ms scheduling.
  EXPECT_GT(s.one_way_ms, 250.0);
  EXPECT_LT(s.one_way_ms, 350.0);
}

TEST(AccessTest, GeoHasNoHandoffs) {
  const auto net = make_geo_access("denver", -101.0, 45.0);
  for (double t = 0; t < 900; t += 90) {
    EXPECT_FALSE(net.sample_with_handoff({39.0, -98.0, 0}, t).handoff);
  }
}

TEST(AccessTest, LeoHandoffsOccurOverTime) {
  const auto net = make_starlink_access(starlink());
  const geo::GeoPoint user{47.0, -122.0, 0};
  int handoffs = 0, samples = 0;
  for (double t = 15; t < 3600 * 3; t += 15) {
    const auto s = net.sample_with_handoff(user, t);
    if (!s.reachable) continue;
    ++samples;
    if (s.handoff) ++handoffs;
  }
  ASSERT_GT(samples, 500);
  EXPECT_GT(handoffs, 10);              // the constellation does move
  EXPECT_LT(handoffs, samples * 0.75);  // but most epochs keep the satellite
}

TEST(AccessTest, ServingSatelliteStableWithinEpoch) {
  const auto net = make_starlink_access(starlink());
  const geo::GeoPoint user{47.0, -122.0, 0};
  const auto a = net.sample(user, 30.0);
  const auto b = net.sample(user, 44.9);  // same 15 s epoch
  ASSERT_TRUE(a.reachable);
  ASSERT_TRUE(b.reachable);
  EXPECT_TRUE(*a.serving_sat == *b.serving_sat);
}

TEST(AccessTest, FloorExcludesScheduling) {
  const auto net = make_starlink_access(starlink());
  const geo::GeoPoint user{47.0, -122.0, 0};
  const auto s = net.sample(user, 60.0);
  ASSERT_TRUE(s.reachable);
  EXPECT_NEAR(net.floor_one_way_ms(user, 60.0), s.one_way_ms - s.scheduling_ms, 1e-9);
}

TEST(AccessTest, OneWebEuropeanUserBackhaulsToUs) {
  const auto ow = std::make_shared<const Constellation>(std::vector{oneweb_shell()});
  const auto net = make_oneweb_access(ow);
  const auto s = net.sample({51.5, -0.1, 0}, 120.0);
  ASSERT_TRUE(s.reachable);
  EXPECT_EQ(net.config().pops[s.pop_index].country, "US");
  EXPECT_GT(s.backhaul_ms, 20.0);  // transatlantic fiber
}

TEST(AccessTest, ConstructionValidation) {
  EXPECT_THROW(AccessNetwork(AccessConfig{}, nullptr), std::invalid_argument);
  AccessConfig geo_cfg;
  geo_cfg.orbit = OrbitClass::geo;
  EXPECT_THROW(AccessNetwork(geo_cfg, GeoFleet{}), std::invalid_argument);
}

TEST(HandoffStatsTest, StarlinkDwellTimesAreShortMinutes) {
  const auto net = make_starlink_access(starlink());
  const auto stats = measure_handoffs(net, {47.0, -122.0, 0}, 0.0, 3 * 3600.0);
  EXPECT_GT(stats.handoffs, 10u);
  // Serving satellites persist for tens of seconds to a few minutes.
  EXPECT_GT(stats.mean_dwell_sec, 15.0);
  EXPECT_LT(stats.mean_dwell_sec, 600.0);
  EXPECT_LT(stats.outage_fraction, 0.05);
}

TEST(HandoffStatsTest, MeoDwellsLongerThanLeo) {
  const auto leo = make_starlink_access(starlink());
  const auto meo = make_o3b_access(
      std::make_shared<const Constellation>(std::vector{o3b_shell()}));
  // LEO terminal in Kansas (dense gateway coverage); MEO terminal near
  // Lima, inside O3b's equatorial footprint and gateway range.
  const auto l = measure_handoffs(leo, {39.0, -98.0, 0}, 0.0, 4 * 3600.0);
  const auto m = measure_handoffs(meo, {-12.0, -77.0, 0}, 0.0, 4 * 3600.0);
  ASSERT_GT(l.handoffs, 0u);
  ASSERT_GT(m.epochs, 0u);
  EXPECT_GT(m.mean_dwell_sec, l.mean_dwell_sec);
}

TEST(HandoffStatsTest, GeoNeverHandsOff) {
  const auto net = make_geo_access("denver", -101.0, 45.0);
  const auto stats = measure_handoffs(net, {39.0, -98.0, 0}, 0.0, 3600.0);
  EXPECT_EQ(stats.epochs, 0u);  // no reconfiguration epochs at all
  EXPECT_EQ(stats.handoffs, 0u);
}

// The loop measure_handoffs used before PR 5: `t += interval`
// accumulates one rounding error per epoch, so the epoch count depends
// on the magnitude of t_start_sec. Reproduced here as plain arithmetic
// to document the failure the integer-stepping fix removes.
std::size_t old_accumulation_loop_epochs(double t_start, double duration,
                                         double interval) {
  std::size_t n = 0;
  for (double t = t_start; t < t_start + duration; t += interval) ++n;
  return n;
}

/// Minimal 0.1 s-interval MEO network over the 20-satellite O3b shell —
/// cheap enough to sample a thousand epochs per measure_handoffs call.
AccessNetwork make_fast_epoch_net() {
  AccessConfig cfg;
  cfg.name = "fast-epoch";
  cfg.orbit = OrbitClass::meo;
  cfg.min_elevation_deg = 15.0;
  cfg.reconfig_interval_sec = 0.1;  // deliberately not representable in binary
  const geo::GeoPoint lima{-12.05, -77.05, 0};
  cfg.pops = {Pop{"p0", "lima", "PE", lima}};
  cfg.gateways = {Gateway{"lima", lima, 0}};
  return AccessNetwork(std::move(cfg),
                       std::make_shared<const Constellation>(std::vector{o3b_shell()}));
}

TEST(HandoffStatsTest, OldAccumulationLoopDriftedWithStartOffset) {
  // With a non-representable 0.1 s interval the old loop gains an epoch
  // at t_start = 0 and sheds it again by t_start = 1e9 — the count was a
  // function of where the window started, not how long it was.
  EXPECT_EQ(old_accumulation_loop_epochs(0.0, 100.0, 0.1), 1001u);
  EXPECT_EQ(old_accumulation_loop_epochs(1e9, 100.0, 0.1), 1000u);
  // Even the stock 15 s Starlink interval loses epochs once t_start is
  // large enough that t + 15 rounds: 225 instead of 240.
  EXPECT_EQ(old_accumulation_loop_epochs(0.0, 3600.0, 15.0), 240u);
  EXPECT_EQ(old_accumulation_loop_epochs(1e16, 3600.0, 15.0), 225u);
}

TEST(HandoffStatsTest, EpochCountInvariantToStartOffset) {
  // Post-fix contract: exactly floor(duration / interval) epochs at any
  // start offset, including ones where the old loop drifted.
  const auto net = make_fast_epoch_net();
  for (const double t_start : {0.0, 1e7, 1e9}) {
    const auto stats = measure_handoffs(net, {-12.0, -77.0, 0}, t_start, 100.0);
    EXPECT_EQ(stats.epochs, 1000u) << "t_start=" << t_start;
  }
  const auto leo = make_starlink_access(starlink());
  for (const double t_start : {0.0, 1e7}) {
    const auto stats = measure_handoffs(leo, {47.0, -122.0, 0}, t_start, 3600.0);
    EXPECT_EQ(stats.epochs, 240u) << "t_start=" << t_start;
  }
}

TEST(HandoffStatsTest, FinalDwellIsCensoredNotCompleted) {
  // A window shorter than one natural dwell observes no handoff at all:
  // the only dwell is cut off by the window edge. It must be reported as
  // censored, not averaged in as if a handoff had ended it (that is what
  // biased mean_dwell_sec low for short windows).
  const auto net = make_starlink_access(starlink());
  const geo::GeoPoint user{47.0, -122.0, 0};
  const auto stats = measure_handoffs(net, user, 45.0, 30.0);
  ASSERT_EQ(stats.epochs, 2u);
  ASSERT_EQ(stats.handoffs, 0u);  // 30 s < one Starlink dwell
  EXPECT_EQ(stats.censored, 1u);
  EXPECT_DOUBLE_EQ(stats.censored_dwell_sec, 30.0);
  EXPECT_DOUBLE_EQ(stats.mean_dwell_sec, 0.0);  // no *completed* dwells
  EXPECT_DOUBLE_EQ(stats.max_dwell_sec, 0.0);
}

// ---------------------------------------------------------- access index

/// Bitwise equality for doubles: the access index claims byte-identical
/// results, so tests compare representations, not tolerances.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_sample(const AccessSample& a, const AccessSample& b) {
  return a.reachable == b.reachable && same_bits(a.one_way_ms, b.one_way_ms) &&
         same_bits(a.up_ms, b.up_ms) && same_bits(a.down_ms, b.down_ms) &&
         same_bits(a.backhaul_ms, b.backhaul_ms) &&
         same_bits(a.scheduling_ms, b.scheduling_ms) &&
         a.serving_sat == b.serving_sat && a.pop_index == b.pop_index &&
         a.gateway_index == b.gateway_index && a.handoff == b.handoff;
}

/// RAII toggle onto the exact access path (no timeline, no index) so a
/// test cannot leak the ablation into later tests.
struct ScopedExactPath {
  ScopedExactPath() { set_timeline_enabled(false); }
  ~ScopedExactPath() { set_timeline_enabled(true); }
};

/// Bit-for-bit equality of two serving answers (both empty, or the same
/// satellite with identical doubles).
void expect_same_visible(const std::optional<VisibleSat>& a,
                         const std::optional<VisibleSat>& b) {
  ASSERT_EQ(a.has_value(), b.has_value());
  if (!a) return;
  EXPECT_TRUE(a->id == b->id);
  EXPECT_TRUE(same_bits(a->elevation_deg, b->elevation_deg));
  EXPECT_TRUE(same_bits(a->slant_km, b->slant_km));
  EXPECT_TRUE(same_bits(a->position.lat_deg, b->position.lat_deg));
  EXPECT_TRUE(same_bits(a->position.lon_deg, b->position.lon_deg));
  EXPECT_TRUE(same_bits(a->position.alt_km, b->position.alt_km));
}

/// Visibility cone gate for one altitude, the same formula best_visible
/// uses (cone_cos_gate in constellation.cpp).
double cone_gate(double altitude_km, double min_elev_deg) {
  const double e_min = geo::deg_to_rad(min_elev_deg);
  const double ratio = geo::kEarthRadiusKm / (geo::kEarthRadiusKm + altitude_km);
  const double theta_max =
      std::acos(std::clamp(ratio * std::cos(e_min), -1.0, 1.0)) - e_min;
  return std::cos(theta_max + 1e-6);
}

void ground_unit(const geo::GeoPoint& g, double& gx, double& gy, double& gz) {
  const double lat = geo::deg_to_rad(g.lat_deg);
  const double lon = geo::deg_to_rad(g.lon_deg);
  gx = std::cos(lat) * std::cos(lon);
  gy = std::cos(lat) * std::sin(lon);
  gz = std::sin(lat);
}

/// The SGP4 branch best_visible ran before the grid-frame sweep: a full
/// batch frame at t, the unwidened cone gate, and strict-improvement
/// selection over every satellite that clears it.
std::optional<VisibleSat> oracle_sgp4_best_visible(const Constellation& c,
                                                   const geo::GeoPoint& ground,
                                                   double t, double min_elev) {
  const auto& prop = static_cast<const Sgp4Propagator&>(c.propagator());
  BatchFrame frame;
  prop.batch().advance(t, frame);
  double gx, gy, gz;
  ground_unit(ground, gx, gy, gz);
  const double gate = cone_gate(prop.max_gate_altitude_km(), min_elev);
  std::optional<VisibleSat> best;
  for (std::size_t f = 0; f < frame.size(); ++f) {
    const geo::GeoPoint pos{frame.lat_deg[f], frame.lon_deg[f], frame.alt_km[f]};
    double ux, uy, uz;
    ground_unit(pos, ux, uy, uz);
    if (gx * ux + gy * uy + gz * uz < gate) continue;
    const double elev = geo::elevation_deg(ground, pos);
    if (elev >= min_elev && (!best || elev > best->elevation_deg)) {
      best = VisibleSat{c.sat_id_from_flat(f), pos, elev,
                        geo::slant_range_km({ground.lat_deg, ground.lon_deg, 0.0}, pos)};
    }
  }
  return best;
}

/// Every satellite of a full batch frame at t above min_elev, in
/// canonical order: the visible set with no prefilter at all.
std::vector<SatId> full_frame_visible(const Constellation& c, const geo::GeoPoint& ground,
                                      double t, double min_elev) {
  BatchFrame frame;
  c.propagator().batch().advance(t, frame);
  std::vector<SatId> out;
  for (std::size_t f = 0; f < frame.size(); ++f) {
    const geo::GeoPoint pos{frame.lat_deg[f], frame.lon_deg[f], frame.alt_km[f]};
    if (geo::elevation_deg(ground, pos) >= min_elev) out.push_back(c.sat_id_from_flat(f));
  }
  return out;
}

/// SGP4 inputs for the sweep oracles: Starlink's first shell, and every
/// shell set of generated worlds 908, 382 and 702 on the SGP4 backend.
std::vector<std::shared_ptr<const Constellation>> sgp4_constellations() {
  std::vector<std::shared_ptr<const Constellation>> out = {starlink_sgp4()};
  for (const std::uint64_t seed : {908u, 382u, 702u}) {
    for (const auto& net : synth::generate_scenario(seed).networks) {
      if (!net.shells.empty()) {
        out.push_back(std::make_shared<const Constellation>(net.shells, OrbitModel::sgp4));
      }
    }
  }
  return out;
}

/// Query times: on the 60 s grid, exactly half a step off it (the widest
/// gate, on both sides of a grid instant), and out to 1e6 s.
const std::vector<double> kSweepTimes = {0.0,    30.0,    60.0,     90.0,    1770.0,
                                         1830.0, 3600.0,  5430.0,   86430.0, 999990.0,
                                         1e6,    1000050.0};

/// Ground points: mid latitudes, both poles, the equator and the
/// antimeridian.
const std::vector<geo::GeoPoint> kSweepUsers = {
    {47.61, -122.33, 0}, {-33.87, 151.2, 0}, {21.3, -157.85, 0}, {61.2, 10.0, 0},
    {0.0, 180.0, 0},     {0.0, -180.0, 0},   {90.0, 0.0, 0},     {-90.0, 0.0, 0},
    {5.0, 100.0, 0},     {-52.0, -70.0, 0}};

TEST(AccessIndexTest, CandidateListIsSupersetOfVisibleSet) {
  std::size_t checked = 0;
  for (const auto& c : sgp4_constellations()) {
    const auto& prop = static_cast<const Sgp4Propagator&>(c->propagator());
    for (const double min_elev : {10.0, 25.0}) {
      for (const auto& user : kSweepUsers) {
        double gx, gy, gz;
        ground_unit(user, gx, gy, gz);
        for (const double t : kSweepTimes) {
          SCOPED_TRACE("sats=" + std::to_string(c->total_sats()) +
                       " min_elev=" + std::to_string(min_elev) + " lat=" +
                       std::to_string(user.lat_deg) + " lon=" +
                       std::to_string(user.lon_deg) + " t=" + std::to_string(t));
          std::vector<SatId> cands;
          const std::size_t tested = sgp4_cone_sweep(
              prop, gx, gy, gz, t, cone_gate(prop.max_gate_altitude_km(), min_elev),
              [&](std::size_t f, const geo::GeoPoint&) {
                cands.push_back(c->sat_id_from_flat(f));
              });
          EXPECT_EQ(tested, c->total_sats());
          const auto want = full_frame_visible(*c, user, t, min_elev);
          for (const SatId& id : want) {
            EXPECT_TRUE(std::find(cands.begin(), cands.end(), id) != cands.end());
          }
          std::vector<SatId> got;
          for (const auto& v : c->visible(user, t, min_elev)) got.push_back(v.id);
          EXPECT_TRUE(got == want);
          checked += want.size();
        }
      }
    }
  }
  EXPECT_GT(checked, 0u);
  // That the gate is tight enough to be useful, not a degenerate "all",
  // is Sgp4ConeSweepTest.StarlinkQueryPropagatesOnlyCandidates.
}

TEST(AccessIndexTest, ServingMatchesFullSweepBitForBit) {
  std::size_t served = 0;
  for (const auto& c : sgp4_constellations()) {
    const auto net = make_starlink_access(c);
    const double net_elev = net.config().min_elevation_deg;
    for (const auto& user : kSweepUsers) {
      for (const double t : kSweepTimes) {
        SCOPED_TRACE("sats=" + std::to_string(c->total_sats()) + " lat=" +
                     std::to_string(user.lat_deg) + " lon=" +
                     std::to_string(user.lon_deg) + " t=" + std::to_string(t));
        const auto want = oracle_sgp4_best_visible(*c, user, t, net_elev);
        expect_same_visible(net.serving_sat_at_epoch(user, t), want);
        expect_same_visible(c->best_visible(user, t, net_elev), want);
        expect_same_visible(c->best_visible(user, t, 10.0),
                            oracle_sgp4_best_visible(*c, user, t, 10.0));
        if (want) ++served;
      }
    }
  }
  EXPECT_GT(served, 0u);
}

TEST(AccessIndexTest, SamplesByteIdenticalCacheOnAndOff) {
  const auto net = make_starlink_access(starlink());
  const geo::GeoPoint user{47.61, -122.33, 0};
  for (double t = 0; t < 1800.0; t += 7.5) {
    const AccessSample accelerated = net.sample_with_handoff(user, t);
    AccessSample exact_sample;
    {
      ScopedExactPath exact;
      exact_sample = net.sample_with_handoff(user, t);
    }
    EXPECT_TRUE(same_sample(accelerated, exact_sample)) << "t=" << t;
  }
}

TEST(AccessIndexTest, FaultWindowsPartitionErasWithoutFlushingIndex) {
  const auto net = make_starlink_access(starlink());
  const geo::GeoPoint user{47.61, -122.33, 0};  // Seattle: homed to the
                                                // gateway the plan kills
  fault::FaultEvent outage;
  outage.kind = fault::EventKind::gateway_outage;
  outage.target = "seattle";
  outage.t_start_sec = 1000.0;  // deliberately mid-epoch: [990, 1005)
  outage.t_end_sec = 2000.0;
  fault::ScopedHook hook(fault::FaultPlan{{outage}});

  // t = 995 and t = 1002 share the same reconfiguration epoch (990) and
  // the same serving satellite, but straddle the outage edge, so the
  // accelerated path must not carry the pre-outage gateway into the
  // window.
  const AccessSample before = net.sample(user, 995.0);
  const AccessSample inside = net.sample(user, 1002.0);
  ASSERT_TRUE(before.reachable);
  ASSERT_TRUE(inside.reachable);
  EXPECT_TRUE(*before.serving_sat == *inside.serving_sat);
  EXPECT_NE(before.gateway_index, inside.gateway_index);
  // And both sides of the edge must agree with the exact path exactly.
  ScopedExactPath exact;
  EXPECT_TRUE(same_sample(before, net.sample(user, 995.0)));
  EXPECT_TRUE(same_sample(inside, net.sample(user, 1002.0)));
}

// ------------------------------------------------------ walker cone sweep

/// The Walker cone sweep as it was before the plane skip: every slot of
/// every plane runs the rotation recurrence and the gate test. The
/// production sweep must emit exactly this candidate sequence.
std::vector<SatId> oracle_cone_sweep(const std::vector<Shell>& shells, double gx,
                                     double gy, double gz, double t_sec,
                                     const std::vector<double>& gates) {
  constexpr double kTwoPi = 2.0 * 3.14159265358979323846;
  std::vector<SatId> out;
  for (std::size_t s = 0; s < shells.size(); ++s) {
    const Shell& shell = shells[s];
    const double gate = gates[s];
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
      const double u0 = phase_step * static_cast<double>(p) + motion;
      double cu = std::cos(u0);
      double su = std::sin(u0);
      for (std::size_t i = 0; i < shell.sats_per_plane; ++i) {
        const double w = cos_i * su;
        const double x = cu * cos_phi - w * sin_phi;
        const double y = cu * sin_phi + w * cos_phi;
        const double z = sin_i * su;
        if (gx * x + gy * y + gz * z >= gate) out.push_back(SatId{s, p, i});
        const double cu_next = cu * cos_du - su * sin_du;
        su = su * cos_du + cu * sin_du;
        cu = cu_next;
      }
    }
  }
  return out;
}

/// Per-shell visibility cone gate, the same formula best_visible uses.
std::vector<double> cone_gates(const std::vector<Shell>& shells, double min_elev_deg) {
  std::vector<double> gates;
  for (const Shell& shell : shells) gates.push_back(cone_gate(shell.altitude_km, min_elev_deg));
  return gates;
}

TEST(WalkerConeSweepTest, PlaneSkipEmitsTheOracleCandidateSequence) {
  std::vector<std::vector<Shell>> shell_sets = {
      starlink_shells(), {oneweb_shell()}, {o3b_shell()}};
  for (const std::uint64_t seed : {3u, 7u, 11u, 19u, 23u}) {
    for (const auto& net : synth::generate_scenario(seed).networks) {
      if (!net.shells.empty()) shell_sets.push_back(net.shells);
    }
  }
  stats::Rng rng(0x5eed);
  std::vector<geo::GeoPoint> users = {{90.0, 0.0, 0},     {-90.0, 0.0, 0},
                                      {0.0, 180.0, 0},    {0.0, -180.0, 0},
                                      {47.6, -180.0, 0},  {-33.9, 180.0, 0}};
  while (users.size() < 60) {
    users.push_back({rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0), 0});
  }
  std::vector<double> times = {0.0, 1e9};
  while (times.size() < 8) times.push_back(rng.uniform(0.0, 1e9));

  std::size_t total = 0, skipped = 0;
  // Runs both sweeps for one ground direction and returns the oracle's
  // candidates after asserting the production sweep emitted the same.
  const auto check = [&](const std::vector<Shell>& shells,
                         const std::vector<double>& gates, double gx, double gy,
                         double gz, double t) {
    std::vector<SatId> got;
    const std::size_t tested = walker_cone_sweep(
        shells, gx, gy, gz, t, [&](std::size_t s) { return gates[s]; },
        [&](std::size_t s, std::size_t p, std::size_t i) { got.push_back(SatId{s, p, i}); });
    const auto want = oracle_cone_sweep(shells, gx, gy, gz, t, gates);
    EXPECT_TRUE(got == want) << "g=(" << gx << ", " << gy << ", " << gz << ") t=" << t
                             << ": " << got.size() << " vs " << want.size();
    std::size_t all = 0;
    for (const Shell& shell : shells) all += shell.total_sats();
    EXPECT_LE(want.size(), tested);
    EXPECT_LE(tested, all);
    total += all;
    skipped += all - tested;
    return want;
  };

  for (const auto& shells : shell_sets) {
    for (const double min_elev : {15.0, 25.0, 30.0}) {
      const std::vector<double> gates = cone_gates(shells, min_elev);
      for (const auto& user : users) {
        double gx, gy, gz;
        ground_unit(user, gx, gy, gz);
        for (const double t : times) check(shells, gates, gx, gy, gz, t);
      }
      // Grazing planes: g is one satellite's direction r tilted toward
      // its plane's normal n until g·r = gate ± 1e-10, which puts the
      // plane bound 1e-10 from the gate. A skip that cut into its slack
      // by more than that would drop the satellite.
      constexpr double kTwoPi = 2.0 * 3.14159265358979323846;
      for (int k = 0; k < 40; ++k) {
        const auto s = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(shells.size()) - 1));
        const Shell& shell = shells[s];
        const auto p = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(shell.planes) - 1));
        const auto i = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(shell.sats_per_plane) - 1));
        const double t = times[static_cast<std::size_t>(k) % times.size()];
        const double inc = geo::deg_to_rad(shell.inclination_deg);
        const double phi =
            kTwoPi * static_cast<double>(p) / static_cast<double>(shell.planes) -
            kEarthRotationRadPerSec * t;
        const double u = kTwoPi * static_cast<double>(shell.phase_factor) /
                             static_cast<double>(shell.total_sats()) *
                             static_cast<double>(p) +
                         shell.mean_motion_rad_per_sec() * t +
                         kTwoPi * static_cast<double>(i) /
                             static_cast<double>(shell.sats_per_plane);
        const double r[3] = {
            std::cos(u) * std::cos(phi) - std::cos(inc) * std::sin(u) * std::sin(phi),
            std::cos(u) * std::sin(phi) + std::cos(inc) * std::sin(u) * std::cos(phi),
            std::sin(inc) * std::sin(u)};
        const double n[3] = {std::sin(inc) * std::sin(phi), -std::sin(inc) * std::cos(phi),
                             std::cos(inc)};
        for (const double margin : {1e-10, -1e-10}) {
          const double cos_t = gates[s] + margin;
          const double sin_t = std::sqrt(1.0 - cos_t * cos_t);
          const auto want = check(shells, gates, cos_t * r[0] + sin_t * n[0],
                                  cos_t * r[1] + sin_t * n[1], cos_t * r[2] + sin_t * n[2], t);
          const bool listed =
              std::find(want.begin(), want.end(), SatId{s, p, i}) != want.end();
          EXPECT_EQ(listed, margin > 0) << "grazing case built wrong: shell " << s
                                        << " plane " << p << " index " << i << " t=" << t;
        }
      }
    }
  }
  // The skip does real work: a sizeable share of satellites is never
  // gate-tested, or the test proves nothing about the skip.
  EXPECT_GT(skipped, total / 4);
}

TEST(WalkerConeSweepTest, StarlinkQueryCountsOnlyGateTestedSatellites) {
  auto& reg = obs::MetricsRegistry::global();
  obs::Counter& swept = reg.counter("orbit.best_visible.sats_swept");
  obs::Counter& evals = reg.counter("orbit.best_visible.exact_evals");
  const auto c = starlink();
  const auto net = make_starlink_access(c);
  const geo::GeoPoint user{47.6, -122.3, 0};
  const double epoch = 4500.0;  // an epoch boundary: sample() queries it

  const std::uint64_t swept0 = swept.value(), evals0 = evals.value();
  ASSERT_TRUE(net.sample(user, epoch).reachable);
  const std::uint64_t swept_n = swept.value() - swept0;

  double gx, gy, gz;
  ground_unit(user, gx, gy, gz);
  const auto gates = cone_gates(c->shells(), net.config().min_elevation_deg);
  const auto oracle = oracle_cone_sweep(c->shells(), gx, gy, gz, epoch, gates);
  EXPECT_GT(swept_n, 0u);
  EXPECT_LT(swept_n, c->total_sats());
  EXPECT_EQ(evals.value() - evals0, oracle.size());
}

TEST(Sgp4ConeSweepTest, StarlinkQueryPropagatesOnlyCandidates) {
  auto& reg = obs::MetricsRegistry::global();
  obs::Counter& swept = reg.counter("orbit.best_visible.sats_swept");
  obs::Counter& evals = reg.counter("orbit.best_visible.exact_evals");
  const auto c = starlink_sgp4();
  const geo::GeoPoint user{47.6, -122.3, 0};
  const std::uint64_t swept0 = swept.value(), evals0 = evals.value();
  ASSERT_TRUE(c->best_visible(user, 4530.0, 25.0).has_value());
  // Every satellite is dot-tested against the grid frame; only the few
  // inside the widened cone run SGP4 at the query instant.
  EXPECT_EQ(swept.value() - swept0, c->total_sats());
  const std::uint64_t evals_n = evals.value() - evals0;
  EXPECT_GT(evals_n, 0u);
  EXPECT_LT(evals_n, c->total_sats() / 10);
}

// ------------------------------------------------- parameterized sweeps

class VisibilityProperty : public ::testing::TestWithParam<int> {};

TEST_P(VisibilityProperty, StarlinkServiceAreaAlwaysCovered) {
  // Any mid-latitude point on Earth sees a Starlink satellite at any time.
  const auto c = starlink();
  const double lat = -50.0 + GetParam() * 10.0;
  for (double lon = -180; lon < 180; lon += 60) {
    const auto v = c->best_visible({lat, lon, 0}, GetParam() * 733.0, 25.0);
    EXPECT_TRUE(v.has_value()) << "lat=" << lat << " lon=" << lon;
  }
}

INSTANTIATE_TEST_SUITE_P(Latitudes, VisibilityProperty, ::testing::Range(0, 11));

class GeoElevationProperty : public ::testing::TestWithParam<int> {};

TEST_P(GeoElevationProperty, DelayGrowsWithUserLatitude) {
  const auto net = make_geo_access("denver", -101.0, 45.0);
  const double lat_low = 5.0 * GetParam();
  const double lat_high = lat_low + 5.0;
  const auto a = net.sample({lat_low, -101.0, 0}, 0.0);
  const auto b = net.sample({lat_high, -101.0, 0}, 0.0);
  if (a.reachable && b.reachable) {
    EXPECT_LE(a.up_ms, b.up_ms + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Latitudes, GeoElevationProperty, ::testing::Range(0, 12));

}  // namespace
}  // namespace satnet::orbit
