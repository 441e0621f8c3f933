// Shard-merge determinism: a seeded campaign is a pure function of
// (seed, config), never of thread count or scheduling order. These tests
// run the same campaigns at 1, 2, and 8 threads and require byte-equal
// outputs. They are also the workload for the ThreadSanitizer preset
// (scripts/verify.sh builds with -DSATNET_TSAN=ON and runs this binary).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <regex>
#include <string>

#include "fault/hook.hpp"
#include "fault/plan.hpp"
#include "matrix/eval.hpp"
#include "mlab/campaign.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "orbit/timeline.hpp"
#include "ripe/atlas.hpp"
#include "snoid/pipeline.hpp"
#include "synth/world.hpp"
#include "synth/worldgen.hpp"

namespace satnet {
namespace {

const synth::World& world() {
  static const synth::World w;
  return w;
}

mlab::CampaignConfig campaign_config(unsigned threads) {
  mlab::CampaignConfig cfg;
  cfg.volume_scale = 0.0005;
  cfg.min_tests_per_sno = 25;
  cfg.threads = threads;
  return cfg;
}

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
}

std::uint64_t atlas_hash(const ripe::AtlasDataset& ds) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  fnv_mix(h, ds.traceroutes.size());
  for (const auto& t : ds.traceroutes) {
    fnv_mix(h, static_cast<std::uint64_t>(t.probe_id));
    fnv_mix(h, std::bit_cast<std::uint64_t>(t.t_sec));
    fnv_mix(h, static_cast<std::uint64_t>(t.root));
    fnv_mix(h, static_cast<std::uint64_t>(t.via_cgnat));
    fnv_mix(h, stats::Rng::hash_name(t.pop_name));
    fnv_mix(h, std::bit_cast<std::uint64_t>(t.cgnat_rtt_ms));
    fnv_mix(h, std::bit_cast<std::uint64_t>(t.dest_rtt_ms));
    fnv_mix(h, static_cast<std::uint64_t>(t.hop_count));
    fnv_mix(h, stats::Rng::hash_name(t.instance_city));
  }
  fnv_mix(h, ds.sslcerts.size());
  for (const auto& s : ds.sslcerts) {
    fnv_mix(h, static_cast<std::uint64_t>(s.probe_id));
    fnv_mix(h, std::bit_cast<std::uint64_t>(s.t_sec));
    fnv_mix(h, static_cast<std::uint64_t>(s.src_addr.value()));
  }
  return h;
}

TEST(DeterminismTest, NdtDatasetHashIdenticalAcrossThreadCounts) {
  const auto one = mlab::run_campaign(world(), campaign_config(1));
  const auto two = mlab::run_campaign(world(), campaign_config(2));
  const auto eight = mlab::run_campaign(world(), campaign_config(8));
  ASSERT_GT(one.size(), 0u);
  EXPECT_EQ(one.hash(), two.hash());
  EXPECT_EQ(one.hash(), eight.hash());
}

TEST(DeterminismTest, NdtRecordsByteIdenticalAcrossThreadCounts) {
  const auto one = mlab::run_campaign(world(), campaign_config(1));
  const auto eight = mlab::run_campaign(world(), campaign_config(8));
  ASSERT_EQ(one.size(), eight.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    const auto& a = one.records()[i];
    const auto& b = eight.records()[i];
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.t_sec),
              std::bit_cast<std::uint64_t>(b.t_sec)) << "record " << i;
    ASSERT_EQ(a.asn, b.asn) << "record " << i;
    ASSERT_EQ(a.client_ip, b.client_ip) << "record " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.latency_p5_ms),
              std::bit_cast<std::uint64_t>(b.latency_p5_ms)) << "record " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.download_mbps),
              std::bit_cast<std::uint64_t>(b.download_mbps)) << "record " << i;
    ASSERT_EQ(a.truth_operator, b.truth_operator) << "record " << i;
    ASSERT_EQ(a.truth_satellite, b.truth_satellite) << "record " << i;
  }
}

TEST(DeterminismTest, PipelineResultsIdenticalAcrossThreadCounts) {
  const auto dataset = mlab::run_campaign(world(), campaign_config(1));
  snoid::PipelineConfig serial;
  serial.threads = 1;
  snoid::PipelineConfig sharded;
  sharded.threads = 8;
  const auto a = snoid::run_pipeline(dataset, serial);
  const auto b = snoid::run_pipeline(dataset, sharded);
  ASSERT_EQ(a.operators.size(), b.operators.size());
  EXPECT_EQ(a.identified_operators, b.identified_operators);
  EXPECT_DOUBLE_EQ(a.fallback_threshold_ms, b.fallback_threshold_ms);
  for (std::size_t i = 0; i < a.operators.size(); ++i) {
    const auto& x = a.operators[i];
    const auto& y = b.operators[i];
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.retained, y.retained) << x.name;
    EXPECT_DOUBLE_EQ(x.relax_threshold_ms, y.relax_threshold_ms) << x.name;
    EXPECT_DOUBLE_EQ(x.precision(), y.precision()) << x.name;
    EXPECT_DOUBLE_EQ(x.recall(), y.recall()) << x.name;
  }
}

TEST(DeterminismTest, AtlasDatasetIdenticalAcrossThreadCounts) {
  ripe::AtlasConfig cfg;
  cfg.duration_days = 60.0;
  cfg.round_interval_hours = 24.0;
  std::uint64_t hashes[3] = {};
  int i = 0;
  for (const unsigned threads : {1u, 2u, 8u}) {
    cfg.threads = threads;
    const auto ds = ripe::run_atlas_campaign(cfg);
    ASSERT_GT(ds.traceroutes.size(), 0u);
    hashes[i++] = atlas_hash(ds);
  }
  EXPECT_EQ(hashes[0], hashes[1]);
  EXPECT_EQ(hashes[0], hashes[2]);
}

TEST(DeterminismTest, ObservabilityNeverPerturbsResults) {
  // The obs contract: metrics and the recorder stream (events, and the
  // spans and profile derived from it) are telemetry that never feeds
  // back into simulation state. Campaign, pipeline and atlas output must
  // be byte-identical with observability fully off and fully on — a
  // tight ring, to exercise overflow — at every thread count.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::FlightRecorder& rec = obs::FlightRecorder::global();
  reg.set_enabled(false);
  rec.set_enabled(false);
  const auto baseline = mlab::run_campaign(world(), campaign_config(1));
  snoid::PipelineConfig pcfg;
  pcfg.threads = 1;
  const auto baseline_pipeline = snoid::run_pipeline(baseline, pcfg);
  ripe::AtlasConfig acfg;
  acfg.duration_days = 30.0;
  acfg.round_interval_hours = 24.0;
  acfg.threads = 1;
  const std::uint64_t atlas_baseline = atlas_hash(ripe::run_atlas_campaign(acfg));
  ASSERT_GT(baseline.size(), 0u);

  const std::size_t old_capacity = rec.ring_capacity();
  reg.set_enabled(true);
  rec.set_enabled(true);
  rec.set_ring_capacity(8);  // force drop-oldest on busy shards
  for (const unsigned threads : {1u, 2u, 8u}) {
    const auto ds = mlab::run_campaign(world(), campaign_config(threads));
    EXPECT_EQ(baseline.hash(), ds.hash()) << threads << " threads";
    snoid::PipelineConfig cfg;
    cfg.threads = threads;
    const auto pipe = snoid::run_pipeline(ds, cfg);
    ASSERT_EQ(baseline_pipeline.operators.size(), pipe.operators.size());
    EXPECT_EQ(baseline_pipeline.identified_operators, pipe.identified_operators);
    for (std::size_t i = 0; i < pipe.operators.size(); ++i) {
      const auto& a = baseline_pipeline.operators[i];
      const auto& b = pipe.operators[i];
      EXPECT_DOUBLE_EQ(a.precision(), b.precision()) << b.name;
      EXPECT_DOUBLE_EQ(a.recall(), b.recall()) << b.name;
    }
    acfg.threads = threads;
    EXPECT_EQ(atlas_baseline, atlas_hash(ripe::run_atlas_campaign(acfg)))
        << threads << " threads";
  }
  // Instrumentation did observe the runs (sanity: spans were recorded).
  EXPECT_FALSE(obs::spans_of(rec.drain()).empty());
  rec.set_ring_capacity(old_capacity);
  rec.set_enabled(false);  // restore defaults for other tests
}

/// Span and event lines of a drained stream with the wall-clock fields
/// masked: what must match between two runs at one thread count.
std::string masked_stream(const std::vector<obs::ResolvedEvent>& events) {
  static const std::regex wall("\"(start_ms|duration_ms|wall_us)\":[^,}]*");
  return std::regex_replace(obs::spans_jsonl(obs::spans_of(events)) +
                                obs::events_jsonl(events),
                            wall, "\"$1\":_");
}

TEST(DeterminismTest, StreamByteStableApartFromWallClock) {
  // At a fixed thread count the drained stream is byte-stable apart
  // from wall-clock fields: spans keyed by (phase, shard, attempt),
  // scoped events by their shard's own stream, and the unscoped fault
  // hits of the timeline build (rebuilt each run) by content rank.
  obs::FlightRecorder& rec = obs::FlightRecorder::global();
  fault::ScopedHook hook(fault::FaultPlan::parse_spec(
      "gateway_outage,seattle,864000,3456000,1\n"
      "handoff_storm,starlink,432000,518400,4\n"
      "shard_failure,mlab.campaign,0,63072000,0.3\n"));
  const bool timeline_was_enabled = orbit::timeline_enabled();
  orbit::set_timeline_enabled(true);
  rec.drain();
  rec.set_enabled(true);
  const auto run = [&rec] {
    orbit::EpochTimeline::clear_installed();
    mlab::CampaignConfig cfg = campaign_config(2);
    cfg.retry.max_attempts = 3;
    cfg.retry.degrade = true;
    mlab::run_campaign(world(), cfg);
    return rec.drain();
  };
  const std::vector<obs::ResolvedEvent> first = run();
  const std::vector<obs::ResolvedEvent> second = run();
  rec.set_enabled(false);
  orbit::set_timeline_enabled(timeline_was_enabled);
  orbit::EpochTimeline::clear_installed();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(masked_stream(first), masked_stream(second));
  // The run did exercise retries and unscoped (timeline-build) records.
  const auto has = [&first](auto pred) {
    return std::any_of(first.begin(), first.end(), pred);
  };
  EXPECT_TRUE(has([](const obs::ResolvedEvent& e) {
    return e.rec.kind == static_cast<std::uint16_t>(obs::EventKind::retry);
  }));
  EXPECT_TRUE(has([](const obs::ResolvedEvent& e) { return e.phase == "unscoped"; }));
}

TEST(DeterminismTest, TimelineNeverPerturbsResults) {
  // The accelerated access path (timeline replay, the cone sweeps for
  // anything uncovered and for every serving decision the timeline
  // build makes) must equal the exact path value for value, so campaign
  // output is byte-identical with the timeline on and off, at every
  // thread count — including the atlas campaign, whose pre-pass peeks
  // round streams on copies.
  orbit::EpochTimeline::clear_installed();
  orbit::set_timeline_enabled(false);
  const auto baseline = mlab::run_campaign(world(), campaign_config(1));
  ripe::AtlasConfig acfg;
  acfg.duration_days = 30.0;
  acfg.round_interval_hours = 24.0;
  acfg.threads = 1;
  const std::uint64_t atlas_baseline = atlas_hash(ripe::run_atlas_campaign(acfg));
  ASSERT_GT(baseline.size(), 0u);

  orbit::set_timeline_enabled(true);
  for (const unsigned threads : {1u, 2u, 8u}) {
    const auto ds = mlab::run_campaign(world(), campaign_config(threads));
    EXPECT_EQ(baseline.hash(), ds.hash()) << threads << " threads (timeline on)";
    acfg.threads = threads;
    EXPECT_EQ(atlas_baseline, atlas_hash(ripe::run_atlas_campaign(acfg)))
        << threads << " threads (timeline on)";
  }
  // The runs above actually replayed (sanity: the snapshot was consulted).
  EXPECT_GT(obs::MetricsRegistry::global().counter("timeline.replay.hit").value(), 0u);
}

TEST(DeterminismTest, Sgp4WorldIdenticalAcrossThreadCounts) {
  // SGP4 serving queries gate against grid frames memoized per thread,
  // so pool workers each fill their own memo while the timeline build
  // and the shards query. The world must still evaluate to the same
  // bytes at every thread count, with the timeline on and off.
  synth::ScenarioSpec spec = synth::generate_scenario(908);
  for (auto& net : spec.networks) {
    if (net.orbit != orbit::OrbitClass::geo) net.model = orbit::OrbitModel::sgp4;
  }
  const synth::GeneratedWorld gw(spec);
  orbit::EpochTimeline::clear_installed();
  matrix::EvalOptions opts;
  opts.threads = 1;
  opts.use_timeline = false;
  const std::string baseline = matrix::evaluate_world(gw, opts).report;
  ASSERT_FALSE(baseline.empty());
  for (const bool timeline : {false, true}) {
    for (const unsigned threads : {1u, 2u, 8u}) {
      opts.threads = threads;
      opts.use_timeline = timeline;
      EXPECT_EQ(baseline, matrix::evaluate_world(gw, opts).report)
          << threads << " threads, timeline " << (timeline ? "on" : "off");
      orbit::EpochTimeline::clear_installed();
    }
  }
}

TEST(DeterminismTest, RepeatedRunsIdentical) {
  // Same thread count twice: guards against any residual global state.
  const auto a = mlab::run_campaign(world(), campaign_config(4));
  const auto b = mlab::run_campaign(world(), campaign_config(4));
  EXPECT_EQ(a.hash(), b.hash());
}

}  // namespace
}  // namespace satnet
