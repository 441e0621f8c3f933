// Flight recorder (events and the span view), shard-loop phase profile,
// and pool watchdog tests.
//
// The load-bearing property is the determinism contract: a det == 1
// record's content (kind, phase, shard, attempt, seq, a, b) replays
// bit-for-bit, only wall_us varies, and ring overflow drops oldest
// records — never a span's phase_enter or phase_exit — so even a
// truncated stream is stable and every span survives. The postmortem test
// pins the acceptance criterion directly: an abort-mode campaign
// failure dumps a postmortem whose deterministic fields are identical
// across two runs at threads=1 (wall_us stripped via suffix cut —
// event_jsonl_line puts it last for exactly this reason).
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdio>
#include <atomic>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "runtime/sharded.hpp"
#include "runtime/thread_pool.hpp"

namespace satnet {
namespace {

using obs::EventKind;
using obs::EventRecord;
using obs::FlightRecorder;
using obs::ResolvedEvent;
using obs::ShardScope;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Cuts the trailing `,"wall_us":N}` off every event line — the
/// documented golden-exclusion recipe for the one nondeterministic
/// field. Non-event lines (the postmortem reason line) pass through.
std::string strip_wall_us(const std::string& text) {
  std::ostringstream out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t pos = line.rfind(",\"wall_us\":");
    if (pos != std::string::npos && !line.empty() && line.back() == '}') {
      out << line.substr(0, pos) << "}\n";
    } else {
      out << line << "\n";
    }
  }
  return out.str();
}

TEST(RecorderTest, DisabledRecorderIsANoOp) {
  FlightRecorder rec;
  ASSERT_FALSE(rec.enabled());
  {
    ShardScope scope("off", 0, 0, &rec);
    rec.record(EventKind::fault_hit, 1);
  }
  EXPECT_TRUE(rec.drain().empty());
  EXPECT_EQ(rec.dump_postmortem("never written"), 0u);
}

TEST(RecorderTest, RingDropsOldestAndPhaseExitSurvives) {
  FlightRecorder rec;
  rec.set_enabled(true);
  rec.set_ring_capacity(4);
  {
    ShardScope scope("ring", 7, 0, &rec);
    // 12 records: enter (seq 0, pinned outside the ring), ten
    // fault_hits (seq 1..10), exit (seq 11). The ring holds the other
    // three slots; oldest-first overwrite leaves enter plus seq 9..11.
    for (std::uint64_t i = 0; i < 10; ++i) {
      rec.record(EventKind::fault_hit, /*a=*/100 + i);
    }
  }
  const std::vector<ResolvedEvent> events = rec.drain();
  ASSERT_EQ(events.size(), 4u);
  const std::uint32_t seqs[] = {0, 9, 10, 11};
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].phase, "ring");
    EXPECT_EQ(events[i].rec.shard, 7u);
    EXPECT_EQ(events[i].rec.seq, seqs[i]);
    EXPECT_EQ(events[i].rec.det, 1u);
  }
  EXPECT_EQ(events[0].rec.kind, static_cast<std::uint16_t>(EventKind::phase_enter));
  // Surviving fault_hits carry their original payloads (seq k = a 99+k).
  EXPECT_EQ(events[1].rec.kind, static_cast<std::uint16_t>(EventKind::fault_hit));
  EXPECT_EQ(events[1].rec.a, 108u);
  // phase_exit is pushed last so it always survives overflow: a = drops
  // before its own push (seqs 1..7), b = records attempted before it.
  const ResolvedEvent& exit_ev = events.back();
  EXPECT_EQ(exit_ev.rec.kind, static_cast<std::uint16_t>(EventKind::phase_exit));
  EXPECT_EQ(exit_ev.rec.a, 7u);
  EXPECT_EQ(exit_ev.rec.b, 11u);
  // ... so the scope is still exactly one span.
  EXPECT_EQ(obs::spans_of(events).size(), 1u);
}

TEST(RecorderTest, DrainMergesShardsInCanonicalOrder) {
  FlightRecorder rec;
  rec.set_enabled(true);
  rec.set_ring_capacity(16);
  // Record shard 1 first, then shard 0: drain must still hand back
  // shard 0 first — the merge key is (phase, shard, attempt, seq), not
  // arrival order, which is what makes multi-threaded streams stable.
  {
    ShardScope scope("merge", 1, 0, &rec);
    rec.record(EventKind::timeline_hit, 2);
  }
  {
    ShardScope scope("merge", 0, 0, &rec);
    rec.record(EventKind::timeline_fallback, 3);
  }
  const std::vector<ResolvedEvent> events = rec.drain();
  ASSERT_EQ(events.size(), 6u);  // (enter, payload, exit) x 2 shards
  EXPECT_EQ(events[0].rec.shard, 0u);
  EXPECT_EQ(events[1].rec.shard, 0u);
  EXPECT_EQ(events[2].rec.shard, 0u);
  EXPECT_EQ(events[3].rec.shard, 1u);
  EXPECT_EQ(events[1].rec.kind,
            static_cast<std::uint16_t>(EventKind::timeline_fallback));
  EXPECT_EQ(events[4].rec.kind,
            static_cast<std::uint16_t>(EventKind::timeline_hit));
  // drain() is destructive.
  EXPECT_TRUE(rec.drain().empty());
}

TEST(RecorderTest, UnscopedRecordsAreTelemetryOnly) {
  FlightRecorder rec;
  rec.set_enabled(true);
  // No ShardScope on this thread: the record lands in the per-thread
  // unscoped ring with det forced to 0 even though the caller claimed
  // deterministic content — unscoped arrival order is scheduling-bound.
  rec.record(EventKind::fault_hit, 5, 0, /*det=*/true);
  const std::vector<ResolvedEvent> events = rec.drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].phase, "unscoped");
  EXPECT_EQ(events[0].rec.det, 0u);
  EXPECT_EQ(events[0].rec.shard, EventRecord::kNoShard);
  EXPECT_EQ(events[0].rec.a, 5u);
}

TEST(RecorderTest, RecordForShardSortsAfterScopedStream) {
  FlightRecorder rec;
  rec.set_enabled(true);
  rec.set_ring_capacity(8);
  {
    ShardScope scope("fanin", 2, 1, &rec);
    rec.record(EventKind::retry, 1);
  }
  // Fan-in verdict emitted after the scope closed (the degrade path in
  // ShardedCampaign::collect): seq = 0xffffffff puts it last.
  rec.record_for_shard("fanin", 2, 1, EventKind::degrade, /*a=*/2);
  const std::vector<ResolvedEvent> events = rec.drain();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.back().rec.kind,
            static_cast<std::uint16_t>(EventKind::degrade));
  EXPECT_EQ(events.back().rec.seq, 0xffffffffu);
  EXPECT_EQ(events.back().rec.det, 1u);
}

TEST(RecorderTest, EventsRoundTripThroughJsonl) {
  FlightRecorder rec;
  rec.set_enabled(true);
  rec.set_ring_capacity(8);
  {
    ShardScope scope("jsonl", 3, 2, &rec);
    rec.record(EventKind::fault_hit, 42, 7);
  }
  rec.record_for_shard("jsonl", 3, 2, EventKind::degrade, 3);
  const std::vector<ResolvedEvent> events = rec.drain();
  const std::string text = obs::events_jsonl(events);
  const std::vector<ResolvedEvent> parsed = obs::parse_events_jsonl(text);
  ASSERT_EQ(parsed.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(parsed[i].phase, events[i].phase);
    EXPECT_EQ(parsed[i].rec.kind, events[i].rec.kind);
    EXPECT_EQ(parsed[i].rec.det, events[i].rec.det);
    EXPECT_EQ(parsed[i].rec.shard, events[i].rec.shard);
    EXPECT_EQ(parsed[i].rec.attempt, events[i].rec.attempt);
    EXPECT_EQ(parsed[i].rec.seq, events[i].rec.seq);
    EXPECT_EQ(parsed[i].rec.a, events[i].rec.a);
    EXPECT_EQ(parsed[i].rec.b, events[i].rec.b);
    EXPECT_EQ(parsed[i].rec.wall_us, events[i].rec.wall_us);
  }
  // The suffix-cut contract: wall_us is the last field of every line.
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    EXPECT_NE(line.rfind(",\"wall_us\":"), std::string::npos) << line;
  }
}

/// Runs an abort-mode campaign whose shard 2 always throws and returns
/// the postmortem text. threads=1 pins the inline path: the det == 1
/// stream is byte-stable there (thread_local replay caches make
/// cache-hit events thread-count-sensitive, so the stability contract
/// is per thread count).
std::string run_failing_campaign_postmortem(const std::string& path) {
  FlightRecorder& rec = FlightRecorder::global();
  rec.drain();  // isolate from events earlier tests left behind
  const bool was_enabled = rec.enabled();
  const std::string old_path = rec.postmortem_path();
  rec.set_enabled(true);
  rec.set_postmortem_path(path);

  runtime::ShardedCampaign<int> campaign(
      4,
      [](std::size_t shard) -> int {
        if (shard == 2) throw std::runtime_error("synthetic shard fault");
        return static_cast<int>(shard) * 10;
      },
      "rec.postmortem.test");
  runtime::RetryPolicy policy;
  policy.max_attempts = 2;
  policy.degrade = false;
  bool threw = false;
  try {
    campaign.run_with_report(1, policy, nullptr);
  } catch (const std::runtime_error&) {
    threw = true;
  }
  EXPECT_TRUE(threw);

  rec.drain();
  rec.set_postmortem_path(old_path);
  rec.set_enabled(was_enabled);
  return read_file(path);
}

TEST(RecorderTest, PostmortemDeterministicFieldsStableAcrossRuns) {
  const std::string path_a = "recorder_test_postmortem_a.jsonl";
  const std::string path_b = "recorder_test_postmortem_b.jsonl";
  const std::string run_a = run_failing_campaign_postmortem(path_a);
  const std::string run_b = run_failing_campaign_postmortem(path_b);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());

  ASSERT_FALSE(run_a.empty());
  // Reason line first, fully deterministic (no wall-clock in it).
  EXPECT_NE(run_a.find("{\"type\":\"postmortem\",\"reason\":\"abort-mode failure "
                       "in phase rec.postmortem.test: shard 2 failed after 2 "
                       "attempt(s): synthetic shard fault\""),
            std::string::npos)
      << run_a;
  // The retry decision made it into the black box.
  EXPECT_NE(run_a.find("\"kind\":\"retry\""), std::string::npos);
  // Byte-identical once the wall_us suffix is cut from each event line.
  EXPECT_EQ(strip_wall_us(run_a), strip_wall_us(run_b));
  // ... and the wall-clock really is the only varying part: the raw
  // texts themselves have identical line counts and lengths modulo it.
  EXPECT_NE(run_a.find("\"phase\":\"rec.postmortem.test\""), std::string::npos);
}

TEST(RecorderTest, UnscopedRecordsMergeByContentRank) {
  FlightRecorder rec;
  rec.set_enabled(true);
  // Two threads record the same multiset in opposite orders: the merge
  // must hand back one order — sorted by (kind, a, b), seq = rank.
  const auto burst = [&rec](bool reverse) {
    for (int i = 0; i < 4; ++i) {
      const std::uint64_t a = reverse ? 3 - i : i;
      rec.record(a % 2 == 0 ? EventKind::fault_hit : EventKind::stall_flag, a, 9 - a);
    }
  };
  std::thread t1(burst, false);
  std::thread t2(burst, true);
  t1.join();
  t2.join();
  const std::vector<ResolvedEvent> events = rec.drain();
  ASSERT_EQ(events.size(), 8u);
  const std::uint64_t want_a[] = {0, 0, 2, 2, 1, 1, 3, 3};
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].phase, "unscoped");
    EXPECT_EQ(events[i].rec.seq, i);
    EXPECT_EQ(events[i].rec.a, want_a[i]) << i;
    EXPECT_EQ(events[i].rec.b, 9 - want_a[i]) << i;
  }
}

TEST(RecorderTest, SpansArePhaseEnterExitPairsInCanonicalOrder) {
  FlightRecorder rec;
  rec.set_enabled(true);
  rec.set_ring_capacity(2);  // the span pair alone: body records all drop
  // Scopes from four threads in scrambled shard order; one shard of
  // each phase also retries. The span view comes back sorted by
  // (phase, shard, seq = attempt), named shard/retry.
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&rec, t] {
      for (std::size_t i = 0; i < 3; ++i) {
        const std::size_t shard = 10 - i;
        const std::size_t attempts = shard == 9 ? 2 : 1;
        for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
          ShardScope scope("phase-" + std::to_string(t), shard, attempt, &rec);
          rec.record(EventKind::timeline_hit, 1);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  const std::vector<obs::Span> spans = obs::spans_of(rec.drain());
  ASSERT_EQ(spans.size(), 16u);  // 4 phases x (3 shards + 1 retry)
  std::size_t i = 0;
  for (int t = 0; t < 4; ++t) {
    for (const auto& [shard, seq] : {std::pair{8u, 0u}, {9u, 0u}, {9u, 1u}, {10u, 0u}}) {
      const obs::Span& s = spans[i++];
      EXPECT_EQ(s.phase, "phase-" + std::to_string(t));
      EXPECT_EQ(s.shard, shard);
      EXPECT_EQ(s.seq, seq);
      EXPECT_EQ(s.name, seq == 0 ? "shard" : "retry");
      EXPECT_GE(s.duration_ms, 0.0);
    }
  }
}

TEST(RecorderTest, SpansRoundTripThroughJsonl) {
  FlightRecorder rec;
  rec.set_enabled(true);
  {
    ShardScope scope("mlab.campaign", 3, 1, &rec);
  }
  const std::vector<obs::Span> spans = obs::spans_of(rec.drain());
  ASSERT_EQ(spans.size(), 1u);
  const std::vector<obs::Span> parsed = obs::parse_spans_jsonl(obs::spans_jsonl(spans));
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].phase, "mlab.campaign");
  EXPECT_EQ(parsed[0].name, "retry");
  EXPECT_EQ(parsed[0].shard, 3u);
  EXPECT_EQ(parsed[0].seq, 1u);
  EXPECT_DOUBLE_EQ(parsed[0].start_ms, spans[0].start_ms);
  EXPECT_DOUBLE_EQ(parsed[0].duration_ms, spans[0].duration_ms);
}

// The tracing view: a span is a ShardScope's phase_enter/phase_exit pair.
TEST(TracerTest, DisabledTracerRecordsNothing) {
  FlightRecorder rec;  // disabled by default
  {
    ShardScope scope("p", 0, 0, &rec);
    rec.set_enabled(true);  // a scope opened while off stays off: no half span
  }
  const std::vector<ResolvedEvent> events = rec.drain();
  EXPECT_TRUE(events.empty());
  EXPECT_TRUE(obs::spans_of(events).empty());
}

TEST(TracerTest, GlobalRegistryAndTracerCoexist) {
  // The global objects are what the instrumented layers use; make sure
  // the singletons are stable across calls.
  EXPECT_EQ(&obs::MetricsRegistry::global(), &obs::MetricsRegistry::global());
  EXPECT_EQ(&FlightRecorder::global(), &FlightRecorder::global());
}

double counter_value(const std::string& name) {
  const obs::Snapshot snap = obs::MetricsRegistry::global().scrape();
  const obs::MetricValue* m = snap.find(name);
  return m == nullptr ? -1.0 : m->value;
}

TEST(ShardedCampaignProfileTest, ShardLoopProfilesEveryCompletedAttempt) {
  // Five shards, shard 1 throws once and succeeds on its retry: six
  // attempts, five completed. The profile counts completed attempts;
  // the trace has one span per attempt, at any ring size.
  FlightRecorder& rec = FlightRecorder::global();
  rec.drain();
  const std::size_t old_capacity = rec.ring_capacity();
  rec.set_enabled(true);
  for (const std::size_t ring : {std::size_t{512}, std::size_t{2}}) {
    rec.set_ring_capacity(ring);
    const std::string phase = "profile.test.ring" + std::to_string(ring);
    std::atomic<int> failures{0};
    runtime::ShardedCampaign<int> campaign(
        5,
        [&failures](std::size_t shard) {
          if (shard == 1 && failures.fetch_add(1) == 0) {
            throw std::runtime_error("first attempt fails");
          }
          return static_cast<int>(shard);
        },
        phase);
    runtime::RetryPolicy policy;
    policy.max_attempts = 2;
    runtime::CampaignReport report;
    const std::vector<int> out = campaign.run_with_report(2, policy, &report);
    ASSERT_EQ(out.size(), 5u);
    EXPECT_EQ(report.retries, 1u);
    EXPECT_EQ(counter_value("profile." + phase + ".tasks"), 5.0);
    EXPECT_GE(counter_value("profile." + phase + ".wall_us"), 0.0);
    EXPECT_GE(counter_value("profile." + phase + ".queue_wait_us"), 0.0);
    std::size_t shards = 0, retries = 0;
    for (const obs::Span& s : obs::spans_of(rec.drain())) {
      if (s.phase != phase) continue;
      ++(s.name == "shard" ? shards : retries);
      if (s.name == "retry") {
        EXPECT_EQ(s.shard, 1u);
      }
    }
    EXPECT_EQ(shards, 5u) << "ring " << ring;
    EXPECT_EQ(retries, 1u) << "ring " << ring;
  }
  rec.set_ring_capacity(old_capacity);
  rec.set_enabled(false);
}

TEST(WatchdogTest, PoolWatchdogFlagsLongRunningTask) {
  // Configure before construction: the watchdog thread is spawned (or
  // not) at pool construction time. Generous margins — 10ms poll, 50ms
  // threshold, 300ms task — keep this stable under sanitizers.
  const unsigned old_poll = runtime::pool_watchdog_poll_ms();
  const double old_threshold = runtime::pool_watchdog_threshold_ms();
  runtime::set_pool_watchdog(10, 50.0);

  obs::Counter& stall = obs::MetricsRegistry::global().counter(
      "runtime.pool.stall", "watchdog-flagged straggler tasks");
  const std::uint64_t before = stall.value();
  {
    runtime::ThreadPool pool(2);
    pool.submit([] {
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
    });
    pool.wait_idle();
  }
  EXPECT_GE(stall.value(), before + 1);

  runtime::set_pool_watchdog(old_poll, old_threshold);
}

TEST(WatchdogTest, DisabledWatchdogFlagsNothing) {
  runtime::set_pool_watchdog(0, 50.0);
  obs::Counter& stall = obs::MetricsRegistry::global().counter(
      "runtime.pool.stall", "watchdog-flagged straggler tasks");
  const std::uint64_t before = stall.value();
  {
    runtime::ThreadPool pool(2);
    pool.submit([] {
      std::this_thread::sleep_for(std::chrono::milliseconds(120));
    });
    pool.wait_idle();
  }
  EXPECT_EQ(stall.value(), before);
}

}  // namespace
}  // namespace satnet
