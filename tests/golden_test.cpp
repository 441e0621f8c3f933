// Golden-run regression suite: pins the deterministic report text of
// three representative binaries byte-for-byte against snapshots in
// tests/golden/. Any change to simulation behaviour — intended or not —
// shows up here as a readable diff.
//
// Regenerating snapshots after an intended behaviour change (never in CI):
//
//   ./build/tests/golden_test --update-golden
//
// then review the diff of tests/golden/ like any other code change.
// SATNET_UPDATE_GOLDEN=1 in the environment does the same.
//
// The shared run flags (io/run_options.hpp) apply to the whole suite,
// and every snapshot must still match byte-for-byte — scripts/verify.sh
// --golden runs cold, warm-from-file (--timeline-in), exact-path
// (--no-timeline) and recorder (--trace-out) rounds against the same
// tests/golden/ corpus. Here --threads N adds one more asserted thread
// count to the 1/2/8 identity check.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "fault/hook.hpp"
#include "fault/plan.hpp"
#include "io/golden.hpp"
#include "io/run_options.hpp"
#include "orbit/timeline.hpp"
#include "synth/world.hpp"

namespace {

using namespace satnet;

bool& update_mode() {
  static bool update = false;
  return update;
}

/// Extra thread count to assert (--threads N); 0 = none. The suite
/// always checks 1/2/8 — this lets the repeat gate sweep further counts
/// (e.g. scripts/verify.sh --golden) without recompiling.
unsigned& extra_threads() {
  static unsigned t = 0;
  return t;
}

std::string golden_path(const char* name) {
  return std::string(GOLDEN_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) ADD_FAILURE() << "cannot open snapshot " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << "cannot write snapshot " << path;
  out << text;
}

/// Byte-compare `actual` against the named snapshot; in update mode,
/// rewrite the snapshot instead. On mismatch, report the first
/// differing line so the failure reads like a diff hunk.
void expect_golden(const char* name, const std::string& actual) {
  const std::string path = golden_path(name);
  if (update_mode()) {
    write_file(path, actual);
    std::printf("  updated %s (%zu bytes)\n", path.c_str(), actual.size());
    return;
  }
  const std::string expected = read_file(path);
  if (actual == expected) return;
  std::istringstream got(actual), want(expected);
  std::string got_line, want_line;
  std::size_t lineno = 0;
  while (true) {
    ++lineno;
    const bool g = static_cast<bool>(std::getline(got, got_line));
    const bool w = static_cast<bool>(std::getline(want, want_line));
    if (!g && !w) break;
    if (!g || !w || got_line != want_line) {
      FAIL() << name << " diverges from " << path << " at line " << lineno
             << "\n  expected: " << (w ? want_line : "<end of file>")
             << "\n  actual:   " << (g ? got_line : "<end of file>")
             << "\nIf the change is intended, regenerate with "
                "./build/tests/golden_test --update-golden and review the diff.";
    }
  }
  FAIL() << name << ": byte difference not visible line-by-line (trailing "
            "whitespace or newline?) — expected "
         << expected.size() << " bytes, got " << actual.size();
}

TEST(Golden, IdentifySnosThreadInvariant) {
  const std::string t1 = io::identify_snos_report(1);
  const std::string t2 = io::identify_snos_report(2);
  const std::string t8 = io::identify_snos_report(8);
  EXPECT_EQ(t1, t2) << "identify_snos narration differs between 1 and 2 threads";
  EXPECT_EQ(t1, t8) << "identify_snos narration differs between 1 and 8 threads";
  if (extra_threads() != 0) {
    EXPECT_EQ(t1, io::identify_snos_report(extra_threads()))
        << "identify_snos narration differs at --threads " << extra_threads();
  }
  expect_golden("identify_snos.txt", t1);
}

TEST(Golden, Fig9Speedtest) {
  const synth::World world;  // the benches' shared default world
  expect_golden("bench_fig9_speedtest.txt", io::fig9_speedtest_report(world));
}

TEST(Golden, AblationWeather) {
  expect_golden("bench_ablation_weather.txt", io::ablation_weather_report());
}

// The accelerated access path must stay invisible in report text even
// while a fault plan rewrites gateway availability and reconfig cadence
// mid-campaign: snapshots built without a plan must never leak stale
// samples into a fault-plan run — the era keys travel with the snapshot,
// so affected lookups fall back per era (to the exact path)
// while everything else keeps replaying. Compares the identify_snos
// walkthrough accelerated vs exact (--no-timeline) under the shipped
// example plan at every snapshot thread count.
TEST(Golden, TimelineAblationUnderFaultPlan) {
  const bool timeline_was_enabled = orbit::timeline_enabled();
  fault::ScopedHook scoped(fault::FaultPlan::load_file(FAULTPLAN_PATH));
  for (const unsigned threads : {1u, 2u, 8u}) {
    orbit::set_timeline_enabled(true);
    const std::string accelerated = io::identify_snos_report(threads);
    orbit::set_timeline_enabled(false);
    const std::string exact = io::identify_snos_report(threads);
    EXPECT_EQ(accelerated, exact)
        << "identify_snos diverges accelerated vs exact path at " << threads
        << " threads under " << FAULTPLAN_PATH;
  }
  orbit::set_timeline_enabled(timeline_was_enabled);
}

}  // namespace

int main(int argc, char** argv) {
  satnet::io::RunSession session("golden_test");
  std::string err = session.parse(&argc, argv);
  if (!err.empty()) return session.reject(err);
  extra_threads() = session.options().threads;
  ::testing::InitGoogleTest(&argc, argv);
  update_mode() = satnet::io::ArgScanner(&argc, argv).flag("--update-golden");
  if (const char* env = std::getenv("SATNET_UPDATE_GOLDEN")) {
    if (env[0] != '\0' && env[0] != '0') update_mode() = true;
  }
  err = session.begin();
  if (!err.empty()) return session.reject(err);
  const int rc = RUN_ALL_TESTS();
  return rc == 0 ? session.finish() : rc;
}
