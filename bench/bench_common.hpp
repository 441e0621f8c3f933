// Shared state and helpers for the figure/table benches.
//
// Every bench binary regenerates one table or figure of the paper: it
// prints the reproduced rows (with the paper's reported values alongside
// where the paper gives numbers) and then times its computational kernels
// with google-benchmark. Heavy inputs (world, campaigns, pipeline) are
// built once per binary and shared.
//
// Observability: every bench accepts --metrics-out PATH and
// --trace-out PATH ("-" = stdout). When either is given, the binary
// writes the export at exit and prints a human-readable metrics
// summary; --trace-out also enables span collection for the run.
#pragma once

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "fault/hook.hpp"
#include "io/timeline_io.hpp"
#include "mlab/campaign.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "orbit/timeline.hpp"
#include "ripe/atlas.hpp"
#include "runtime/thread_pool.hpp"
#include "snoid/pipeline.hpp"
#include "synth/world.hpp"

namespace satnet::bench {

/// Worker threads for campaign construction (--threads N; 0 = one per
/// hardware thread). Output is identical for every value — the knob only
/// moves wall-clock.
inline unsigned& threads() {
  static unsigned t = 0;
  return t;
}

/// Removes every occurrence of `--name value` / `--name=value` from
/// argv (google-benchmark rejects unknown flags). Returns 1 when found
/// (last occurrence's value wins, stored in *value), 0 when absent, -1
/// when the flag is present with no value.
inline int strip_flag(int* argc, char** argv, const char* name, std::string* value) {
  const std::size_t name_len = std::strlen(name);
  int found = 0;
  for (int i = 1; i < *argc;) {
    const char* arg = argv[i];
    int consumed = 0;
    if (std::strcmp(arg, name) == 0) {
      if (i + 1 >= *argc) return -1;  // trailing flag, no value
      *value = argv[i + 1];
      consumed = 2;
    } else if (std::strncmp(arg, name, name_len) == 0 && arg[name_len] == '=') {
      *value = arg + name_len + 1;
      consumed = 1;
    }
    if (consumed == 0) {
      ++i;
      continue;
    }
    for (int j = i; j + consumed < *argc; ++j) argv[j] = argv[j + consumed];
    *argc -= consumed;
    found = 1;  // keep scanning: strip every occurrence
  }
  return found;
}

/// Removes every occurrence of the valueless flag `name` from argv.
/// Returns true when it appeared at least once.
inline bool strip_bare_flag(int* argc, char** argv, const char* name) {
  bool found = false;
  for (int i = 1; i < *argc;) {
    if (std::strcmp(argv[i], name) != 0) {
      ++i;
      continue;
    }
    for (int j = i; j + 1 < *argc; ++j) argv[j] = argv[j + 1];
    --*argc;
    found = true;
  }
  return found;
}

/// Parses and strips --threads. Accepts "--threads N" and
/// "--threads=N"; a non-numeric or missing value is a hard error.
inline void parse_threads_flag(int* argc, char** argv) {
  std::string raw;
  const int found = strip_flag(argc, argv, "--threads", &raw);
  if (found == 0) return;
  char* end = nullptr;
  const unsigned long n = found < 0 ? 0 : std::strtoul(raw.c_str(), &end, 10);
  if (found < 0 || end == raw.c_str() || *end != '\0') {
    std::fprintf(stderr, "%s: --threads expects a non-negative integer, got '%s'\n",
                 argv[0], raw.c_str());
    std::exit(2);
  }
  threads() = static_cast<unsigned>(n);
}

struct ObsSession {
  std::string tool;
  std::string command;
  std::string metrics_out;
  std::string trace_out;
  std::string recorder_out;
  std::string fault_plan_path;
  std::string fault_plan_summary;
  std::string timeline_out;
  std::chrono::steady_clock::time_point start;
};

inline ObsSession& obs_session() {
  static ObsSession s;
  return s;
}

/// Captures the command line (before flags are stripped) and starts the
/// wall clock for the run manifest. Call first in main().
inline void obs_init(int argc, char** argv) {
  ObsSession& s = obs_session();
  // satlint:allow(nondet-source): run-manifest wall-clock; results never read it
  s.start = std::chrono::steady_clock::now();
  const char* slash = std::strrchr(argv[0], '/');
  s.tool = slash ? slash + 1 : argv[0];
  for (int i = 0; i < argc; ++i) {
    if (i > 0) s.command += ' ';
    s.command += argv[i];
  }
}

/// Strips --metrics-out / --trace-out; --trace-out enables the tracer.
inline void parse_obs_flags(int* argc, char** argv) {
  ObsSession& s = obs_session();
  if (strip_flag(argc, argv, "--metrics-out", &s.metrics_out) < 0 ||
      strip_flag(argc, argv, "--trace-out", &s.trace_out) < 0) {
    std::fprintf(stderr, "%s: --metrics-out/--trace-out expect a path ('-' = stdout)\n",
                 argv[0]);
    std::exit(2);
  }
  if (!s.trace_out.empty()) obs::Tracer::global().set_enabled(true);
}

/// Strips the flight-recorder and watchdog flags:
///   --recorder-out PATH   enable the recorder; drain events to PATH as
///                         JSONL at exit ("-" = stdout). Crash dumps go
///                         to PATH.postmortem.
///   --recorder-ring N     per-shard ring capacity (default 512)
///   --watchdog-ms N       pool watchdog poll interval (0 = off)
///   --watchdog-threshold-ms X  flag tasks running longer than X ms
inline void parse_recorder_flags(int* argc, char** argv) {
  ObsSession& s = obs_session();
  std::string ring, poll, threshold;
  if (strip_flag(argc, argv, "--recorder-out", &s.recorder_out) < 0 ||
      strip_flag(argc, argv, "--recorder-ring", &ring) < 0 ||
      strip_flag(argc, argv, "--watchdog-ms", &poll) < 0 ||
      strip_flag(argc, argv, "--watchdog-threshold-ms", &threshold) < 0) {
    std::fprintf(stderr,
                 "%s: --recorder-out/--recorder-ring/--watchdog-ms/"
                 "--watchdog-threshold-ms expect a value\n",
                 argv[0]);
    std::exit(2);
  }
  if (!s.recorder_out.empty()) {
    obs::FlightRecorder& rec = obs::FlightRecorder::global();
    rec.set_enabled(true);
    if (s.recorder_out != "-") {
      rec.set_postmortem_path(s.recorder_out + ".postmortem");
    }
  }
  if (!ring.empty()) {
    obs::FlightRecorder::global().set_ring_capacity(
        static_cast<std::size_t>(std::strtoul(ring.c_str(), nullptr, 10)));
  }
  if (!poll.empty() || !threshold.empty()) {
    runtime::set_pool_watchdog(
        poll.empty() ? 0u
                     : static_cast<unsigned>(
                           std::strtoul(poll.c_str(), nullptr, 10)),
        threshold.empty() ? 0.0 : std::strtod(threshold.c_str(), nullptr));
  }
}

/// Strips --fault-plan PATH and installs the plan for the whole run.
/// A malformed plan (or unreadable file) is a hard error.
inline void parse_fault_flag(int* argc, char** argv) {
  ObsSession& s = obs_session();
  const int found = strip_flag(argc, argv, "--fault-plan", &s.fault_plan_path);
  if (found == 0) return;
  if (found < 0) {
    std::fprintf(stderr, "%s: --fault-plan expects a path\n", argv[0]);
    std::exit(2);
  }
  try {
    fault::FaultPlan plan = fault::FaultPlan::load_file(s.fault_plan_path);
    s.fault_plan_summary = plan.summary();
    fault::Hook::install(std::move(plan));
    std::printf("fault plan %s: %s\n", s.fault_plan_path.c_str(),
                s.fault_plan_summary.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    std::exit(2);
  }
}

/// Strips the timeline flags shared with satnetctl: --no-timeline
/// ablates the epoch-timeline precompute (on-demand oracle path),
/// --timeline-in PATH warm-starts from a saved file (a rejected file
/// prints one diagnostic and the run builds in memory), and
/// --timeline-out PATH saves the built timeline at exit. Output is
/// byte-identical in every mode — the golden suite enforces it.
inline void parse_timeline_flags(int* argc, char** argv) {
  if (strip_bare_flag(argc, argv, "--no-timeline")) {
    orbit::set_timeline_enabled(false);
  }
  ObsSession& s = obs_session();
  std::string timeline_in;
  if (strip_flag(argc, argv, "--timeline-in", &timeline_in) < 0 ||
      strip_flag(argc, argv, "--timeline-out", &s.timeline_out) < 0) {
    std::fprintf(stderr, "%s: --timeline-in/--timeline-out expect a path\n", argv[0]);
    std::exit(2);
  }
  if (timeline_in.empty()) return;
  io::TimelineFileInfo info;
  const std::string err = io::load_timelines(timeline_in, &info);
  if (err.empty()) {
    std::printf("timeline %s: %zu networks, %zu bytes\n", timeline_in.c_str(),
                info.networks, info.bytes);
  } else {
    std::fprintf(stderr, "%s: %s\n", argv[0], err.c_str());
  }
}

/// Writes requested exports and prints the metrics summary. The
/// timeline save + roll-up line run regardless of obs flags.
inline void obs_finish() {
  const ObsSession& s = obs_session();
  if (!s.timeline_out.empty()) {
    const std::string err = io::save_timelines(s.timeline_out, s.command);
    if (!err.empty()) {
      std::fprintf(stderr, "%s: %s\n", s.tool.c_str(), err.c_str());
    } else {
      std::printf("saved timeline to %s\n", s.timeline_out.c_str());
    }
  }
  const std::string tl = orbit::timeline_summary_line();
  if (!tl.empty()) std::printf("%s\n", tl.c_str());
  if (s.metrics_out.empty() && s.trace_out.empty() && s.recorder_out.empty()) return;
  obs::RunManifest manifest;
  manifest.tool = s.tool;
  manifest.command = s.command;
  manifest.threads = runtime::resolve_threads(threads());
  if (!s.fault_plan_path.empty()) {
    manifest.notes.emplace_back("fault_plan", s.fault_plan_path);
    manifest.notes.emplace_back("fault_events", s.fault_plan_summary);
  }
  manifest.wall_ms = std::chrono::duration<double, std::milli>(
                         // satlint:allow(nondet-source): run-manifest wall-clock; results never read it
                         std::chrono::steady_clock::now() - s.start)
                         .count();
  const obs::Snapshot snap = obs::MetricsRegistry::global().scrape();
  if (!s.metrics_out.empty()) obs::write_metrics_file(s.metrics_out, snap, manifest);
  // Drain once: the event stream goes to --recorder-out when given and
  // also rides --trace-out so one file can hold the whole story.
  std::vector<obs::ResolvedEvent> events;
  if (obs::FlightRecorder::global().enabled()) {
    events = obs::FlightRecorder::global().drain();
  }
  if (!s.trace_out.empty()) {
    obs::write_trace_file(s.trace_out, snap, obs::Tracer::global().drain(),
                          events, manifest);
  }
  if (!s.recorder_out.empty()) {
    std::FILE* f = s.recorder_out == "-" ? stdout
                                         : std::fopen(s.recorder_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "%s: cannot open %s\n", s.tool.c_str(),
                   s.recorder_out.c_str());
    } else {
      std::fprintf(f, "%s\n", obs::manifest_json(manifest).c_str());
      std::fputs(obs::events_jsonl(events).c_str(), f);
      if (f != stdout) std::fclose(f);
    }
  }
  std::fputs(obs::summary_text(snap, manifest).c_str(), stdout);
}

/// The world every bench shares.
inline const synth::World& world() {
  static const synth::World w;
  return w;
}

/// M-Lab campaign at the benches' standard scale (0.2% of the paper's
/// 11.9M tests; the long tail keeps its absolute volumes).
inline const mlab::NdtDataset& mlab_dataset() {
  static const mlab::NdtDataset ds = [] {
    mlab::CampaignConfig cfg;
    cfg.volume_scale = 0.002;
    cfg.min_tests_per_sno = 30;
    cfg.threads = threads();
    cfg.retry = runtime::degrade_under_faults();
    return mlab::run_campaign(world(), cfg);
  }();
  return ds;
}

/// Pipeline result over the standard dataset.
inline const snoid::PipelineResult& pipeline() {
  static const snoid::PipelineResult r = [] {
    snoid::PipelineConfig cfg;
    cfg.threads = threads();
    cfg.retry = runtime::degrade_under_faults();
    return snoid::run_pipeline(mlab_dataset(), cfg);
  }();
  return r;
}

/// Full-year RIPE Atlas campaign (8-hour built-in cadence).
inline const ripe::AtlasDataset& atlas_dataset() {
  static const ripe::AtlasDataset ds = [] {
    ripe::AtlasConfig cfg;
    cfg.duration_days = 366.0;
    cfg.round_interval_hours = 8.0;
    cfg.threads = threads();
    cfg.retry = runtime::degrade_under_faults();
    return ripe::run_atlas_campaign(cfg);
  }();
  return ds;
}

inline void header(const char* figure, const char* caption) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", figure, caption);
  std::printf("================================================================\n");
}

inline void note(const char* text) { std::printf("  %s\n", text); }

}  // namespace satnet::bench

/// Prints the figure, then runs the registered benchmark kernels, then
/// emits observability exports when requested.
#define SATNET_BENCH_MAIN(print_fn)                      \
  int main(int argc, char** argv) {                      \
    ::satnet::bench::obs_init(argc, argv);               \
    ::satnet::bench::parse_threads_flag(&argc, argv);    \
    ::satnet::bench::parse_obs_flags(&argc, argv);       \
    ::satnet::bench::parse_recorder_flags(&argc, argv);  \
    ::satnet::bench::parse_fault_flag(&argc, argv);      \
    ::satnet::bench::parse_timeline_flags(&argc, argv);  \
    ::benchmark::Initialize(&argc, argv);                \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    print_fn();                                          \
    ::benchmark::RunSpecifiedBenchmarks();               \
    ::benchmark::Shutdown();                             \
    ::satnet::bench::obs_finish();                       \
    return 0;                                            \
  }
