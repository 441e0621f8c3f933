#include "io/run_options.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <utility>
#include <vector>

#include "fault/hook.hpp"
#include "io/timeline_io.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "orbit/timeline.hpp"
#include "runtime/thread_pool.hpp"

namespace satnet::io {

namespace {

/// One shared run flag: its spelling, usage placeholder ("" = valueless),
/// help line, and the typed ArgScanner read into RunOptions.
struct SharedFlag {
  const char* name;
  const char* value;
  const char* help;
  void (*read)(ArgScanner& args, const char* name, RunOptions& out);
};

using A = ArgScanner;
using O = RunOptions;

constexpr SharedFlag kSharedFlags[] = {
    {"--threads", "N", "workers; 0 = one per hardware thread",
     [](A& a, const char* f, O& o) { a.whole(f, &o.threads); }},
    {"--fault-plan", "PATH", "install a fault plan for the run",
     [](A& a, const char* f, O& o) { a.text(f, &o.fault_plan); }},
    {"--no-timeline", "", "exact access path (no timeline, no index)",
     [](A& a, const char* f, O& o) { o.no_timeline |= a.flag(f); }},
    {"--timeline-in", "PATH", "warm-start from a saved timeline",
     [](A& a, const char* f, O& o) { a.text(f, &o.timeline_in); }},
    {"--timeline-out", "PATH", "save the built timeline",
     [](A& a, const char* f, O& o) { a.text(f, &o.timeline_out); }},
    {"--metrics-out", "PATH", "Prometheus text export ('-' = stdout)",
     [](A& a, const char* f, O& o) { a.text(f, &o.metrics_out); }},
    {"--trace-out", "PATH", "JSONL manifest, metrics, spans, events (+ PATH.postmortem)",
     [](A& a, const char* f, O& o) { a.text(f, &o.trace_out); }},
    {"--recorder-ring", "N", "per-shard recorder ring (default 512)",
     [](A& a, const char* f, O& o) {
       std::size_t n = 0;
       if (a.whole(f, &n)) o.recorder_ring = n;
     }},
    {"--watchdog-ms", "N", "pool watchdog poll interval (0 = off)",
     [](A& a, const char* f, O& o) { a.whole(f, &o.watchdog_ms); }},
    {"--watchdog-threshold-ms", "X", "pool watchdog stall threshold",
     [](A& a, const char* f, O& o) { a.real(f, &o.watchdog_threshold_ms, true); }},
};

}  // namespace

// ------------------------------------------------------------ ArgScanner

std::optional<std::string> ArgScanner::take(std::string_view name) {
  std::optional<std::string> value;
  bool valueless = false;
  for (int i = 1; i < *argc_;) {
    const std::string_view arg = argv_[i];
    int consumed = 0;
    if (arg == name) {
      valueless = i + 1 >= *argc_;
      if (!valueless) value = argv_[i + 1];
      consumed = valueless ? 1 : 2;
    } else if (arg.size() > name.size() && arg.starts_with(name) &&
               arg[name.size()] == '=') {
      value = std::string(arg.substr(name.size() + 1));
      consumed = 1;
    }
    if (consumed == 0) {
      ++i;
    } else {
      drop(i, consumed);
    }
  }
  if (valueless || (value && value->empty())) {
    if (error_.empty()) error_ = std::string(name) + " expects a value";
    return std::nullopt;
  }
  return value;
}

bool ArgScanner::reject(std::string_view name, const std::string& raw,
                        const std::string& expected) {
  if (error_.empty()) {
    error_ = std::string(name) + " expects " + expected + ", got '" + raw + "'";
  }
  return false;
}

bool ArgScanner::flag(std::string_view name) {
  bool found = false;
  for (int i = 1; i < *argc_;) {
    if (argv_[i] != name) {
      ++i;
    } else {
      drop(i, 1);
      found = true;
    }
  }
  return found;
}

void ArgScanner::drop(int i, int n) {
  // Shift the tail down, argv[argc]'s terminating null included.
  std::copy(argv_ + i + n, argv_ + *argc_ + 1, argv_ + i);
  *argc_ -= n;
}

bool ArgScanner::text(std::string_view name, std::string* out) {
  auto value = take(name);
  if (!value) return false;
  *out = std::move(*value);
  return true;
}

bool ArgScanner::real(std::string_view name, double* out, bool non_negative) {
  const auto value = take(name);
  if (!value) return false;
  char* end = nullptr;
  const double v = std::strtod(value->c_str(), &end);
  if (end == value->c_str() || *end != '\0' || !std::isfinite(v) ||
      (non_negative && v < 0)) {
    return reject(name, *value,
                  non_negative ? "a non-negative number" : "a finite number");
  }
  *out = v;
  return true;
}

bool ArgScanner::whole(std::string_view name, unsigned long long* out,
                       unsigned long long min, unsigned long long max) {
  const auto value = take(name);
  if (!value) return false;
  const std::string expected =
      min == 0 ? "a non-negative integer" : "an integer >= " + std::to_string(min);
  const bool digits = std::all_of(value->begin(), value->end(),
                                  [](char c) { return c >= '0' && c <= '9'; });
  errno = 0;
  const unsigned long long v = digits ? std::strtoull(value->c_str(), nullptr, 10) : 0;
  if (!digits || errno == ERANGE || v < min || v > max) {
    return reject(name, *value, expected);
  }
  *out = v;
  return true;
}

// ------------------------------------------------------------ RunOptions

std::string parse_run_options(int* argc, char** argv, RunOptions* out) {
  ArgScanner args(argc, argv);
  for (const SharedFlag& f : kSharedFlags) f.read(args, f.name, *out);
  return args.error();
}

std::string run_options_help() {
  std::string out;
  for (const SharedFlag& f : kSharedFlags) {
    std::string usage = std::string("  ") + f.name + (*f.value ? " " : "") + f.value;
    usage.resize(std::max<std::size_t>(usage.size() + 1, 30), ' ');
    out += usage + f.help + "\n";
  }
  return out;
}

// ------------------------------------------------------------ RunSession

std::string RunSession::parse(int* argc, char** argv) {
  stamp_ = program_;
  for (int i = 0; i < *argc; ++i) {
    if (i > 0) {
      command_ += ' ';
      stamp_ += ' ';
      stamp_ += argv[i];
    }
    command_ += argv[i];
  }
  return parse_run_options(argc, argv, &options_);
}

std::string RunSession::begin(std::string tool) {
  tool_ = tool.empty() ? program_ : std::move(tool);
  obs::FlightRecorder& rec = obs::FlightRecorder::global();
  start_us_ = rec.wall_now_us();
  const RunOptions& o = options_;
  if (!o.fault_plan.empty()) {
    try {
      fault::FaultPlan plan = fault::FaultPlan::load_file(o.fault_plan);
      fault_summary_ = plan.summary();
      fault::Hook::install(std::move(plan));
    } catch (const std::exception& e) {
      return std::string("--fault-plan: ") + e.what();
    }
    std::printf("fault plan %s: %s\n", o.fault_plan.c_str(), fault_summary_.c_str());
  }
  if (o.no_timeline) orbit::set_timeline_enabled(false);
  if (!o.timeline_in.empty()) {
    TimelineFileInfo info;
    const std::string err = load_timelines(o.timeline_in, &info);
    if (err.empty()) {
      std::printf("timeline %s: %zu networks, %zu bytes\n", o.timeline_in.c_str(),
                  info.networks, info.bytes);
    } else {
      // Deliberately not fatal: the run builds in memory and produces
      // the same bytes — the warm start is an optimisation only.
      reject(err);
    }
  }
  if (!o.trace_out.empty()) {
    rec.set_enabled(true);
    if (o.trace_out != "-") rec.set_postmortem_path(o.trace_out + ".postmortem");
  }
  if (o.recorder_ring) rec.set_ring_capacity(*o.recorder_ring);
  if (o.watchdog_ms > 0 || o.watchdog_threshold_ms > 0) {
    runtime::set_pool_watchdog(o.watchdog_ms, o.watchdog_threshold_ms);
  }
  return "";
}

int RunSession::finish() {
  const RunOptions& o = options_;
  int rc = 0;
  if (!o.timeline_out.empty()) {
    const std::string err = save_timelines(o.timeline_out, stamp_);
    if (err.empty()) {
      std::printf("saved timeline to %s\n", o.timeline_out.c_str());
    } else {
      rc = reject("--timeline-out: " + err);
    }
  }
  const std::string tl = orbit::timeline_summary_line();
  if (!tl.empty()) std::printf("%s\n", tl.c_str());
  if (o.metrics_out.empty() && o.trace_out.empty()) return rc;

  obs::RunManifest manifest;
  manifest.tool = tool_;
  manifest.command = command_;
  manifest.threads = runtime::resolve_threads(o.threads);
  if (!o.fault_plan.empty()) {
    manifest.notes.emplace_back("fault_plan", o.fault_plan);
    manifest.notes.emplace_back("fault_events", fault_summary_);
  }
  obs::FlightRecorder& rec = obs::FlightRecorder::global();
  manifest.wall_ms = static_cast<double>(rec.wall_now_us() - start_us_) / 1000.0;
  const obs::Snapshot snap = obs::MetricsRegistry::global().scrape();
  if (!o.metrics_out.empty() && !obs::write_metrics_file(o.metrics_out, snap, manifest)) {
    rc = reject("--metrics-out: cannot write " + o.metrics_out);
  }
  if (!o.trace_out.empty() &&
      !obs::write_trace_file(o.trace_out, snap, rec.drain(), manifest)) {
    rc = reject("--trace-out: cannot write " + o.trace_out);
  }
  std::fputs(obs::summary_text(snap, manifest).c_str(), stdout);
  return rc;
}

int RunSession::reject(const std::string& diagnostic) const {
  std::fprintf(stderr, "%s: %s\n", program_.c_str(), diagnostic.c_str());
  return 2;
}

}  // namespace satnet::io
