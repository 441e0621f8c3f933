// studybench meter: one measured operation set per process, driven
// through the library's public entry points only.
//
//   studybench_meter study --seed S --threads N [--trace] [--run-id R]
//                     [--timeline-in PATH] [--timeline-out PATH]
//                     [--report-out PATH]
//       One full study, exactly what `satnetctl report` does (M-Lab
//       campaign at --scale 0.0005, identification pipeline, 366-day
//       RIPE Atlas campaign, markdown report). With --timeline-in the
//       measured interval starts with io::load_timelines (warm start).
//   studybench_meter sweep --seed S --threads N [--trace]
//       500 seeded worlds from synth::generate_scenario (consecutive
//       seeds, filling fixed quotas per orbit model and load band), each
//       checked with matrix::check_spec at thread counts {1, 2, N}.
//
// Prints one JSON object on stdout: set-up and measured host times, CPU
// seconds, peak RSS, counter deltas over the measured interval, and (with
// --trace) one span per public call with its own counter deltas. Spans
// stay in memory until the process exits. Aggregation, output checks and
// percentiles live in run.py; this program only measures.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "io/report.hpp"
#include "io/timeline_io.hpp"
#include "matrix/invariants.hpp"
#include "mlab/campaign.hpp"
#include "obs/metrics.hpp"
#include "orbit/propagator.hpp"
#include "orbit/timeline.hpp"
#include "ripe/atlas.hpp"
#include "snoid/pipeline.hpp"
#include "synth/world.hpp"
#include "synth/worldgen.hpp"

namespace {

using namespace satnet;

// Benchmark seed 0 keeps the library defaults, which is what
// `satnetctl report` runs; any other seed moves every stream far away.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t bench_seed) {
  return base + bench_seed * 0x9E3779B97F4A7C15ull;
}
constexpr std::uint64_t kMatrixBase = 1;
// The sweep's strata: bands of served load (see served_load) and how many
// worlds of each orbit model each band takes, in the proportions
// consecutive seeds produce them. An SGP4 world costs ~7x a Walker one,
// and a world's cost follows its served load (correlation 0.78 Walker,
// 0.95 SGP4), so fixed quotas give every benchmark seed a sweep of the
// same size and shape: 500 worlds, 140 (28%) on SGP4.
constexpr std::size_t kBands = 5;
constexpr double kLoadEdges[kBands] = {0, 13500, 24000, 41000, 70000};
constexpr std::size_t kWalkerQuota[kBands] = {90, 97, 93, 55, 25};
constexpr std::size_t kSgp4Quota[kBands] = {32, 35, 34, 25, 14};
constexpr std::uint64_t kMaxScan = 100000;
// Set-up repeats inside one sweep process so its time has a median.
constexpr int kSetupReps = 3;

double now_s() {
  // satlint:allow(nondet-source): host-time measurement; results never read it
  const auto t = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec * 1e-6; };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

using Counters = std::vector<std::pair<std::string, double>>;

Counters scrape_counters() {
  Counters out;
  for (const auto& m : obs::MetricsRegistry::global().scrape().metrics) {
    if (m.kind == obs::MetricKind::counter) out.emplace_back(m.name, m.value);
  }
  return out;
}

// Nonzero differences; both scrapes are sorted by name and counters only
// ever get registered, so `before` is a subsequence of `after`.
Counters counter_delta(const Counters& before, const Counters& after) {
  Counters out;
  std::size_t i = 0;
  for (const auto& [name, value] : after) {
    double base = 0;
    if (i < before.size() && before[i].first == name) base = before[i++].second;
    if (value != base) out.emplace_back(name, value - base);
  }
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_counters(const Counters& counters) {
  std::string out = "{";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (i > 0) out += ',';
    out += '"' + json_escape(counters[i].first) + "\":" + json_number(counters[i].second);
  }
  return out + '}';
}

struct Span {
  std::string name;
  int parent = -1;
  double start = 0, end = 0, cpu = 0;
  Counters counters;
};

// In-memory span recorder. `always` spans are kept with tracing off too
// (the measured root, set-up, and the timeline save); the per-call spans
// inside a root only exist in a traced run.
class Spans {
 public:
  explicit Spans(bool traced) : traced_(traced) {}

  template <class F>
  void run(const char* name, F&& f, bool always = false) {
    if (!traced_ && !always) {
      f();
      return;
    }
    const Counters before = scrape_counters();
    const int idx = static_cast<int>(spans_.size());
    spans_.push_back(Span{name, stack_.empty() ? -1 : stack_.back(), 0, 0, 0, {}});
    stack_.push_back(idx);
    const double cpu0 = cpu_s();
    const double t0 = now_s();
    try {
      f();
    } catch (...) {
      finish(idx, t0, cpu0, before);
      throw;
    }
    finish(idx, t0, cpu0, before);
  }

  const Span* find(const char* name) const {
    for (const auto& s : spans_) {
      if (s.name == name) return &s;
    }
    return nullptr;
  }

  std::string json(double epoch) const {
    std::string out = "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (i > 0) out += ',';
      out += "{\"name\":\"" + s.name + "\",\"parent\":" + std::to_string(s.parent) +
             ",\"start\":" + json_number(s.start - epoch) +
             ",\"end\":" + json_number(s.end - epoch) + ",\"cpu\":" + json_number(s.cpu) +
             ",\"counters\":" + json_counters(s.counters) + '}';
    }
    return out + ']';
  }

 private:
  void finish(int idx, double t0, double cpu0, const Counters& before) {
    const double t1 = now_s();
    const double cpu1 = cpu_s();
    Span& s = spans_[static_cast<std::size_t>(idx)];
    s.start = t0;
    s.end = t1;
    s.cpu = cpu1 - cpu0;
    s.counters = counter_delta(before, scrape_counters());
    stack_.pop_back();
  }

  bool traced_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

struct Args {
  std::string mode;
  std::uint64_t seed = 0;
  unsigned threads = 1;
  bool trace = false;
  int run_id = 0;
  std::string timeline_in, timeline_out, report_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "studybench_meter: %s\n", why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* raw, const char* flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(raw, &end, 10);
  if (end == raw || *end != '\0' || raw[0] == '-') {
    usage((std::string(flag) + " expects a non-negative integer").c_str());
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  if (argc < 2) usage("usage: studybench_meter study|sweep --seed S --threads N ...");
  Args a;
  a.mode = argv[1];
  if (a.mode != "study" && a.mode != "sweep") usage("mode must be study or sweep");
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--trace") {
      a.trace = true;
      continue;
    }
    if (i + 1 >= argc) usage((flag + " needs a value").c_str());
    const char* v = argv[++i];
    if (flag == "--seed") {
      a.seed = parse_u64(v, "--seed");
    } else if (flag == "--threads") {
      a.threads = static_cast<unsigned>(parse_u64(v, "--threads"));

    } else if (flag == "--run-id") {
      a.run_id = static_cast<int>(parse_u64(v, "--run-id"));
    } else if (flag == "--timeline-in") {
      a.timeline_in = v;
    } else if (flag == "--timeline-out") {
      a.timeline_out = v;
    } else if (flag == "--report-out") {
      a.report_out = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.threads == 0) usage("--threads must be at least 1");
  return a;
}

struct Result {
  bool ok = true;
  std::string error;
  std::string fields;  // extra JSON members, each with a leading comma
};

void run_study(const Args& a, Spans& spans, Result& r) {
  synth::WorldConfig wc;
  wc.seed = derive_seed(wc.seed, a.seed);
  mlab::CampaignConfig mc;
  mc.volume_scale = 0.0005;  // satnetctl report's default --scale
  mc.seed = derive_seed(mc.seed, a.seed);
  mc.threads = a.threads;
  snoid::PipelineConfig pc;
  pc.threads = a.threads;
  ripe::AtlasConfig ac;
  ac.duration_days = 366.0;
  ac.round_interval_hours = 24.0;
  ac.seed = derive_seed(ac.seed, a.seed);
  ac.threads = a.threads;
  r.fields += ",\"seeds\":{\"world\":" + std::to_string(wc.seed) +
              ",\"campaign\":" + std::to_string(mc.seed) +
              ",\"atlas\":" + std::to_string(ac.seed) + '}';

  std::unique_ptr<synth::World> world;
  spans.run("synth.world", [&] { world = std::make_unique<synth::World>(wc); }, true);

  std::string report;
  spans.run("study", [&] {
    if (!a.timeline_in.empty()) {
      spans.run("io.timeline_load", [&] {
        io::TimelineFileInfo info;
        const std::string err = io::load_timelines(a.timeline_in, &info);
        if (!err.empty()) throw std::runtime_error("timeline load: " + err);
        r.fields += ",\"timeline_bytes\":" + std::to_string(info.bytes);
      });
    }
    // Traced runs split the campaign into plan, build and replay; the
    // campaign then plans once more internally and finds every key built.
    if (a.trace) {
      std::vector<std::pair<const orbit::AccessNetwork*, std::vector<orbit::TimelineQuery>>>
          plan;
      spans.run("mlab.plan", [&] { plan = mlab::planned_access_queries(*world, mc); });
      spans.run("orbit.timeline_build", [&] {
        for (auto& [net, queries] : plan) {
          orbit::EpochTimeline::ensure(*net, std::move(queries), mc.threads);
        }
      });
    }
    mlab::NdtDataset dataset;
    runtime::CampaignReport creport;
    spans.run("mlab.campaign", [&] { dataset = mlab::run_campaign(*world, mc, &creport); });
    if (!creport.clean()) throw std::runtime_error("campaign retried or degraded shards");
    snoid::PipelineResult result;
    spans.run("snoid.pipeline", [&] { result = snoid::run_pipeline(dataset, pc); });
    ripe::AtlasDataset atlas;
    spans.run("ripe.atlas", [&] { atlas = ripe::run_atlas_campaign(ac); });
    spans.run("io.report", [&] { report = io::study_report(dataset, result, atlas); });
  }, true);

  if (!a.timeline_out.empty()) {
    spans.run("io.timeline_save", [&] {
      const std::string err = io::save_timelines(a.timeline_out, "studybench");
      if (!err.empty()) throw std::runtime_error("timeline save: " + err);
    }, true);
    r.fields += ",\"timeline_bytes\":" +
                std::to_string(std::filesystem::file_size(a.timeline_out));
  }
  if (!a.report_out.empty()) {
    std::ofstream out(a.report_out, std::ios::binary);
    out << report;
    if (!out) throw std::runtime_error("cannot write " + a.report_out);
  }
}

// Satellites each terminal's network flies, summed over terminals, times
// evaluation steps: what check_spec's cost follows.
double served_load(const synth::ScenarioSpec& spec) {
  double load = 0;
  for (const auto& t : spec.terminals) {
    const auto& net = spec.networks[t.network];
    std::size_t sats = net.shells.empty() ? 1 : 0;  // a GEO slot is one satellite
    for (const auto& sh : net.shells) sats += sh.total_sats();
    load += static_cast<double>(sats) * spec.horizon_sec / spec.step_sec;
  }
  return load;
}

bool uses_sgp4(const synth::ScenarioSpec& spec) {
  for (const auto& net : spec.networks) {
    if (net.model == orbit::OrbitModel::sgp4) return true;
  }
  return false;
}

void run_sweep(const Args& a, Spans& spans, Result& r) {
  const std::uint64_t base = derive_seed(kMatrixBase, a.seed);
  std::vector<synth::ScenarioSpec> specs;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    spans.run("synth.generate", [&] {
      specs.clear();
      std::size_t taken[2][kBands] = {};
      std::size_t missing = 0;
      for (std::size_t b = 0; b < kBands; ++b) missing += kWalkerQuota[b] + kSgp4Quota[b];
      for (std::uint64_t seed = base; missing > 0; ++seed) {
        if (seed - base > kMaxScan) throw std::runtime_error("sweep quotas never filled");
        synth::ScenarioSpec spec = synth::generate_scenario(seed);
        const double load = served_load(spec);
        std::size_t band = kBands - 1;
        while (load < kLoadEdges[band]) --band;
        const bool sgp4 = uses_sgp4(spec);
        const std::size_t quota = sgp4 ? kSgp4Quota[band] : kWalkerQuota[band];
        if (taken[sgp4][band] == quota) continue;
        ++taken[sgp4][band];
        --missing;
        specs.push_back(std::move(spec));
      }
    }, true);
  }

  // verify.sh's {1, 2, 8}, capped at the worker budget.
  std::set<unsigned> counts;
  for (const unsigned t : {1u, 2u, 8u}) counts.insert(std::min(t, a.threads));
  matrix::CheckOptions opts;
  opts.thread_counts.assign(counts.begin(), counts.end());

  std::string worlds = ",\"worlds\":[";
  spans.run("sweep", [&] {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const auto& spec = specs[i];
      const bool sgp4 = uses_sgp4(spec);
      std::string error;
      const double t0 = now_s();
      spans.run(sgp4 ? "matrix.check_sgp4" : "matrix.check_walker", [&] {
        try {
          const auto v = matrix::check_spec(spec, opts);
          if (v.has_value()) error = v->invariant + ": " + v->detail;
        } catch (const std::exception& e) {
          error = std::string("threw: ") + e.what();
        }
      });
      const double ms = (now_s() - t0) * 1e3;
      // Keep the footprint at one world, as the matrix harness does.
      orbit::EpochTimeline::clear_installed();
      if (i > 0) worlds += ',';
      worlds += "{\"seed\":" + std::to_string(spec.seed) +
                ",\"sgp4\":" + (sgp4 ? "true" : "false") + ",\"ms\":" + json_number(ms) +
                ",\"load\":" + json_number(served_load(spec)) +
                ",\"error\":\"" + json_escape(error) + "\"}";
    }
  }, true);
  r.fields += worlds + ']';
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  const double epoch = now_s();
  Spans spans(a.trace);
  Result r;
  try {
    if (a.mode == "study") {
      run_study(a, spans, r);
    } else {
      run_sweep(a, spans, r);
    }
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = e.what();
  }
  const Span* m = spans.find(a.mode == "study" ? "study" : "sweep");
  if (m == nullptr && r.ok) {
    r.ok = false;
    r.error = "no measured interval";
  }
  std::printf("{\"mode\":\"%s\",\"ok\":%s,\"error\":\"%s\",\"run_id\":%d,\"threads\":%u"
              ",\"peak_rss_mb\":%s",
              a.mode.c_str(), r.ok ? "true" : "false", json_escape(r.error).c_str(),
              a.run_id, a.threads, json_number(peak_rss_mb()).c_str());
  std::printf(",\"counters\":%s%s,\"spans\":%s}\n",
              json_counters(m ? m->counters : Counters{}).c_str(), r.fields.c_str(),
              spans.json(epoch).c_str());
  return r.ok ? 0 : 1;
}
