// satnetctl: command-line driver for the library — run campaigns, the
// identification pipeline, the RIPE campaign, or the census, and export
// datasets as CSV for external plotting.
//
// Usage:
//   satnetctl campaign [--scale S] [--out FILE]   M-Lab NDT campaign -> CSV
//   satnetctl pipeline [--scale S] [--out FILE]   identification summary
//   satnetctl atlas [--days D] [--out FILE]       RIPE campaign -> CSV
//   satnetctl census                              Prolific census funnel
//   satnetctl report [--scale S] [--out FILE]     full study report (markdown)
//   satnetctl world --seed N [--check]            print a generated scenario
//                                                 spec; --check runs the
//                                                 invariant catalog on it
//   satnetctl tle FILE [--t SEC]                  load a TLE catalog and print
//                                                 SGP4 positions at sim time t
//
// `world` accepts --orbit-model walker|sgp4 to force the LEO network's
// ephemeris backend instead of the seeded draw. Campaign-running
// commands accept --retries N (attempts per shard before quarantine,
// default 1) and --degrade (complete the campaign with degraded
// accounting instead of aborting on shard failure).
//
// Every command also takes the shared run flags (threads, fault plan,
// timeline mode, exports, recorder, watchdog) that io/run_options.hpp
// parses for every entry point; `satnetctl` with no arguments lists
// them, and README.md's run-flag table documents them. Output is
// byte-identical for every thread count and timeline mode.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "io/csv.hpp"
#include "io/report.hpp"
#include "io/run_options.hpp"
#include "matrix/invariants.hpp"
#include "mlab/campaign.hpp"
#include "orbit/constellation.hpp"
#include "orbit/propagator.hpp"
#include "orbit/sgp4.hpp"
#include "prolific/census.hpp"
#include "ripe/atlas.hpp"
#include "runtime/sharded.hpp"
#include "snoid/pipeline.hpp"
#include "synth/world.hpp"
#include "synth/worldgen.hpp"

namespace {

using namespace satnet;

/// satnetctl's own flags. Each command reads the ones command_flags
/// lists for it; every value is checked up front, before the run starts.
struct CtlFlags {
  unsigned threads = 0;
  double scale = 0.0005;
  double days = 90.0;
  double t = 0.0;
  std::optional<std::string> out;
  std::optional<std::uint64_t> seed;
  std::string orbit_model;
  bool check = false;
  runtime::RetryPolicy retry;
};

/// The flags each command reads (beyond the shared run flags). Any other
/// flag on its command line is rejected rather than silently ignored.
const std::vector<std::string_view>* command_flags(const std::string& cmd) {
  static const std::map<std::string, std::vector<std::string_view>, std::less<>> table = {
      {"campaign", {"--scale", "--out", "--retries", "--degrade"}},
      {"pipeline", {"--scale", "--out", "--retries", "--degrade"}},
      {"atlas", {"--days", "--out", "--retries", "--degrade"}},
      {"census", {}},
      {"report", {"--scale", "--out", "--retries", "--degrade"}},
      {"world", {"--seed", "--check", "--orbit-model"}},
      {"tle", {"--t"}},
  };
  const auto it = table.find(cmd);
  return it == table.end() ? nullptr : &it->second;
}

/// Strips the flags `reads` lists from argv into *f.
std::string parse_ctl_flags(int* argc, char** argv,
                            const std::vector<std::string_view>& reads, CtlFlags* f) {
  const auto read = [&](std::string_view name) {
    return std::find(reads.begin(), reads.end(), name) != reads.end();
  };
  io::ArgScanner args(argc, argv);
  if (read("--scale")) args.real("--scale", &f->scale);
  if (read("--days")) args.real("--days", &f->days);
  if (read("--t")) args.real("--t", &f->t);
  std::string out;
  if (read("--out") && args.text("--out", &out)) f->out = out;
  std::uint64_t seed = 0;
  if (read("--seed") && args.whole("--seed", &seed)) f->seed = seed;
  if (read("--orbit-model")) args.text("--orbit-model", &f->orbit_model);
  if (read("--check")) f->check = args.flag("--check");
  if (read("--retries")) args.whole("--retries", &f->retry.max_attempts, std::size_t{1});
  if (read("--degrade")) f->retry.degrade = args.flag("--degrade");
  return args.error();
}

/// The M-Lab campaign the campaign/pipeline/report commands start with;
/// prints the shard accounting when a fault plan degraded anything.
mlab::NdtDataset run_mlab(const CtlFlags& f) {
  const synth::World world;
  mlab::CampaignConfig cfg;
  cfg.volume_scale = f.scale;
  cfg.threads = f.threads;
  cfg.retry = f.retry;
  runtime::CampaignReport report;
  mlab::NdtDataset dataset = mlab::run_campaign(world, cfg, &report);
  if (!report.clean()) {
    std::printf("campaign '%s': %zu shards, %zu retries, %zu degraded\n",
                report.phase.c_str(), report.shards, report.retries, report.degraded);
  }
  for (std::size_t i = 0; i < report.degraded_shards.size(); ++i) {
    std::printf("  degraded shard %zu: %s\n", report.degraded_shards[i],
                report.degraded_errors[i].c_str());
  }
  return dataset;
}

snoid::PipelineResult run_snoid(const CtlFlags& f, const mlab::NdtDataset& dataset) {
  snoid::PipelineConfig cfg;
  cfg.threads = f.threads;
  cfg.retry = f.retry;
  return snoid::run_pipeline(dataset, cfg);
}

ripe::AtlasDataset run_ripe(const CtlFlags& f, double days) {
  ripe::AtlasConfig cfg;
  cfg.duration_days = days;
  cfg.round_interval_hours = 24.0;
  cfg.threads = f.threads;
  cfg.retry = f.retry;
  return ripe::run_atlas_campaign(cfg);
}

/// Writes `write(out)` to `path`; exit status 1 when it cannot be opened.
template <class Write>
int write_out(const std::string& path, Write write) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  write(out);
  return 0;
}

int cmd_campaign(const CtlFlags& f) {
  const std::string path = f.out.value_or("ndt.csv");
  const auto dataset = run_mlab(f);
  return write_out(path, [&](std::ofstream& out) {
    const std::size_t rows = io::export_ndt(dataset, out);
    std::printf("wrote %zu NDT records to %s\n", rows, path.c_str());
  });
}

int cmd_pipeline(const CtlFlags& f) {
  const auto result = run_snoid(f, run_mlab(f));
  std::printf("%s", snoid::describe(result).c_str());
  if (!f.out) return 0;
  return write_out(*f.out, [&](std::ofstream& out) {
    io::export_pipeline(result, out);
    std::printf("wrote per-operator results to %s\n", f.out->c_str());
  });
}

int cmd_atlas(const CtlFlags& f) {
  const std::string path = f.out.value_or("traceroutes.csv");
  const auto dataset = run_ripe(f, f.days);
  return write_out(path, [&](std::ofstream& out) {
    const std::size_t rows = io::export_traceroutes(dataset, out);
    std::printf("validated probes: %zu; wrote %zu traceroutes to %s\n",
                ripe::validated_probe_ids(dataset).size(), rows, path.c_str());
  });
}

int cmd_report(const CtlFlags& f) {
  const std::string path = f.out.value_or("report.md");
  const auto dataset = run_mlab(f);
  const auto result = run_snoid(f, dataset);
  const auto atlas = run_ripe(f, 366.0);
  return write_out(path, [&](std::ofstream& out) {
    out << io::study_report(dataset, result, atlas);
    std::printf("wrote study report to %s\n", path.c_str());
  });
}

int cmd_world(const CtlFlags& f) {
  if (!f.seed) {
    std::fprintf(stderr, "satnetctl world: --seed N is required\n");
    return 2;
  }
  synth::ScenarioSpec spec = synth::generate_scenario(*f.seed);
  if (!f.orbit_model.empty()) {
    const auto model = orbit::parse_orbit_model(f.orbit_model);
    if (!model) {
      std::fprintf(stderr, "satnetctl world: --orbit-model expects walker|sgp4, got '%s'\n",
                   f.orbit_model.c_str());
      return 2;
    }
    for (auto& net : spec.networks) {
      if (net.orbit != orbit::OrbitClass::geo) net.model = *model;
    }
  }
  std::printf("%s", spec.to_text().c_str());
  std::printf("# %s\n", spec.summary().c_str());
  if (f.check) {
    const auto violation = matrix::check_spec(spec);
    if (violation.has_value()) {
      std::fprintf(stderr, "invariant violation: %s: %s\n",
                   violation->invariant.c_str(), violation->detail.c_str());
      return 1;
    }
    std::printf("# invariants: thread-identity ablation-identity flow-conservation "
                "monotone-degradation finite-metrics all ok\n");
  }
  return 0;
}

int cmd_tle(const CtlFlags& f, int argc, char** argv) {
  if (argc < 3 || argv[2][0] == '-') {
    std::fprintf(stderr, "satnetctl tle: usage: satnetctl tle FILE [--t SEC]\n");
    return 2;
  }
  std::ifstream in(argv[2]);
  if (!in) {
    std::fprintf(stderr, "satnetctl tle: cannot open %s\n", argv[2]);
    return 2;
  }
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  std::string err;
  auto catalog = orbit::parse_tle_catalog(text, &err);
  if (!catalog) {
    std::fprintf(stderr, "satnetctl tle: %s: %s\n", argv[2], err.c_str());
    return 2;
  }
  const orbit::Constellation c = orbit::Constellation::from_tles(std::move(*catalog));
  const auto& prop = static_cast<const orbit::Sgp4Propagator&>(c.propagator());
  std::printf("catalog %s: %zu satellites, epoch jd %.8f, t=%gs\n", argv[2],
              c.total_sats(), prop.epoch_jd(), f.t);
  for (std::size_t i = 0; i < c.total_sats(); ++i) {
    const orbit::Tle& tle = prop.tles()[i];
    const geo::GeoPoint pos = c.position(orbit::SatId{0, 0, i}, f.t);
    if (pos.alt_km < 0.0) {
      std::printf("%5u %-14s decayed\n", tle.satnum,
                  tle.name.empty() ? "-" : tle.name.c_str());
    } else {
      std::printf("%5u %-14s lat=%9.4f lon=%9.4f alt=%9.2f km\n", tle.satnum,
                  tle.name.empty() ? "-" : tle.name.c_str(), pos.lat_deg, pos.lon_deg,
                  pos.alt_km);
    }
  }
  return 0;
}

int cmd_census() {
  prolific::TesterPool pool;
  stats::Rng rng(1);
  const auto out = pool.run_census(rng);
  std::printf("prescreened %zu -> responded %zu -> verified %zu\n",
              out.prescreen_claimed, out.prescreen_responded, out.prescreen_verified);
  std::printf("open census %zu participants -> %zu on SNOs\n", out.open_participants,
              out.open_verified);
  for (const auto& [sno, n] : out.verified_by_sno) {
    std::printf("  %-10s %zu\n", sno.c_str(), n);
  }
  return 0;
}

int run_command(const std::string& cmd, const CtlFlags& f, int argc, char** argv) {
  if (cmd == "campaign") return cmd_campaign(f);
  if (cmd == "pipeline") return cmd_pipeline(f);
  if (cmd == "atlas") return cmd_atlas(f);
  if (cmd == "census") return cmd_census();
  if (cmd == "report") return cmd_report(f);
  if (cmd == "world") return cmd_world(f);
  return cmd_tle(f, argc, argv);  // command_flags admits no other command
}

}  // namespace

int main(int argc, char** argv) {
  io::RunSession session("satnetctl");
  std::string err = session.parse(&argc, argv);
  if (!err.empty()) return session.reject(err);
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: satnetctl <campaign|pipeline|atlas|census|report|world|tle> [flags]\n"
                 "  campaign [--scale S] [--out FILE]\n"
                 "  pipeline [--scale S] [--out FILE]\n"
                 "  atlas    [--days D]  [--out FILE]\n"
                 "  census\n"
                 "  report   [--scale S] [--out FILE]\n"
                 "  world    --seed N [--check] [--orbit-model walker|sgp4]\n"
                 "           print the generated scenario spec for a matrix\n"
                 "           seed; --check runs the full invariant catalog on\n"
                 "           it (exit 1 on violation); --orbit-model forces\n"
                 "           the ephemeris backend instead of the seeded draw\n"
                 "  tle      FILE [--t SEC]       load a TLE catalog fleet and\n"
                 "           print SGP4-propagated positions at sim time t\n"
                 "campaign/pipeline/atlas/report also accept --retries N and\n"
                 "--degrade (shard failure handling under a fault plan).\n"
                 "every command accepts the shared run flags; output is\n"
                 "byte-identical for every thread count and timeline mode:\n%s",
                 io::run_options_help().c_str());
    return 2;
  }
  const std::string cmd = argv[1];
  const std::vector<std::string_view>* reads = command_flags(cmd);
  if (reads == nullptr) {
    std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
    return 2;
  }
  CtlFlags flags;
  flags.threads = session.options().threads;
  err = parse_ctl_flags(&argc, argv, *reads, &flags);
  // Whatever no parser stripped, the command does not read; tle keeps
  // its one FILE.
  const int known = cmd == "tle" && argc > 2 && argv[2][0] != '-' ? 3 : 2;
  if (err.empty() && argc > known) {
    err = cmd + " does not accept '" + argv[known] + "'";
  }
  if (err.empty()) err = session.begin("satnetctl " + cmd);
  if (!err.empty()) return session.reject(err);
  const int rc = run_command(cmd, flags, argc, argv);
  return rc == 0 ? session.finish() : rc;
}
