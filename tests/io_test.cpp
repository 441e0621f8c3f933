#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "io/csv.hpp"
#include "io/report.hpp"
#include "io/run_options.hpp"
#include "io/timeline_io.hpp"
#include "mlab/campaign.hpp"
#include "orbit/access.hpp"
#include "orbit/shell.hpp"
#include "orbit/timeline.hpp"
#include "snoid/pipeline.hpp"
#include "synth/world.hpp"

namespace satnet::io {
namespace {

// ------------------------------------------------------------- CsvWriter

TEST(CsvWriterTest, PlainFieldsUnquoted) {
  EXPECT_EQ(CsvWriter::escape("hello"), "hello");
  EXPECT_EQ(CsvWriter::escape("12.5"), "12.5");
}

TEST(CsvWriterTest, CommaTriggersQuoting) {
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
}

TEST(CsvWriterTest, QuotesDoubled) {
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvWriterTest, NewlineQuoted) {
  EXPECT_EQ(CsvWriter::escape("a\nb"), "\"a\nb\"");
}

TEST(CsvWriterTest, HeaderThenRows) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.header({"a", "b"});
  csv.row({"1", "2"});
  csv.row({"3", "x,y"});
  EXPECT_EQ(out.str(), "a,b\n1,2\n3,\"x,y\"\n");
  EXPECT_EQ(csv.rows_written(), 2u);
}

TEST(CsvWriterTest, RowWidthEnforced) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.header({"a", "b"});
  EXPECT_THROW(csv.row({"only one"}), std::invalid_argument);
}

TEST(CsvWriterTest, RowBeforeHeaderThrows) {
  std::ostringstream out;
  CsvWriter csv(out);
  EXPECT_THROW(csv.row({"x"}), std::logic_error);
}

TEST(CsvWriterTest, DoubleHeaderThrows) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.header({"a"});
  EXPECT_THROW(csv.header({"a"}), std::logic_error);
}

// --------------------------------------------------------------- exports

class ExportTest : public ::testing::Test {
 protected:
  static const mlab::NdtDataset& dataset() {
    static const mlab::NdtDataset ds = [] {
      static const synth::World world;
      mlab::CampaignConfig cfg;
      cfg.volume_scale = 0.00005;
      cfg.min_tests_per_sno = 5;
      return mlab::run_campaign(world, cfg);
    }();
    return ds;
  }
};

TEST_F(ExportTest, NdtRowCountMatchesDataset) {
  std::ostringstream out;
  EXPECT_EQ(export_ndt(dataset(), out), dataset().size());
  // header + one line per record
  std::size_t lines = 0;
  for (const char c : out.str()) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, dataset().size() + 1);
}

TEST_F(ExportTest, NdtHeaderColumns) {
  std::ostringstream out;
  export_ndt(dataset(), out);
  const std::string text = out.str();
  const std::string header = text.substr(0, text.find('\n'));
  EXPECT_NE(header.find("latency_p5_ms"), std::string::npos);
  EXPECT_NE(header.find("truth_operator"), std::string::npos);
  // 15 columns -> 14 commas.
  EXPECT_EQ(std::count(header.begin(), header.end(), ','), 14);
}

TEST_F(ExportTest, PipelineExportHasOneRowPerOperator) {
  const auto result = snoid::run_pipeline(dataset());
  std::ostringstream out;
  EXPECT_EQ(export_pipeline(result, out), result.operators.size());
  EXPECT_NE(out.str().find("starlink"), std::string::npos);
}

TEST_F(ExportTest, TracerouteExportWorks) {
  ripe::AtlasConfig cfg;
  cfg.duration_days = 3.0;
  cfg.round_interval_hours = 24.0;
  const auto atlas = ripe::run_atlas_campaign(cfg);
  std::ostringstream out;
  EXPECT_EQ(export_traceroutes(atlas, out), atlas.traceroutes.size());
  EXPECT_NE(out.str().find("cgnat_rtt_ms"), std::string::npos);
}

TEST_F(ExportTest, StudyReportContainsAllSections) {
  const auto result = snoid::run_pipeline(dataset());
  ripe::AtlasConfig cfg;
  cfg.duration_days = 3.0;
  cfg.round_interval_hours = 24.0;
  const auto atlas = ripe::run_atlas_campaign(cfg);
  const std::string report = study_report(dataset(), result, atlas);
  EXPECT_NE(report.find("# SNO performance study report"), std::string::npos);
  EXPECT_NE(report.find("## Identified operators"), std::string::npos);
  EXPECT_NE(report.find("## Cross-orbit summary"), std::string::npos);
  EXPECT_NE(report.find("## Starlink PoP analysis"), std::string::npos);
  EXPECT_NE(report.find("starlink"), std::string::npos);
}

TEST_F(ExportTest, StudyReportSkipsPopSectionWithoutAtlas) {
  const auto result = snoid::run_pipeline(dataset());
  const std::string report = study_report(dataset(), result, ripe::AtlasDataset{});
  EXPECT_EQ(report.find("## Starlink PoP analysis"), std::string::npos);
  EXPECT_NE(report.find("## Cross-orbit summary"), std::string::npos);
}

// ------------------------------------------------------- timeline files
//
// The loader's robustness contract (DESIGN.md §12): any corrupt,
// truncated, byte-swapped, or stale file is rejected with one
// diagnostic, *out stays empty, and nothing is installed — campaigns
// silently fall back to in-memory builds. Each test corrupts a specific
// header field of a valid image and asserts the matching message.

class TimelineIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    orbit::EpochTimeline::clear_installed();
    orbit::set_timeline_enabled(true);
  }
  void TearDown() override {
    orbit::EpochTimeline::clear_installed();
    orbit::set_timeline_enabled(true);
  }

  /// A small but real serialized image: one Starlink snapshot covering
  /// a handful of terminals and epochs.
  static std::string valid_image() {
    static const std::string image = [] {
      const auto constellation =
          std::make_shared<const orbit::Constellation>(orbit::starlink_shells());
      const orbit::AccessNetwork net = orbit::make_starlink_access(constellation);
      std::vector<orbit::TimelineQuery> queries;
      for (const double lat : {47.61, -33.87}) {
        for (int e = 1; e <= 20; ++e) {
          queries.push_back({{lat, -122.33, 0}, 15.0 * e});
        }
      }
      orbit::EpochTimeline::ensure(net, std::move(queries), 1);
      const std::string bytes =
          serialize_timelines(orbit::EpochTimeline::installed(), "io_test stamp");
      orbit::EpochTimeline::clear_installed();
      return bytes;
    }();
    return image;
  }

  /// Parses `bytes`, expecting rejection: returns the diagnostic and
  /// asserts nothing was decoded.
  static std::string expect_rejected(std::string bytes) {
    auto backing = std::make_shared<std::string>(std::move(bytes));
    std::vector<std::shared_ptr<const orbit::EpochTimeline>> out;
    const std::string diag = parse_timelines(*backing, backing, &out);
    EXPECT_FALSE(diag.empty());
    EXPECT_TRUE(out.empty()) << diag;
    return diag;
  }
};

TEST_F(TimelineIoTest, RoundTripPreservesEverything) {
  auto backing = std::make_shared<std::string>(valid_image());
  std::vector<std::shared_ptr<const orbit::EpochTimeline>> out;
  TimelineFileInfo info;
  ASSERT_EQ(parse_timelines(*backing, backing, &out, &info), "");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(info.networks, 1u);
  EXPECT_EQ(info.bytes, backing->size());
  EXPECT_EQ(info.manifest, "io_test stamp");
  EXPECT_GT(out.front()->serving_size(), 0u);
  EXPECT_GT(out.front()->sample_size(), 0u);
  // Re-serializing the loaded snapshots reproduces the image verbatim.
  EXPECT_EQ(serialize_timelines(out, "io_test stamp"), *backing);
}

TEST_F(TimelineIoTest, BitFlipInPayloadRejected) {
  std::string bytes = valid_image();
  bytes[bytes.size() / 2] ^= 0x01;
  EXPECT_NE(expect_rejected(std::move(bytes)).find("checksum mismatch"),
            std::string::npos);
}

TEST_F(TimelineIoTest, TruncationRejected) {
  const std::string bytes = valid_image();
  // Any prefix must be rejected: mid-payload cuts fail the checksum,
  // header-sized cuts fail structural checks. Never a crash or a
  // partial decode.
  for (const std::size_t keep :
       {bytes.size() - 1, bytes.size() / 2, std::size_t{40}, std::size_t{8}}) {
    expect_rejected(bytes.substr(0, keep));
  }
  EXPECT_NE(expect_rejected(bytes.substr(0, 8)).find("truncated header"),
            std::string::npos);
}

TEST_F(TimelineIoTest, ByteSwappedFileRejected) {
  std::string bytes = valid_image();
  bytes[6] = static_cast<char>(0xFE);  // byte-order mark as a big-endian
  bytes[7] = static_cast<char>(0xFF);  // writer would have produced it
  EXPECT_NE(expect_rejected(std::move(bytes)).find("wrong endianness"),
            std::string::npos);
}

TEST_F(TimelineIoTest, FutureFormatVersionRejected) {
  std::string bytes = valid_image();
  bytes[4] = static_cast<char>(kTimelineFormatVersion + 1);
  EXPECT_NE(expect_rejected(std::move(bytes)).find("unsupported format version"),
            std::string::npos);
}

TEST_F(TimelineIoTest, StaleSchemaStampRejected) {
  std::string bytes = valid_image();
  bytes[9] ^= 0x40;  // schema hash occupies bytes 8..15
  EXPECT_NE(expect_rejected(std::move(bytes)).find("stale schema"),
            std::string::npos);
}

TEST_F(TimelineIoTest, WrongMagicRejected) {
  std::string bytes = valid_image();
  bytes[0] = 'X';
  EXPECT_NE(expect_rejected(std::move(bytes)).find("bad magic"), std::string::npos);
}

TEST_F(TimelineIoTest, LoadRejectsCorruptFileAndInstallsNothing) {
  const std::string path = ::testing::TempDir() + "/satnet_timeline_corrupt.tl";
  std::string bytes = valid_image();
  bytes[bytes.size() - 12] ^= 0x80;  // land inside the sample arrays
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const std::string diag = load_timelines(path);
  EXPECT_NE(diag.find("timeline file rejected"), std::string::npos) << diag;
  EXPECT_TRUE(orbit::EpochTimeline::installed().empty());
  std::remove(path.c_str());
}

TEST_F(TimelineIoTest, SaveLoadInstallsSnapshots) {
  const std::string path = ::testing::TempDir() + "/satnet_timeline_ok.tl";
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    const std::string bytes = valid_image();
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  TimelineFileInfo info;
  ASSERT_EQ(load_timelines(path, &info), "");
  EXPECT_EQ(info.networks, 1u);
  EXPECT_EQ(info.manifest, "io_test stamp");
  EXPECT_EQ(orbit::EpochTimeline::installed().size(), 1u);
  std::remove(path.c_str());
}

TEST_F(TimelineIoTest, MissingFileIsOneDiagnostic) {
  const std::string diag = load_timelines("/nonexistent/dir/timeline.tl");
  EXPECT_FALSE(diag.empty());
  EXPECT_TRUE(orbit::EpochTimeline::installed().empty());
}


// ------------------------------------------------------------ RunOptions

/// A mutable, null-terminated argv the parser can strip in place.
struct Argv {
  Argv(std::initializer_list<const char*> args) : store(args.begin(), args.end()) {
    for (auto& a : store) ptrs.push_back(a.data());
    ptrs.push_back(nullptr);
    argc = static_cast<int>(store.size());
  }
  char** argv() { return ptrs.data(); }
  /// What the parser left after argv[0].
  std::vector<std::string> rest() const {
    return {ptrs.begin() + 1, ptrs.begin() + argc};
  }
  std::vector<std::string> store;
  std::vector<char*> ptrs;
  int argc = 0;
};

std::string parse(Argv& a, RunOptions* out) {
  return parse_run_options(&a.argc, a.argv(), out);
}

void expect_every_flag_set(const RunOptions& o) {
  EXPECT_EQ(o.threads, 3u);
  EXPECT_EQ(o.fault_plan, "plan.txt");
  EXPECT_TRUE(o.no_timeline);
  EXPECT_EQ(o.timeline_in, "in.tl");
  EXPECT_EQ(o.timeline_out, "out.tl");
  EXPECT_EQ(o.metrics_out, "-");
  EXPECT_EQ(o.trace_out, "t.jsonl");
  ASSERT_TRUE(o.recorder_ring.has_value());
  EXPECT_EQ(*o.recorder_ring, 64u);
  EXPECT_EQ(o.watchdog_ms, 250u);
  EXPECT_DOUBLE_EQ(o.watchdog_threshold_ms, 5000.5);
}

TEST(RunOptionsTest, BothSpellingsOfEverySharedFlag) {
  Argv spaced{"prog",           "--threads",     "3",
              "--fault-plan",   "plan.txt",      "--no-timeline",
              "--timeline-in",  "in.tl",         "--timeline-out",
              "out.tl",         "--metrics-out", "-",
              "--trace-out",    "t.jsonl",       "--recorder-ring", "64",
              "--watchdog-ms",  "250",           "--watchdog-threshold-ms",
              "5000.5"};
  Argv joined{"prog", "--threads=3", "--fault-plan=plan.txt", "--no-timeline",
              "--timeline-in=in.tl", "--timeline-out=out.tl", "--metrics-out=-",
              "--trace-out=t.jsonl", "--recorder-ring=64",
              "--watchdog-ms=250", "--watchdog-threshold-ms=5000.5"};
  for (Argv* a : {&spaced, &joined}) {
    RunOptions o;
    ASSERT_EQ(parse(*a, &o), "");
    expect_every_flag_set(o);
    EXPECT_EQ(a->argc, 1);
    EXPECT_EQ(a->argv()[1], nullptr);
  }
}

TEST(RunOptionsTest, DefaultsWhenAbsent) {
  Argv a{"prog", "census"};
  RunOptions o;
  ASSERT_EQ(parse(a, &o), "");
  EXPECT_EQ(o.threads, 0u);
  EXPECT_FALSE(o.no_timeline);
  EXPECT_TRUE(o.timeline_in.empty());
  EXPECT_FALSE(o.recorder_ring.has_value());
  EXPECT_EQ(o.watchdog_ms, 0u);
  EXPECT_EQ(a.rest(), std::vector<std::string>{"census"});
}

TEST(RunOptionsTest, LastOccurrenceWins) {
  Argv a{"prog", "--threads", "2", "--metrics-out=a.prom", "--threads=5",
         "--metrics-out", "b.prom", "--no-timeline", "--no-timeline"};
  RunOptions o;
  ASSERT_EQ(parse(a, &o), "");
  EXPECT_EQ(o.threads, 5u);
  EXPECT_EQ(o.metrics_out, "b.prom");
  EXPECT_TRUE(o.no_timeline);
  EXPECT_EQ(a.argc, 1);
}

/// One line that names the flag.
void expect_diagnostic(const std::string& diag, const std::string& flag) {
  EXPECT_NE(diag.find(flag), std::string::npos) << diag;
  EXPECT_EQ(diag.find('\n'), std::string::npos) << diag;
}

TEST(RunOptionsTest, MissingTrailingValueIsADiagnostic) {
  for (const char* flag :
       {"--threads", "--fault-plan", "--timeline-in", "--timeline-out", "--metrics-out",
        "--trace-out", "--recorder-ring", "--watchdog-ms", "--watchdog-threshold-ms"}) {
    Argv a{"prog", "census", flag};
    RunOptions o;
    expect_diagnostic(parse(a, &o), flag);
  }
  Argv empty{"prog", "--timeline-in="};
  RunOptions o;
  expect_diagnostic(parse(empty, &o), "--timeline-in");
}

TEST(RunOptionsTest, MalformedNumbersAreDiagnostics) {
  const std::pair<const char*, const char*> cases[] = {
      {"--threads", "x"},          {"--threads", "-2"},
      {"--threads", "4x"},         {"--threads", "99999999999999999999"},
      {"--recorder-ring", "abc"},  {"--watchdog-ms", "-1"},
      {"--watchdog-threshold-ms", "nan"}, {"--watchdog-threshold-ms", "-5"},
      {"--watchdog-threshold-ms", "inf"}};
  for (const auto& [flag, value] : cases) {
    Argv a{"prog", flag, value};
    RunOptions o;
    const std::string diag = parse(a, &o);
    expect_diagnostic(diag, flag);
    EXPECT_NE(diag.find(value), std::string::npos) << diag;
  }
}

TEST(RunOptionsTest, UnknownArgumentsStayInOrder) {
  Argv a{"prog", "report", "--benchmark_filter=NONE", "--threads", "2", "--out", "r.md",
         "--gtest_brief=1", "--trace-out=-", "--degrade", "--threadsx", "9"};
  RunOptions o;
  ASSERT_EQ(parse(a, &o), "");
  EXPECT_EQ(o.threads, 2u);
  EXPECT_EQ(o.trace_out, "-");
  const std::vector<std::string> want = {
      "report",          "--benchmark_filter=NONE", "--out",      "r.md",
      "--gtest_brief=1", "--degrade",               "--threadsx", "9"};
  EXPECT_EQ(a.rest(), want);
  EXPECT_EQ(a.argv()[a.argc], nullptr);
}

TEST(RunOptionsTest, FirstErrorWinsAndParsingReturns) {
  // Several bad values in one argv: one diagnostic, for the first flag
  // in table order, and control comes back to the caller.
  Argv a{"prog", "--watchdog-ms", "x", "--threads", "y"};
  RunOptions o;
  const std::string diag = parse(a, &o);
  expect_diagnostic(diag, "--threads");
  EXPECT_EQ(diag.find("--watchdog-ms"), std::string::npos) << diag;
}

TEST(RunOptionsTest, HelpListsEverySharedFlag) {
  const std::string help = run_options_help();
  for (const char* flag :
       {"--threads", "--fault-plan", "--no-timeline", "--timeline-in", "--timeline-out",
        "--metrics-out", "--trace-out", "--recorder-ring", "--watchdog-ms",
        "--watchdog-threshold-ms"}) {
    EXPECT_NE(help.find(std::string("  ") + flag + " "), std::string::npos) << flag;
  }
  // The recorder stream rides --trace-out; there is no second export flag.
  EXPECT_EQ(help.find("--recorder-out"), std::string::npos);
}

TEST(ArgScannerTest, TypedHelpersNeverThrow) {
  Argv a{"prog", "report", "--scale", "abc", "--retries=0", "--seed", "7", "--check"};
  ArgScanner args(&a.argc, a.argv());
  double scale = 0.5;
  EXPECT_FALSE(args.real("--scale", &scale));
  EXPECT_DOUBLE_EQ(scale, 0.5);  // untouched on error
  std::size_t retries = 1;
  EXPECT_FALSE(args.whole("--retries", &retries, std::size_t{1}));
  unsigned long long seed = 0;
  EXPECT_TRUE(args.whole("--seed", &seed));
  EXPECT_EQ(seed, 7u);
  EXPECT_TRUE(args.flag("--check"));
  EXPECT_FALSE(args.flag("--degrade"));
  expect_diagnostic(args.error(), "--scale");
  EXPECT_EQ(a.rest(), std::vector<std::string>{"report"});
}

}  // namespace
}  // namespace satnet::io
