// One run surface for every entry point: satnetctl, the bench binaries
// and golden_test.
//
// ArgScanner is the typed argv scanner every flag goes through. Each
// getter strips every "--name V" / "--name=V" occurrence from argv (the
// last one wins), leaves the target unchanged when the flag is absent,
// and records one diagnostic naming the flag on a missing or malformed
// value — it never throws and never exits. Arguments it does not ask for
// stay in argv in their original order (google-benchmark and gtest parse
// what is left).
//
// RunOptions is the flag set the entry points share, parsed from one
// table (parse_run_options); run_options_help() prints the same table.
//
// RunSession is the prologue/epilogue around a run: begin() installs the
// fault plan, applies the timeline mode and warm start, and enables the
// flight recorder (--trace-out) and pool watchdog; finish() saves the
// timeline, prints the timeline roll-up, and writes the metrics and
// trace exports stamped with the run manifest — the trace is the one
// recorder stream: spans, then events. An export that cannot be written
// fails the run (exit 2, one diagnostic naming the flag). Exports and
// summaries are observation only: simulation output is byte-identical
// with or without any of them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

namespace satnet::io {

class ArgScanner {
 public:
  /// Scans argv[1..*argc); getters shrink *argc as they strip, and
  /// return true when their flag appeared with a valid value.
  ArgScanner(int* argc, char** argv) : argc_(argc), argv_(argv) {}

  /// Valueless flag: true when it appeared.
  bool flag(std::string_view name);
  /// Non-empty string value.
  bool text(std::string_view name, std::string* out);
  /// Finite real number, >= 0 when `non_negative`.
  bool real(std::string_view name, double* out, bool non_negative = false);
  /// Whole number in [min, T's max] (no sign, no trailing garbage).
  template <class T>
  bool whole(std::string_view name, T* out, T min = 0) {
    unsigned long long v = 0;
    if (!whole(name, &v, min, std::numeric_limits<T>::max())) return false;
    *out = static_cast<T>(v);
    return true;
  }

  /// The first diagnostic, "" when every value parsed.
  const std::string& error() const { return error_; }

 private:
  /// Strips every occurrence; the last value wins. nullopt when absent
  /// or valueless (the latter records the diagnostic).
  std::optional<std::string> take(std::string_view name);
  bool whole(std::string_view name, unsigned long long* out, unsigned long long min,
             unsigned long long max);
  bool reject(std::string_view name, const std::string& raw, const std::string& expected);
  /// Removes argv[i, i + n).
  void drop(int i, int n);

  int* argc_;
  char** argv_;
  std::string error_;
};

/// The run flags shared by every entry point.
struct RunOptions {
  unsigned threads = 0;  ///< 0 = one worker per hardware thread
  std::string fault_plan;
  bool no_timeline = false;
  std::string timeline_in;
  std::string timeline_out;
  std::string metrics_out;  ///< "-" = stdout, as for trace_out
  std::string trace_out;    ///< turns the recorder stream on
  std::optional<std::size_t> recorder_ring;
  unsigned watchdog_ms = 0;  ///< 0 = watchdog off
  double watchdog_threshold_ms = 0;  ///< 0 = keep the pool default
};

/// Strips every shared run flag from argv and fills *out. Returns "" on
/// success, else one diagnostic naming the flag.
std::string parse_run_options(int* argc, char** argv, RunOptions* out);

/// Usage lines for the shared flags, from the same table.
std::string run_options_help();

class RunSession {
 public:
  /// `program` prefixes diagnostics and the saved timeline's stamp and
  /// is the manifest's default tool name.
  explicit RunSession(std::string program) : program_(std::move(program)) {}

  /// Records the command line, then parse_run_options.
  std::string parse(int* argc, char** argv);
  const RunOptions& options() const { return options_; }

  /// Prologue. `tool` names the run in the manifest ("" = program).
  /// Returns "" or the one fatal diagnostic (a fault plan that does not
  /// load); a rejected --timeline-in prints its diagnostic and the run
  /// builds in memory.
  std::string begin(std::string tool = "");

  /// Epilogue after a successful run. Returns 0, or 2 after printing
  /// one diagnostic per export (saved timeline, metrics, trace) that
  /// could not be written.
  int finish();

  /// Prints "program: diagnostic" to stderr; returns exit status 2.
  int reject(const std::string& diagnostic) const;

 private:
  std::string program_;
  std::string tool_;
  std::string command_;  ///< full argv, as given
  std::string stamp_;    ///< program plus argv[1..], as given
  RunOptions options_;
  std::string fault_summary_;
  std::uint64_t start_us_ = 0;  ///< recorder clock at begin(), for wall_ms
};

}  // namespace satnet::io
