// What one benchmark run hands back, and how it is printed.
//
// A run prints, in order: a host fingerprint, the workload's inputs, the
// exact work done (steps, rounds, frames, retransmits — so a timing change can
// be told from a work change), every metric by name and unit, any check that
// failed, and as its last line one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// whose metrics are the gated end-to-end ones (untraced run) or the
// per-layer ones (traced run).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "oracle.hpp"

namespace pifbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  // Chrome traces and layer tables go here
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Count {
  std::string name;
  std::uint64_t value = 0;
};

/// What one run found.  `attempted` counts the run's operations (cycles,
/// trials or waves) and `failed` those whose own check failed.  A failed
/// check makes the run incorrect, except for an operation whose input is
/// listed as hitting a known fault of the program: that one is counted in
/// `failed` and printed, and `correct` speaks of the other operations.
struct RunResult {
  std::vector<std::string> inputs;  // one line each: graph, seeds, shape
  std::vector<std::string> violations;  // failed checks: correct = false
  std::vector<std::string> known_faults;  // failed operations of a known fault
  std::vector<std::string> warnings;    // measurement caveats, printed
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Count> work;            // timed phase (untraced)
  std::vector<Metric> end_to_end;     // gated, untraced phase
  std::vector<Metric> info;           // printed, not gated (tail, percentile)
  std::vector<Metric> layer_table;    // traced run: the per-layer breakdown
  std::vector<Metric> per_layer;      // traced run: the JSON per-layer set
  std::vector<std::string> files;     // traces and tables written

  /// A property of the run; returns `ok`.
  bool check(bool ok, const std::string& what) {
    if (!ok) {
      violations.push_back(what);
    }
    return ok;
  }
  /// A property of one operation: a failure also counts it in `failed`.
  bool check_op(bool ok, const std::string& what) {
    if (!check(ok, what)) {
      ++failed;
    }
    return ok;
  }
  /// One operation on an input listed as hitting a known fault: a failure
  /// is counted in `failed` but leaves the run correct.
  bool check_known_fault(bool ok, const std::string& what) {
    if (!ok) {
      known_faults.push_back(what);
      ++failed;
    }
    return ok;
  }
  void add_count(const std::string& name, std::uint64_t v) {
    work.push_back({name, v});
  }
};

/// Milliseconds between two now_ns() stamps.
[[nodiscard]] inline double ms_between(std::uint64_t t0, std::uint64_t t1) {
  return static_cast<double>(t1 - t0) / 1e6;
}

/// Median of a small sample (setup repetitions).
[[nodiscard]] double median_of(std::vector<double> v);

/// Peak resident set size of this process in MB.
[[nodiscard]] double peak_rss_mb();

/// Adds the end-to-end metrics shared by every workload.  `waves_ms` are the
/// per-wave latencies; `work_units` the rounds (or loop steps) of the timed
/// phase; `timed_ns` its whole wall time.
void add_end_to_end(RunResult& r, std::uint64_t waves,
                    const std::vector<double>& waves_ms,
                    std::uint64_t work_units, std::uint64_t timed_ns,
                    const std::vector<double>& setup_s);

/// Prints the report and the final JSON line; returns the process exit code.
int print_report(const Options& opt, const RunResult& r);

}  // namespace pifbench
