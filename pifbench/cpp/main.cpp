// pifbench: one run of one workload.
//
//   pifbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out DIR]
//
// Workloads: engine_sync_1m, engine_snap_1k, emulate_lossy_1k,
// serve_udp_lossy (see workloads.hpp).  The last line of standard output is
// the run's JSON result; the exit code is 0 when every check held, 1 when one
// failed, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "workloads.hpp"

namespace pifbench {

double self_per_call(const LayerTrace& trace, const char* layer, double divisor) {
  const LayerTrace::Layer* l = trace.find(layer);
  if (l == nullptr || l->calls == 0) {
    return 0.0;
  }
  return static_cast<double>(l->self_ns()) / static_cast<double>(l->calls) / divisor;
}

void add_layer_rows(RunResult& r, const LayerTrace& trace,
                    std::uint64_t untraced_ns, const SharedLayers& shared) {
  for (const LayerTrace::Layer& l : trace.layers()) {
    r.layer_table.push_back({l.name + ".calls", "count", static_cast<double>(l.calls)});
    r.layer_table.push_back(
        {l.name + ".span_ms", "ms", static_cast<double>(l.total_ns) / 1e6});
    r.layer_table.push_back(
        {l.name + ".self_ms", "ms", static_cast<double>(l.self_ns()) / 1e6});
  }
  const double phase = static_cast<double>(trace.phase_ns());
  const double coverage = 100.0 * static_cast<double>(trace.top_level_ns()) / phase;
  const double overhead =
      100.0 * (phase - static_cast<double>(untraced_ns)) / static_cast<double>(untraced_ns);
  r.layer_table.push_back({"trace.phase_ms", "ms", phase / 1e6});
  r.layer_table.push_back(
      {"trace.untraced_same_work_ms", "ms", static_cast<double>(untraced_ns) / 1e6});
  r.per_layer = {
      {"graph.generate_ms", "ms", shared.generate_ms},
      {"stack.build_ms", "ms", shared.build_ms},
      {"stack.step_self_us", "us", self_per_call(trace, shared.step_layer, 1e3)},
      {"work.steps_per_wave", "count", shared.steps_per_wave},
      {"work.rounds_per_wave", "count", shared.rounds_per_wave},
      {"trace.top_coverage_pct", "%", coverage},
      {"trace.overhead_pct", "%", overhead},
  };
  if (coverage < 90.0) {
    r.warnings.push_back("top-level layer spans cover less than 90% of the traced phase");
  }
}

void write_trace(RunResult& r, const Options& opt, const LayerTrace& trace) {
  const std::string path = opt.out_dir + "/trace-" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + ".json";
  if (trace.write_chrome_trace(path)) {
    r.files.push_back(path + " (Chrome trace, " +
                      std::to_string(trace.spans_recorded()) + " spans, ts in ns)");
  } else {
    r.check(false, "could not write " + path);
  }
}

}  // namespace pifbench

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "pifbench: %s\nusage: pifbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out DIR]\nworkloads: engine_sync_1m "
               "engine_snap_1k emulate_lossy_1k serve_udp_lossy\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pifbench::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) {
      return usage("missing value after a flag");
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') {
        return usage("--seed takes a whole number");
      }
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(opt.seconds > 0.0) || opt.seconds > 600.0) {
        return usage("--seconds takes a number in (0, 600]");
      }
    } else if (flag == "--trace") {
      const std::string_view v = value;
      if (v != "0" && v != "1") {
        return usage("--trace takes 0 or 1");
      }
      opt.trace = v == "1";
    } else if (flag == "--out") {
      opt.out_dir = value;
    } else {
      return usage("unknown flag");
    }
  }
  if (!have_workload) {
    return usage("--workload is required");
  }

  pifbench::RunResult r;
  if (opt.workload == "engine_sync_1m") {
    r = pifbench::run_engine_sync_1m(opt);
  } else if (opt.workload == "engine_snap_1k") {
    r = pifbench::run_engine_snap_1k(opt);
  } else if (opt.workload == "emulate_lossy_1k") {
    r = pifbench::run_emulate_lossy_1k(opt);
  } else if (opt.workload == "serve_udp_lossy") {
    r = pifbench::run_serve_udp_lossy(opt);
  } else {
    return usage("unknown workload");
  }
  return pifbench::print_report(opt, r);
}
