#include "report.hpp"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <string>

namespace pifbench {
namespace {

/// Shortest decimal that reads back as exactly `v` (no rounding away digits).
std::string num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  if (metrics.empty()) {
    return;
  }
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16s %s\n", m.name.c_str(), num(m.value).c_str(),
                m.unit.c_str());
  }
}

}  // namespace

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return sorted_quantile(v, 0.5);
}

double peak_rss_mb() {
  // VmHWM, the peak resident set of this process image.  ru_maxrss would
  // carry over the launcher's peak: Linux keeps it across fork and exec, so
  // a small workload started from Python would report Python's footprint.
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

void add_end_to_end(RunResult& r, std::uint64_t waves,
                    const std::vector<double>& waves_ms,
                    std::uint64_t work_units, std::uint64_t timed_ns,
                    const std::vector<double>& setup_s) {
  const double secs = static_cast<double>(timed_ns) / 1e9;
  const LatencySummary lat = summarize(waves_ms);
  r.end_to_end.push_back({"waves_per_s", "1/s", static_cast<double>(waves) / secs});
  r.end_to_end.push_back({"wave_ms_p50", "ms", lat.p50});
  r.end_to_end.push_back(
      {"rounds_per_s", "1/s", static_cast<double>(work_units) / secs});
  r.end_to_end.push_back({"setup_s", "s", median_of(setup_s)});
  r.end_to_end.push_back({"peak_rss_mb", "MB", peak_rss_mb()});
  r.info.push_back({"wave_samples", "count", static_cast<double>(lat.count)});
  if (!waves_ms.empty()) {
    const auto [lo, hi] = std::minmax_element(waves_ms.begin(), waves_ms.end());
    r.info.push_back({"wave_ms_min", "ms", *lo});
    r.info.push_back({"wave_ms_max", "ms", *hi});
  }
  if (lat.has_tail) {
    r.info.push_back({"wave_ms_tail", "ms", lat.tail});
    r.info.push_back({"wave_ms_tail_percentile", "pct", lat.tail_pct});
  }
  r.info.push_back({"timed_s", "s", secs});
  r.info.push_back({"setup_samples", "count", static_cast<double>(setup_s.size())});
}

int print_report(const Options& opt, const RunResult& r) {
  const bool correct = r.violations.empty();
  std::printf("pifbench workload=%s seed=%llu seconds=%s trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              num(opt.seconds).c_str(), opt.trace ? 1 : 0);
  std::printf("host: nproc=%ld cpu=\"%s\" compiler=\"g++ %s\" build=%s flags=\"%s\"\n",
              sysconf(_SC_NPROCESSORS_ONLN), cpu_model().c_str(), __VERSION__,
              PIFBENCH_BUILD_TYPE, PIFBENCH_FLAGS);
  for (const std::string& line : r.inputs) {
    std::printf("input: %s\n", line.c_str());
  }
  std::printf("operations: attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  std::printf("work (timed phase):\n");
  for (const Count& c : r.work) {
    std::printf("  %-34s %16llu\n", c.name.c_str(),
                static_cast<unsigned long long>(c.value));
  }
  print_metrics("end-to-end:", r.end_to_end);
  print_metrics("not gated:", r.info);
  print_metrics("per-layer table (traced phase):", r.layer_table);
  print_metrics("per-layer (reported):", r.per_layer);
  for (const std::string& f : r.files) {
    std::printf("wrote %s\n", f.c_str());
  }
  for (const std::string& w : r.warnings) {
    std::printf("WARNING: %s\n", w.c_str());
  }
  for (const std::string& f : r.known_faults) {
    std::printf("KNOWN FAULT (counted in failed): %s\n", f.c_str());
  }
  for (const std::string& v : r.violations) {
    std::printf("CHECK FAILED: %s\n", v.c_str());
  }

  const std::vector<Metric>& reported = opt.trace ? r.per_layer : r.end_to_end;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    const Metric& m = reported[i];
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + num(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace pifbench
