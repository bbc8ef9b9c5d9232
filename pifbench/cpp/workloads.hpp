// The four workloads.  Each is closed-loop and single-threaded, runs in its
// own process, and fills a RunResult:
//
//   engine_sync_1m    pif::SoaEngine, n = 10^6, SynchronousDaemon, whole
//                     cycles from the initial configuration (fast path)
//   engine_snap_1k    pif::SoaEngine, n = 1024, CentralRandomDaemon, trials
//                     from seeded arbitrary configurations, each judged by
//                     pif::GhostTracker on the root's first cycle
//   emulate_lossy_1k  mp::GuardedEmulation over the impaired loopback, trials
//                     from seeded arbitrary configurations, every cycle judged
//   serve_udp_lossy   mp::WaveService over impaired UdpTransport, 16 streams
//
// Untraced, a workload measures for opt.seconds.  Traced, it first measures
// untraced for half the time, then replays exactly the same work with layer
// spans on; the per-layer numbers come from the replay and the tracing
// overhead is the replay's extra wall time over the same work.
#pragma once

#include <cstdint>
#include <vector>

#include "layers.hpp"
#include "report.hpp"

namespace pifbench {

RunResult run_engine_sync_1m(const Options& opt);
RunResult run_engine_snap_1k(const Options& opt);
RunResult run_emulate_lossy_1k(const Options& opt);
RunResult run_serve_udp_lossy(const Options& opt);

/// Seed of item `index` of a run seeded `seed` (SplitMix64 finalizer), so
/// that the same --seed gives the same inputs.
[[nodiscard]] inline std::uint64_t derive_seed(std::uint64_t seed,
                                               std::uint64_t index) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + index + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Wall time a workload measures untraced: the whole run, or half of it in a
/// traced run, whose other half replays the same work with spans on.
[[nodiscard]] inline std::uint64_t untraced_budget_ns(const Options& opt) {
  return static_cast<std::uint64_t>(opt.seconds * (opt.trace ? 0.5 : 1.0) * 1e9);
}

/// The timed set-ups of one run; setup_s is reported as their median.
struct Setups {
  std::vector<double> setup_s;
  std::vector<double> generate_ms;
  std::vector<double> build_ms;
};

// Set-up is repeated until both minimums are met.  A sub-millisecond set-up
// then yields the median of thousands of builds rather than of a few dozen,
// and a second-long one the median of three.
constexpr std::size_t kMinSetups = 3;
constexpr std::uint64_t kMinSetupNs = 1'000'000'000;

/// Calls `build()` until kMinSetups builds and kMinSetupNs have passed,
/// records each stack's generate_ms and build_ms, and returns the last
/// stack.  Each earlier stack is freed before the next is built, so peak
/// memory is one stack.
template <class Build>
auto timed_setups(Build build, Setups& out) {
  const std::uint64_t t0 = now_ns();
  for (;;) {
    auto s = build();
    out.setup_s.push_back((s.generate_ms + s.build_ms) / 1e3);
    out.generate_ms.push_back(s.generate_ms);
    out.build_ms.push_back(s.build_ms);
    if (out.setup_s.size() >= kMinSetups && now_ns() - t0 >= kMinSetupNs) {
      return s;
    }
  }
}

/// What every traced workload reports in its JSON result.
struct SharedLayers {
  double generate_ms = 0.0;    // graph generation, median over set-ups
  double build_ms = 0.0;       // engine / emulation / stack construction
  const char* step_layer = "";  // the layer whose self time per call is reported
  double steps_per_wave = 0.0;
  double rounds_per_wave = 0.0;
};

/// Adds each layer's calls, span time and self time to the printed table,
/// and the shared metrics plus the top-level coverage of the traced phase
/// and the overhead against the untraced phase over the same work to the
/// JSON set.
void add_layer_rows(RunResult& r, const LayerTrace& trace,
                    std::uint64_t untraced_ns, const SharedLayers& shared);

/// Writes the traced phase's Chrome trace into opt.out_dir.
void write_trace(RunResult& r, const Options& opt, const LayerTrace& trace);

/// Self time per call of a layer in the given unit divisor (1e3 = us).
[[nodiscard]] double self_per_call(const LayerTrace& trace, const char* layer,
                                   double divisor);

}  // namespace pifbench
