// engine_sync_1m and engine_snap_1k: the two pif::SoaEngine workloads.
//
// engine_sync_1m runs the synchronous fast path (no observer attached, so
// step() batches whole rounds through the guard kernel); engine_snap_1k runs
// the generic one-writer-per-step path with the GhostTracker apply hook.
#include <memory>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "pif/checker.hpp"
#include "pif/ghost.hpp"
#include "pif/soa_engine.hpp"
#include "sim/daemon.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace pifbench {
namespace {

using snappif::graph::Graph;
using snappif::pif::PifProtocol;
using snappif::pif::SoaEngine;
namespace pif = snappif::pif;
namespace sim = snappif::sim;

constexpr auto kPhaseB = static_cast<std::uint8_t>(pif::Phase::kB);
constexpr auto kPhaseF = static_cast<std::uint8_t>(pif::Phase::kF);
constexpr auto kPhaseC = static_cast<std::uint8_t>(pif::Phase::kC);

/// Graph plus engine, built together: the set-up a user pays.
struct EngineStack {
  std::unique_ptr<Graph> graph;
  std::unique_ptr<SoaEngine> engine;
  double generate_ms = 0.0;
  double build_ms = 0.0;
};

EngineStack build_engine(sim::ProcessorId n, std::uint64_t graph_seed,
                         std::uint64_t engine_seed) {
  EngineStack s;
  const std::uint64_t t0 = now_ns();
  s.graph = std::make_unique<Graph>(
      snappif::graph::make_random_connected(n, 2 * std::size_t{n}, graph_seed));
  const std::uint64_t t1 = now_ns();
  s.engine = std::make_unique<SoaEngine>(
      PifProtocol(*s.graph, pif::Params::for_graph(*s.graph)), *s.graph,
      engine_seed);
  const std::uint64_t t2 = now_ns();
  s.generate_ms = ms_between(t0, t1);
  s.build_ms = ms_between(t1, t2);
  return s;
}

std::uint64_t corrections(const SoaEngine& e) {
  return e.action_count(pif::kBCorrection) + e.action_count(pif::kFCorrection);
}

std::uint64_t total_actions(const SoaEngine& e) {
  std::uint64_t sum = 0;
  for (sim::ActionId a = 0; a < pif::kNumActions; ++a) {
    sum += e.action_count(a);
  }
  return sum;
}

// --- engine_sync_1m --------------------------------------------------------

constexpr sim::ProcessorId kSyncN = 1000000;
constexpr std::uint64_t kSyncGraphSeed = 42;

struct SyncPhase {
  std::uint64_t cycles = 0;
  std::uint64_t unfinished = 0;  // 1 when the phase stopped inside a cycle
  std::uint64_t steps = 0;
  std::uint64_t rounds = 0;
  std::uint64_t actions = 0;
  std::uint64_t corrections = 0;
  std::uint64_t enabled_sum = 0;  // enabled processors summed over steps
  std::uint64_t wall_ns = 0;
  std::vector<double> cycle_ms;
};

/// Runs whole cycles from the initial configuration: until `budget_ns` has
/// passed (then finishes the cycle in progress) or, when max_cycles != 0,
/// exactly max_cycles cycles.  The phase ends on a root F-action, when every
/// processor has executed exactly one B- and one F-action per cycle.
SyncPhase run_sync_cycles(SoaEngine& e, std::uint32_t h, std::uint64_t budget_ns,
                          std::uint64_t max_cycles, LayerTrace* trace,
                          RunResult& r) {
  const int step_id = trace != nullptr ? trace->layer("pif.step") : 0;
  sim::SynchronousDaemon daemon;
  const sim::ProcessorId root = e.protocol().root();
  const std::uint64_t bound = 5ULL * h + 5;
  const std::uint64_t steps0 = e.steps();
  const std::uint64_t rounds0 = e.rounds();
  const std::uint64_t actions0 = total_actions(e);
  const std::uint64_t corr0 = corrections(e);
  const std::uint64_t b0 = e.action_count(pif::kBAction);
  const std::uint64_t f0 = e.action_count(pif::kFAction);

  SyncPhase ph;
  const std::uint64_t t0 = now_ns();
  bool open = false;
  std::uint64_t open_t = 0;
  std::uint64_t open_round = 0;
  for (;;) {
    const std::uint8_t before = e.soa().pif[root];
    const std::uint64_t rounds_before = e.rounds();
    ph.enabled_sum += e.enabled_processors().size();
    bool stepped = false;
    {
      Scope s(trace, step_id);
      stepped = e.step(daemon);
    }
    if (!stepped) {
      r.check_op(false, "engine_sync_1m: no processor enabled (deadlock)");
      ph.unfinished = 1;
      break;
    }
    const std::uint8_t after = e.soa().pif[root];
    if (before == kPhaseC && after == kPhaseB) {
      open = true;
      open_t = now_ns();
      open_round = rounds_before;
    } else if (open && before == kPhaseB && after == kPhaseF) {
      const std::uint64_t t = now_ns();
      const std::uint64_t cycle_rounds = e.rounds() - open_round;
      r.check_op(cycle_rounds <= bound,
                 "engine_sync_1m: cycle took " + std::to_string(cycle_rounds) +
                     " rounds > 5h+5 = " + std::to_string(bound));
      ph.cycle_ms.push_back(ms_between(open_t, t));
      ++ph.cycles;
      open = false;
      const bool done = max_cycles != 0 ? ph.cycles >= max_cycles
                                        : t - t0 >= budget_ns;
      if (done) {
        break;
      }
    }
    if (open && e.rounds() - open_round > bound) {
      r.check_op(false, "engine_sync_1m: cycle exceeded 5h+5 rounds without closing");
      ph.unfinished = 1;
      break;
    }
  }
  ph.wall_ns = now_ns() - t0;
  ph.steps = e.steps() - steps0;
  ph.rounds = e.rounds() - rounds0;
  ph.actions = total_actions(e) - actions0;
  ph.corrections = corrections(e) - corr0;

  const std::uint64_t n = e.topology().n();
  r.check(ph.corrections == 0, "engine_sync_1m: a B- or F-correction fired");
  r.check(e.action_count(pif::kBAction) - b0 == n * ph.cycles,
          "engine_sync_1m: B-actions != n x completed cycles");
  r.check(e.action_count(pif::kFAction) - f0 == n * ph.cycles,
          "engine_sync_1m: F-actions != n x completed cycles");
  return ph;
}

}  // namespace

RunResult run_engine_sync_1m(const Options& opt) {
  RunResult r;
  // Deterministic by design: the topology is part of the workload (graph
  // seed 42, h = 11) and the synchronous daemon draws no randomness, so
  // --seed only seeds the engine's RNG, which this path never draws from.
  // A per-seed topology would move h between 11 and 13 and with it the
  // rounds per cycle, which is a change of input, not of speed.
  const std::uint64_t graph_seed = kSyncGraphSeed;
  r.inputs.push_back("graph make_random_connected(n=" + std::to_string(kSyncN) +
                     ", extra=" + std::to_string(2 * kSyncN) +
                     ", seed=" + std::to_string(graph_seed) + "), root 0");
  r.inputs.push_back("daemon synchronous, start: initial configuration (all C); "
                     "engine RNG seeded " + std::to_string(opt.seed) + " (never drawn)");

  Setups setups;
  EngineStack s = timed_setups(
      [&] { return build_engine(kSyncN, graph_seed, opt.seed); }, setups);
  SoaEngine& e = *s.engine;
  const std::uint32_t h = bfs_eccentricity(*s.graph, e.protocol().root());
  r.inputs.push_back("h = ecc(root) = " + std::to_string(h) +
                     " (own BFS); Theorem 4 bound 5h+5 = " + std::to_string(5 * h + 5));

  const SyncPhase ph =
      run_sync_cycles(e, h, untraced_budget_ns(opt), 0, nullptr, r);

  const std::uint64_t m0 = now_ns();
  const pif::Checker checker(e.protocol());
  const auto& config = e.config();  // first AoS read: syncs the mirror
  const double mirror_ms = ms_between(m0, now_ns());
  r.check(checker.all_normal(config),
          "engine_sync_1m: final configuration is not all_normal");

  r.attempted = ph.cycles + ph.unfinished;
  r.add_count("cycles", ph.cycles);
  r.add_count("steps", ph.steps);
  r.add_count("rounds", ph.rounds);
  r.add_count("actions", ph.actions);
  r.add_count("corrections", ph.corrections);
  add_end_to_end(r, ph.cycles, ph.cycle_ms, ph.rounds, ph.wall_ns, setups.setup_s);
  r.info.push_back({"pif.mirror_sync_ms", "ms", mirror_ms});

  if (opt.trace) {
    LayerTrace trace;
    e.reset_to_initial();
    trace.begin_phase();
    const SyncPhase tp = run_sync_cycles(e, h, 0, ph.cycles, &trace, r);
    trace.end_phase();
    r.attempted += tp.cycles + tp.unfinished;
    const std::uint64_t tm0 = now_ns();
    (void)e.config();
    const double traced_mirror_ms = ms_between(tm0, now_ns());
    const double waves = static_cast<double>(tp.cycles);
    std::vector<Metric>& t = r.layer_table;
    t.push_back({"graph.generate_ms", "ms", median_of(setups.generate_ms)});
    t.push_back({"pif.engine_build_ms", "ms", median_of(setups.build_ms)});
    t.push_back({"pif.step_us", "us", self_per_call(trace, "pif.step", 1e3)});
    t.push_back({"pif.enabled_per_step", "count",
                 static_cast<double>(tp.enabled_sum) / static_cast<double>(tp.steps)});
    t.push_back({"pif.steps_per_wave", "count", static_cast<double>(tp.steps) / waves});
    t.push_back({"pif.rounds_per_wave", "count", static_cast<double>(tp.rounds) / waves});
    t.push_back({"pif.actions_per_wave", "count", static_cast<double>(tp.actions) / waves});
    t.push_back({"pif.corrections_per_wave", "count",
                 static_cast<double>(tp.corrections) / waves});
    t.push_back({"pif.mirror_sync_ms", "ms", traced_mirror_ms});
    add_layer_rows(r, trace, ph.wall_ns,
                   {median_of(setups.generate_ms), median_of(setups.build_ms),
                    "pif.step",
                    static_cast<double>(tp.steps) / waves,
                    static_cast<double>(tp.rounds) / waves});
    write_trace(r, opt, trace);
  }
  return r;
}

// --- engine_snap_1k --------------------------------------------------------

namespace {

constexpr sim::ProcessorId kSnapN = 1024;
constexpr std::uint64_t kSnapGraphSeed = 42;
// The fixed list of trials (arbitrary start + daemon stream) every run goes
// through, in whole passes.  An odd count puts the median of the run's trial
// times inside the middle trial's repeats (the median of its 3-4 copies)
// rather than between the slowest copy of one trial and the fastest of the
// next, which made wave_ms_p50 twice as noisy as waves_per_s.
constexpr std::uint64_t kSnapTrials = 33;
constexpr std::uint64_t kSnapListSeed = 42;
// Far above any first cycle seen (under 2 M steps); reaching it is a failure.
constexpr std::uint64_t kSnapStepCap = 50000000;

/// Forwards to the real daemon; used only in the traced run, to time
/// daemon selection as its own layer.
class TimedDaemon final : public sim::IDaemon {
 public:
  TimedDaemon(sim::IDaemon& inner, LayerTrace& trace)
      : inner_(&inner), trace_(&trace), id_(trace.layer("sim.daemon_select")) {}
  void select(std::span<const sim::ProcessorId> enabled,
              const sim::DaemonContext& ctx, snappif::util::Rng& rng,
              std::vector<sim::ProcessorId>& out) override {
    Scope s(trace_, id_);
    inner_->select(enabled, ctx, rng, out);
  }
  [[nodiscard]] std::string_view name() const override { return inner_->name(); }
  void reset() override { inner_->reset(); }

 private:
  sim::IDaemon* inner_;
  LayerTrace* trace_;
  int id_;
};

struct SnapPhase {
  std::uint64_t passes = 0;
  std::uint64_t trials = 0;
  std::uint64_t steps = 0;
  std::uint64_t rounds = 0;
  std::uint64_t actions = 0;
  std::uint64_t corrections = 0;
  std::uint64_t enabled_sum = 0;
  std::uint64_t wall_ns = 0;
  std::vector<double> trial_ms;
};

/// The workload's input is a fixed list of kSnapTrials trials: trial c starts
/// from the uniformly random configuration drawn from derive_seed(42, 2c) and
/// draws the daemon's choices from derive_seed(42, 2c + 1); it runs until the
/// root closes its first cycle, which must be clean.  A run goes through the
/// list in whole passes, starting at trial `seed mod kSnapTrials`, until
/// `budget_ns` has passed or, when max_passes != 0, for exactly max_passes.
/// Every pass is the same work, so runs differ only in timing.
SnapPhase run_snap_trials(SoaEngine& e, pif::GhostTracker& tracker,
                          sim::IDaemon& daemon, std::uint64_t seed,
                          std::uint64_t budget_ns, std::uint64_t max_passes,
                          LayerTrace* trace, RunResult& r) {
  const int step_id = trace != nullptr ? trace->layer("pif.step") : 0;
  const int rand_id = trace != nullptr ? trace->layer("pif.randomize") : 0;
  SnapPhase ph;
  const std::uint64_t t0 = now_ns();
  for (std::uint64_t i = 0;; ++i) {
    if (i % kSnapTrials == 0) {
      if (max_passes != 0 ? ph.passes >= max_passes
                          : (i > 0 && now_ns() - t0 >= budget_ns)) {
        break;
      }
      ++ph.passes;
    }
    const std::uint64_t c = (seed + i) % kSnapTrials;
    const std::uint64_t ts = now_ns();
    {
      Scope s(trace, rand_id);
      snappif::util::Rng cfg_rng(derive_seed(kSnapListSeed, 2 * c));
      e.randomize(cfg_rng);
      e.rng() = snappif::util::Rng(derive_seed(kSnapListSeed, 2 * c + 1));
      tracker.reset();
    }
    const std::uint64_t steps0 = e.steps();
    const std::uint64_t rounds0 = e.rounds();
    const std::uint64_t actions0 = total_actions(e);
    const std::uint64_t corr0 = corrections(e);
    while (tracker.cycles_completed() == 0 && e.steps() - steps0 < kSnapStepCap) {
      ph.enabled_sum += e.enabled_processors().size();
      bool stepped = false;
      {
        Scope s(trace, step_id);
        stepped = e.step(daemon);
      }
      if (!stepped) {
        break;
      }
    }
    ph.trial_ms.push_back(ms_between(ts, now_ns()));
    ph.steps += e.steps() - steps0;
    ph.rounds += e.rounds() - rounds0;
    ph.actions += total_actions(e) - actions0;
    ph.corrections += corrections(e) - corr0;
    ++ph.trials;
    if (tracker.cycles_completed() == 0) {
      r.check_op(false, "engine_snap_1k: trial " + std::to_string(c) +
                            " closed no cycle");
      continue;
    }
    const pif::CycleVerdict& v = tracker.verdicts().front();
    r.check_op(v.ok() && v.max_receives == 1 && v.max_acks == 1,
               "engine_snap_1k: trial " + std::to_string(c) +
                   " first cycle is not clean (pif1=" + std::to_string(v.pif1) +
                   " pif2=" + std::to_string(v.pif2) + " aborted=" +
                   std::to_string(v.aborted) + " receives=" +
                   std::to_string(v.max_receives) + " acks=" +
                   std::to_string(v.max_acks) + ")");
  }
  ph.wall_ns = now_ns() - t0;
  return ph;
}

/// The GhostTracker hook; traced, it times each on_apply as its own layer.
void attach_tracker(SoaEngine& e, pif::GhostTracker& tracker, LayerTrace* trace) {
  const int id = trace != nullptr ? trace->layer("pif.ghost_apply") : 0;
  e.set_apply_hook([&e, &tracker, trace, id](sim::ProcessorId p, sim::ActionId a,
                                             const pif::Config& /*before*/,
                                             const pif::State& after) {
    Scope s(trace, id);
    tracker.note_step(e.steps());
    tracker.on_apply(p, a, after);
  });
}

}  // namespace

RunResult run_engine_snap_1k(const Options& opt) {
  RunResult r;
  r.inputs.push_back("graph make_random_connected(n=1024, extra=2048, seed=42), root 0");
  r.inputs.push_back(
      "daemon central-random; fixed list of " + std::to_string(kSnapTrials) +
      " trials, trial c from the uniformly "
      "random configuration derive_seed(42, 2c) with daemon stream derive_seed(42, "
      "2c+1); whole passes starting at trial " +
      std::to_string(opt.seed % kSnapTrials) + " (seed mod " +
      std::to_string(kSnapTrials) + ")");

  Setups setups;
  EngineStack s = timed_setups(
      [&] { return build_engine(kSnapN, kSnapGraphSeed, opt.seed); }, setups);
  SoaEngine& e = *s.engine;
  pif::GhostTracker tracker(*s.graph, e.protocol().root());
  sim::CentralRandomDaemon daemon;
  attach_tracker(e, tracker, nullptr);

  const SnapPhase ph = run_snap_trials(e, tracker, daemon, opt.seed,
                                       untraced_budget_ns(opt), 0, nullptr, r);
  r.attempted = ph.trials;
  r.add_count("passes", ph.passes);
  r.add_count("trials", ph.trials);
  r.add_count("steps", ph.steps);
  r.add_count("rounds", ph.rounds);
  r.add_count("actions", ph.actions);
  r.add_count("corrections", ph.corrections);
  add_end_to_end(r, ph.trials, ph.trial_ms, ph.rounds, ph.wall_ns, setups.setup_s);

  if (opt.trace) {
    LayerTrace trace;
    TimedDaemon timed(daemon, trace);
    attach_tracker(e, tracker, &trace);
    trace.begin_phase();
    const SnapPhase tp = run_snap_trials(e, tracker, timed, opt.seed, 0,
                                         ph.passes, &trace, r);
    trace.end_phase();
    r.attempted += tp.trials;
    const std::uint64_t m0 = now_ns();
    (void)e.config();
    const double mirror_ms = ms_between(m0, now_ns());
    const double waves = static_cast<double>(tp.trials);
    const auto* ghost = trace.find("pif.ghost_apply");
    std::vector<Metric>& t = r.layer_table;
    t.push_back({"graph.generate_ms", "ms", median_of(setups.generate_ms)});
    t.push_back({"pif.engine_build_ms", "ms", median_of(setups.build_ms)});
    t.push_back({"pif.step_us", "us", self_per_call(trace, "pif.step", 1e3)});
    t.push_back({"pif.randomize_us", "us", self_per_call(trace, "pif.randomize", 1e3)});
    t.push_back({"pif.ghost_apply_ns", "ns", self_per_call(trace, "pif.ghost_apply", 1.0)});
    t.push_back({"sim.daemon_select_ns", "ns",
                 self_per_call(trace, "sim.daemon_select", 1.0)});
    t.push_back({"pif.enabled_per_step", "count",
                 static_cast<double>(tp.enabled_sum) / static_cast<double>(tp.steps)});
    t.push_back({"pif.steps_per_wave", "count", static_cast<double>(tp.steps) / waves});
    t.push_back({"pif.rounds_per_wave", "count", static_cast<double>(tp.rounds) / waves});
    t.push_back({"pif.actions_per_wave", "count", static_cast<double>(tp.actions) / waves});
    t.push_back({"pif.corrections_per_wave", "count",
                 static_cast<double>(tp.corrections) / waves});
    t.push_back({"pif.ghost_applies_per_wave", "count",
                 ghost != nullptr ? static_cast<double>(ghost->calls) / waves : 0.0});
    t.push_back({"pif.mirror_sync_ms", "ms", mirror_ms});
    add_layer_rows(r, trace, ph.wall_ns,
                   {median_of(setups.generate_ms), median_of(setups.build_ms),
                    "pif.step",
                    static_cast<double>(tp.steps) / waves,
                    static_cast<double>(tp.rounds) / waves});
    write_trace(r, opt, trace);
  }
  return r;
}

}  // namespace pifbench
