// serve_udp_lossy: mp::WaveService over real UDP sockets on the loopback
// interface, behind the ImpairmentShim (loss 0.2, dup 0.05, reorder 0.05).
//
// Shape of the E24 headline: n = 16, link window 8 with coalescing, 16
// concurrent streams (one closed-loop client each), 500 waves per stream.
// The timed phase runs whole passes; each pass builds a fresh stack
// (outside the timed window) seeded derive_seed(seed, pass).  A wave's
// latency runs from its initiation on a stream to its completion on that
// same stream: the service's wave spans, stamped with wall-clock ticks.
#include <memory>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "mp/impairment.hpp"
#include "mp/link.hpp"
#include "mp/serve.hpp"
#include "mp/udp_transport.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace pifbench {
namespace {

using snappif::graph::Graph;
namespace mp = snappif::mp;
namespace obs = snappif::obs;

constexpr snappif::graph::NodeId kServeN = 16;
constexpr std::uint64_t kServeGraphSeed = 42;
constexpr std::uint32_t kStreams = 16;
constexpr std::uint32_t kWavesPerStream = 500;
constexpr std::size_t kWindow = 8;
// E24 sizes its loop cap the same way; reaching it is a failure.
constexpr std::uint64_t kStepCap =
    std::uint64_t{kStreams} * kWavesPerStream * 4000 + 100000;

mp::LinkConfig link_config() {
  mp::LinkConfig cfg;
  cfg.rto_mode = mp::RtoMode::kAdaptive;
  cfg.window = kWindow;
  cfg.queue_capacity = 2 * kWindow;
  cfg.coalesce = true;
  cfg.rto_cap = 4;
  cfg.rto_min = 1;
  return cfg;
}

/// Service, link, impairment and UDP transport, bound bottom-up the way
/// snappif_serve and E24 bind them.  Members are destroyed in reverse order,
/// so the transport goes before the shim it drives, and so on down.
struct ServeStack {
  std::unique_ptr<Graph> graph;
  std::unique_ptr<mp::WaveService> service;
  std::unique_ptr<mp::LinkProtocol> link;
  std::unique_ptr<mp::ImpairmentShim> shim;
  std::unique_ptr<mp::UdpTransport> udp;
  double generate_ms = 0.0;
  double build_ms = 0.0;
};

ServeStack build_serve(std::uint64_t seed) {
  ServeStack s;
  const std::uint64_t t0 = now_ns();
  s.graph = std::make_unique<Graph>(snappif::graph::make_random_connected(
      kServeN, 2 * std::size_t{kServeN}, kServeGraphSeed));
  const std::uint64_t t1 = now_ns();
  mp::ServeConfig cfg;
  cfg.waves = kWavesPerStream;
  cfg.streams = kStreams;
  s.service = std::make_unique<mp::WaveService>(*s.graph, cfg);
  s.link = std::make_unique<mp::LinkProtocol>(*s.graph, *s.service, link_config(),
                                              seed ^ 0x9e3779b97f4a7c15ULL);
  s.shim = std::make_unique<mp::ImpairmentShim>(*s.link, s.graph->n(),
                                                seed ^ 0xd1b54a32d192ed03ULL);
  s.shim->set_loss_rate(0.2);
  s.shim->set_duplication_rate(0.05);
  s.shim->set_reorder_rate(0.05);
  s.udp = std::make_unique<mp::UdpTransport>(*s.graph, *s.shim, mp::UdpConfig{});
  s.shim->bind(*s.udp);
  s.generate_ms = ms_between(t0, t1);
  s.build_ms = ms_between(t1, now_ns());
  return s;
}

struct ServePhase {
  std::uint64_t passes = 0;
  std::uint64_t waves = 0;
  std::uint64_t attempted = 0;  // streams x waves per pass
  std::uint64_t steps = 0;
  std::uint64_t wall_ns = 0;  // summed over the passes' loops
  std::uint64_t idle_step_ns = 0;
  std::uint64_t transport_step_ns = 0;
  std::vector<double> wave_ms;
  mp::LinkStats link;
  mp::TransportStats impair;
  mp::TransportStats udp;
  mp::ServeStats serve;
};

void accumulate(mp::LinkStats& a, const mp::LinkStats& b) {
  a.data_sent += b.data_sent;
  a.retransmits += b.retransmits;
  a.acks_sent += b.acks_sent;
  a.delivered += b.delivered;
  a.coalesced_batches += b.coalesced_batches;
  a.coalesced_frames += b.coalesced_frames;
}

void accumulate(mp::TransportStats& a, const mp::TransportStats& b) {
  a.sent += b.sent;
  a.delivered += b.delivered;
  a.dropped += b.dropped;
  a.rx_errors += b.rx_errors;
  a.batches += b.batches;
}

/// One pass: start the stack and drive it until every stream completed
/// its waves, then check the service's counts.
void run_pass(ServeStack& s, ServePhase& ph, LayerTrace* trace, RunResult& r) {
  const int transport_id = trace != nullptr ? trace->layer("mp.transport.step") : 0;
  const int tick_id = trace != nullptr ? trace->layer("mp.link.tick") : 0;
  const int pump_id = trace != nullptr ? trace->layer("mp.serve.pump") : 0;
  const int flush_id = trace != nullptr ? trace->layer("mp.link.flush") : 0;
  obs::SpanCollector waves(std::size_t{kStreams} * kWavesPerStream + kStreams);
  s.service->set_spans(&waves);

  const std::uint64_t t0 = now_ns();
  s.service->set_tick(0);
  s.shim->start();
  std::uint64_t steps = 0;
  while (!s.service->done() && steps < kStepCap) {
    const std::uint64_t ts = now_ns();
    s.service->set_tick(ts - t0);
    bool delivered = false;
    {
      Scope scope(trace, transport_id);
      delivered = s.shim->step();
    }
    if (trace != nullptr) {
      const std::uint64_t dt = now_ns() - ts;
      ph.transport_step_ns += dt;
      if (!delivered) {
        ph.idle_step_ns += dt;
      }
    }
    {
      Scope scope(trace, tick_id);
      s.link->tick();
    }
    {
      Scope scope(trace, pump_id);
      s.service->pump(*s.link);
    }
    {
      Scope scope(trace, flush_id);
      s.link->flush();
    }
    ++steps;
  }
  ph.wall_ns += now_ns() - t0;
  ph.steps += steps;
  ++ph.passes;

  const mp::ServeStats& st = s.service->stats();
  const std::uint64_t expect_waves = std::uint64_t{kStreams} * kWavesPerStream;
  // The pass's waves are verified together: if any check fails, every wave
  // of the pass counts as failed.
  bool ok = r.check(s.service->done(), "serve_udp_lossy: pass " +
                                           std::to_string(ph.passes) +
                                           " hit the step cap");
  ok &= r.check(st.waves_completed == expect_waves,
                "serve_udp_lossy: waves_completed != streams x waves");
  ok &= r.check(st.joins == expect_waves * kServeN,
                "serve_udp_lossy: joins != streams x waves x n");
  ok &= r.check(s.udp->transport_stats().rx_errors == 0,
                "serve_udp_lossy: rx_errors != 0");
  if (!ok) {
    r.failed += expect_waves;
  }
  for (const obs::Span& sp : waves.spans()) {
    if (sp.kind == obs::SpanKind::kWave && sp.end > sp.begin) {
      ph.wave_ms.push_back(static_cast<double>(sp.end - sp.begin) / 1e6);
    }
  }
  r.check(waves.dropped() == 0, "serve_udp_lossy: wave spans overflowed");
  ph.waves += st.waves_completed;
  ph.attempted += expect_waves;
  accumulate(ph.link, s.link->stats());
  accumulate(ph.impair, s.shim->transport_stats());
  accumulate(ph.udp, s.udp->transport_stats());
  ph.serve.deferrals += st.deferrals;
  s.service->set_spans(nullptr);
}

/// Whole passes until `budget_ns` of loop time has passed or, when
/// max_passes != 0, exactly max_passes passes.
ServePhase run_passes(std::uint64_t seed, std::uint64_t budget_ns,
                      std::uint64_t max_passes, LayerTrace* trace, RunResult& r) {
  ServePhase ph;
  for (std::uint64_t k = 0;; ++k) {
    if (max_passes != 0 ? k >= max_passes : (k > 0 && ph.wall_ns >= budget_ns)) {
      break;
    }
    ServeStack s = build_serve(derive_seed(seed, k));
    run_pass(s, ph, trace, r);
  }
  return ph;
}

}  // namespace

RunResult run_serve_udp_lossy(const Options& opt) {
  RunResult r;
  r.inputs.push_back("graph make_random_connected(n=16, extra=32, seed=42)");
  r.inputs.push_back(
      "WaveService streams=16 waves/stream=500 over UdpTransport (127.0.0.1) "
      "behind ImpairmentShim loss=0.2 dup=0.05 reorder=0.05; link window=8 "
      "coalesce adaptive RTO; pass k seeded derive_seed(" +
      std::to_string(opt.seed) + ", k)");

  // Set-up stacks are seeded apart from the passes' and closed before the
  // timed phase opens its own.
  Setups setups;
  std::uint64_t built = 0;
  (void)timed_setups([&] { return build_serve(derive_seed(opt.seed, 1000 + built++)); },
                     setups);

  const ServePhase ph = run_passes(opt.seed, untraced_budget_ns(opt), 0, nullptr, r);
  r.attempted = ph.attempted;
  r.add_count("passes", ph.passes);
  r.add_count("waves", ph.waves);
  r.add_count("loop_steps", ph.steps);
  r.add_count("link.data_sent", ph.link.data_sent);
  r.add_count("link.retransmits", ph.link.retransmits);
  r.add_count("link.acks_sent", ph.link.acks_sent);
  r.add_count("link.delivered", ph.link.delivered);
  r.add_count("impair.dropped", ph.impair.dropped);
  r.add_count("udp.frames_sent", ph.udp.sent);
  r.add_count("udp.datagram_batches", ph.udp.batches);
  r.add_count("udp.rx_errors", ph.udp.rx_errors);
  add_end_to_end(r, ph.waves, ph.wave_ms, ph.steps, ph.wall_ns, setups.setup_s);

  if (opt.trace) {
    LayerTrace trace;
    trace.begin_phase();
    const ServePhase tp = run_passes(opt.seed, 0, ph.passes, &trace, r);
    trace.end_phase();
    r.attempted += tp.attempted;
    const double waves = static_cast<double>(tp.waves);
    const mp::LinkStats& l = tp.link;
    std::vector<Metric>& t = r.layer_table;
    t.push_back({"graph.generate_ms", "ms", median_of(setups.generate_ms)});
    t.push_back({"mp.serve.build_ms", "ms", median_of(setups.build_ms)});
    t.push_back({"mp.transport.step_us", "us",
                 self_per_call(trace, "mp.transport.step", 1e3)});
    t.push_back({"mp.transport.idle_step_ratio", "ratio",
                 static_cast<double>(tp.idle_step_ns) /
                     static_cast<double>(tp.transport_step_ns)});
    t.push_back({"mp.link.tick_us", "us", self_per_call(trace, "mp.link.tick", 1e3)});
    t.push_back({"mp.link.flush_us", "us", self_per_call(trace, "mp.link.flush", 1e3)});
    t.push_back({"mp.serve.pump_us", "us", self_per_call(trace, "mp.serve.pump", 1e3)});
    t.push_back({"mp.serve.steps_per_wave", "count", static_cast<double>(tp.steps) / waves});
    t.push_back({"mp.serve.deferrals_per_wave", "count",
                 static_cast<double>(tp.serve.deferrals) / waves});
    t.push_back({"mp.link.frames_per_wave", "count",
                 static_cast<double>(l.data_sent + l.retransmits + l.acks_sent) / waves});
    t.push_back({"mp.link.useful_ratio", "ratio",
                 static_cast<double>(l.delivered) /
                     static_cast<double>(l.data_sent + l.retransmits)});
    t.push_back({"mp.link.retransmits_per_wave", "count",
                 static_cast<double>(l.retransmits) / waves});
    t.push_back({"mp.link.frames_per_batch", "count",
                 static_cast<double>(l.coalesced_frames) /
                     static_cast<double>(l.coalesced_batches)});
    t.push_back({"mp.impair.dropped_per_wave", "count",
                 static_cast<double>(tp.impair.dropped) / waves});
    t.push_back({"mp.udp.frames_per_wave", "count", static_cast<double>(tp.udp.sent) / waves});
    t.push_back({"mp.udp.batches_per_wave", "count",
                 static_cast<double>(tp.udp.batches) / waves});
    const double steps_per_wave = static_cast<double>(tp.steps) / waves;
    add_layer_rows(r, trace, ph.wall_ns,
                   {median_of(setups.generate_ms), median_of(setups.build_ms),
                    "mp.transport.step",
                    steps_per_wave, steps_per_wave});
    write_trace(r, opt, trace);
  }
  return r;
}

}  // namespace pifbench
