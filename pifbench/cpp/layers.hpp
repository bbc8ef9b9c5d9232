// Layer spans for the traced run.
//
// The benchmark wraps each call it makes into a layer (pif.step,
// mp.emu.round, mp.transport.step, ...) in a Scope.  LayerTrace keeps a
// stack of open spans and accumulates, per layer, the call count, the span
// time and the time covered by child spans, so a layer's self time is its
// span time minus its children's.  The first `record_cap` spans are also
// recorded into an obs::SpanCollector and exported as a Chrome trace (span
// timestamps are nanoseconds since the traced phase began).
//
// A null LayerTrace* makes every Scope a no-op: the untraced run pays one
// predictable branch per call site.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace pifbench {

namespace obs = snappif::obs;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

class LayerTrace {
 public:
  struct Layer {
    std::string name;
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;  // span time
    std::uint64_t child_ns = 0;  // part of it covered by child spans
    std::uint64_t top_ns = 0;    // span time while no other span was open
    [[nodiscard]] std::uint64_t self_ns() const { return total_ns - child_ns; }
  };

  explicit LayerTrace(std::size_t record_cap = 100000);

  /// Registers a layer name (idempotent) and returns its id.
  int layer(const std::string& name);

  void enter(int id);
  void leave();

  /// Brackets the traced phase; its wall time is what the top-level spans
  /// must cover.  Spans are recorded only inside it, so a layer wired to the
  /// trace from construction (a timing codec) stays silent outside.
  void begin_phase();
  void end_phase();
  [[nodiscard]] std::uint64_t phase_ns() const { return phase_end_ - phase_begin_; }
  /// Span time of top-level spans (no enclosing span) across all layers.
  [[nodiscard]] std::uint64_t top_level_ns() const;

  [[nodiscard]] const std::vector<Layer>& layers() const { return layers_; }
  [[nodiscard]] const Layer* find(const std::string& name) const;

  /// Writes the recorded spans as a Chrome trace; false on I/O failure.
  [[nodiscard]] bool write_chrome_trace(const std::string& path) const;
  [[nodiscard]] std::uint64_t spans_recorded() const { return recorded_; }

 private:
  struct Open {
    int id;
    std::uint64_t begin;
    std::uint64_t child_ns;
    obs::SpanId span;
  };

  std::vector<Layer> layers_;
  std::vector<Open> stack_;
  obs::SpanCollector spans_;
  std::size_t record_cap_;
  std::uint64_t recorded_ = 0;
  std::uint64_t phase_begin_ = 0;
  std::uint64_t phase_end_ = 0;
  bool active_ = false;
};

/// RAII span; no-op when `trace` is null.
class Scope {
 public:
  Scope(LayerTrace* trace, int id) : trace_(trace) {
    if (trace_ != nullptr) {
      trace_->enter(id);
    }
  }
  ~Scope() {
    if (trace_ != nullptr) {
      trace_->leave();
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  LayerTrace* trace_;
};

}  // namespace pifbench
