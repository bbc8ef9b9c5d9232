#include "layers.hpp"

#include "obs/export.hpp"

namespace pifbench {

LayerTrace::LayerTrace(std::size_t record_cap)
    : spans_(record_cap == 0 ? 1 : record_cap), record_cap_(record_cap) {}

int LayerTrace::layer(const std::string& name) {
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (layers_[i].name == name) {
      return static_cast<int>(i);
    }
  }
  layers_.push_back(Layer{name});
  return static_cast<int>(layers_.size() - 1);
}

void LayerTrace::enter(int id) {
  if (!active_) {
    return;
  }
  const std::uint64_t t = now_ns();
  obs::SpanId span = 0;
  if (recorded_ < record_cap_) {
    const obs::SpanId parent = stack_.empty() ? 0 : stack_.back().span;
    span = spans_.open(obs::SpanKind::kMark, t - phase_begin_, 0, parent, 0,
                       layers_[static_cast<std::size_t>(id)].name);
    ++recorded_;
  }
  stack_.push_back(Open{id, t, 0, span});
}

void LayerTrace::leave() {
  if (!active_) {
    return;
  }
  const std::uint64_t t = now_ns();
  const Open open = stack_.back();
  stack_.pop_back();
  const std::uint64_t dur = t - open.begin;
  Layer& l = layers_[static_cast<std::size_t>(open.id)];
  ++l.calls;
  l.total_ns += dur;
  l.child_ns += open.child_ns;
  if (stack_.empty()) {
    l.top_ns += dur;
  } else {
    stack_.back().child_ns += dur;
  }
  if (open.span != 0) {
    spans_.close(open.span, t - phase_begin_);
  }
}

void LayerTrace::begin_phase() {
  active_ = true;
  phase_begin_ = now_ns();
}

void LayerTrace::end_phase() {
  phase_end_ = now_ns();
  active_ = false;
}

std::uint64_t LayerTrace::top_level_ns() const {
  std::uint64_t sum = 0;
  for (const Layer& l : layers_) {
    sum += l.top_ns;
  }
  return sum;
}

const LayerTrace::Layer* LayerTrace::find(const std::string& name) const {
  for (const Layer& l : layers_) {
    if (l.name == name) {
      return &l;
    }
  }
  return nullptr;
}

bool LayerTrace::write_chrome_trace(const std::string& path) const {
  obs::EventLog log(spans_.size() + 1);
  for (const obs::Span& s : spans_.spans()) {
    obs::TraceEvent ev = obs::span_to_event(s);
    ev.name = s.detail;  // the layer, rather than the generic "mark" kind
    ev.cat = "pifbench";
    log.emit(std::move(ev));
  }
  return log.write_chrome_trace(path);
}

}  // namespace pifbench
