// Independent oracles of the benchmark, kept free of the repository's code so
// that a fault in the libraries under test cannot hide in the check:
//
//   * bfs_eccentricity: the root's eccentricity from a plain BFS over the
//     adjacency list (Theorem 4 bounds a cycle by 5h+5 rounds);
//   * summarize: the latency rule — the median, and the tail as the highest
//     percentile of a fixed ladder with at least ten samples beyond it,
//     reported only from forty samples on.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace pifbench {

/// Eccentricity of `source` in a connected graph; G needs n() and
/// neighbors(v) iterable over vertex ids.  Returns UINT32_MAX when some
/// vertex is unreachable.
template <typename G>
std::uint32_t bfs_eccentricity(const G& g, std::uint32_t source) {
  const std::size_t n = g.n();
  constexpr std::uint32_t kUnseen = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> dist(n, kUnseen);
  std::vector<std::uint32_t> queue;
  queue.reserve(n);
  dist[source] = 0;
  queue.push_back(source);
  std::uint32_t ecc = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::uint32_t v = queue[head];
    ecc = std::max(ecc, dist[v]);
    for (const auto w : g.neighbors(v)) {
      if (dist[w] == kUnseen) {
        dist[w] = dist[v] + 1;
        queue.push_back(w);
      }
    }
  }
  return queue.size() == n ? ecc : kUnseen;
}

/// Linear-interpolation quantile of sorted values, q in [0, 1].
inline double sorted_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

/// Percentiles a tail may be reported at, highest last.
inline constexpr double kTailLadder[] = {75.0, 90.0, 95.0, 99.0,
                                         99.5, 99.9, 99.95, 99.99};
/// Fewest samples beyond a reported tail percentile.
inline constexpr std::size_t kTailBeyond = 10;
/// Below this many samples only the median is reported.
inline constexpr std::size_t kTailMinSamples = 40;

/// Samples strictly beyond percentile `pct` of `count` samples: the
/// floor((1 - pct/100) * count) largest ones.
inline std::size_t samples_beyond(std::size_t count, double pct) {
  // Integer arithmetic on hundredths of a percent keeps 99.9 exact.
  const auto hundredths = static_cast<std::uint64_t>(std::llround(pct * 100.0));
  return static_cast<std::size_t>((10000 - hundredths) * count / 10000);
}

struct LatencySummary {
  std::size_t count = 0;
  double p50 = 0.0;
  bool has_tail = false;
  double tail_pct = 0.0;  // which percentile `tail` is
  double tail = 0.0;
};

inline LatencySummary summarize(std::vector<double> values) {
  LatencySummary s;
  s.count = values.size();
  if (values.empty()) {
    return s;
  }
  std::sort(values.begin(), values.end());
  s.p50 = sorted_quantile(values, 0.5);
  if (values.size() < kTailMinSamples) {
    return s;
  }
  for (const double pct : kTailLadder) {
    if (samples_beyond(values.size(), pct) >= kTailBeyond) {
      s.has_tail = true;
      s.tail_pct = pct;
      s.tail = sorted_quantile(values, pct / 100.0);
    }
  }
  return s;
}

}  // namespace pifbench
