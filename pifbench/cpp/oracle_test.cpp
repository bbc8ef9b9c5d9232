// Small cases for the benchmark's own oracles (oracle.hpp) and for how a run
// counts failed operations (report.hpp).  Plain checks
// that stay active in every build type; exits non-zero on the first failure.
//
//   pifbench_selftest   (python3 pifbench/run.py --selftest builds and runs it)
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <utility>
#include <vector>

#include "oracle.hpp"
#include "report.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

struct AdjGraph {
  std::vector<std::vector<std::uint32_t>> adj;
  [[nodiscard]] std::size_t n() const { return adj.size(); }
  [[nodiscard]] const std::vector<std::uint32_t>& neighbors(std::uint32_t v) const {
    return adj[v];
  }
};

AdjGraph from_edges(std::size_t n,
                    std::initializer_list<std::pair<std::uint32_t, std::uint32_t>> edges) {
  AdjGraph g;
  g.adj.resize(n);
  for (const auto& [u, v] : edges) {
    g.adj[u].push_back(v);
    g.adj[v].push_back(u);
  }
  return g;
}

std::vector<double> ramp(std::size_t count) {
  std::vector<double> v;
  for (std::size_t i = count; i > 0; --i) {  // descending: summarize sorts
    v.push_back(static_cast<double>(i));
  }
  return v;
}

void test_eccentricity() {
  const AdjGraph single = from_edges(1, {});
  check(pifbench::bfs_eccentricity(single, 0) == 0, "single vertex has ecc 0");

  const AdjGraph path = from_edges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  check(pifbench::bfs_eccentricity(path, 0) == 4, "path end has ecc n-1");
  check(pifbench::bfs_eccentricity(path, 2) == 2, "path middle has ecc 2");

  const AdjGraph star = from_edges(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  check(pifbench::bfs_eccentricity(star, 0) == 1, "star centre has ecc 1");
  check(pifbench::bfs_eccentricity(star, 3) == 2, "star leaf has ecc 2");

  const AdjGraph ring = from_edges(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}});
  check(pifbench::bfs_eccentricity(ring, 0) == 3, "6-ring has ecc 3");

  // A chord shortens the far side: 0-3 makes every vertex of the 6-ring
  // within 2 of vertex 0.
  const AdjGraph chord =
      from_edges(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}});
  check(pifbench::bfs_eccentricity(chord, 0) == 2, "chord shortens ecc to 2");

  const AdjGraph split = from_edges(4, {{0, 1}, {2, 3}});
  check(pifbench::bfs_eccentricity(split, 0) == 0xffffffffu,
        "disconnected graph reports unreachable");
}

void test_summary() {
  const auto empty = pifbench::summarize({});
  check(empty.count == 0 && !empty.has_tail, "empty sample has no tail");

  const auto odd = pifbench::summarize({3.0, 1.0, 2.0});
  check(near(odd.p50, 2.0) && !odd.has_tail, "median of three, no tail");

  const auto even = pifbench::summarize({4.0, 1.0, 3.0, 2.0});
  check(near(even.p50, 2.5), "median of four interpolates");

  const auto few = pifbench::summarize(ramp(39));
  check(!few.has_tail && near(few.p50, 20.0), "39 samples: median only");

  const auto forty = pifbench::summarize(ramp(40));
  check(forty.has_tail && forty.tail_pct == 75.0, "40 samples: p75 tail");
  check(near(forty.tail, 1.0 + 0.75 * 39.0), "p75 of 1..40 interpolates");

  const auto hundred = pifbench::summarize(ramp(100));
  check(hundred.has_tail && hundred.tail_pct == 90.0, "100 samples: p90");

  const auto short_of_p99 = pifbench::summarize(ramp(999));
  check(short_of_p99.tail_pct == 95.0, "999 samples: p99 has only 9 beyond");

  const auto thousand = pifbench::summarize(ramp(1000));
  check(thousand.tail_pct == 99.0, "1000 samples: p99");

  const auto big = pifbench::summarize(ramp(20000));
  check(big.tail_pct == 99.95, "20000 samples: p99.95");

  check(pifbench::samples_beyond(10000, 99.9) == 10, "p99.9 of 10000 leaves 10");
  check(pifbench::samples_beyond(9999, 99.9) == 9, "p99.9 of 9999 leaves 9");
}

void test_operation_counts() {
  pifbench::RunResult r;
  r.attempted = 4;
  check(r.check_op(true, "held"), "a held operation check returns true");
  check(r.failed == 0 && r.violations.empty(), "a held check counts nothing");

  check(!r.check_op(false, "broken"), "a failed operation check returns false");
  check(r.failed == 1 && r.violations.size() == 1, "a failed operation counts once");

  check(!r.check(false, "run property"), "a failed run check returns false");
  check(r.failed == 1 && r.violations.size() == 2,
        "a failed run check makes the run incorrect without counting an operation");

  pifbench::RunResult known;
  check(!known.check_known_fault(false, "known"), "a known fault returns false");
  check(known.failed == 1 && known.violations.empty() && known.known_faults.size() == 1,
        "a known fault counts in failed and leaves the run correct");
  check(known.check_known_fault(true, "fixed"), "a mended known fault returns true");
  check(known.failed == 1, "a mended known fault counts nothing");
}

}  // namespace

int main() {
  test_eccentricity();
  test_summary();
  test_operation_counts();
  if (failures != 0) {
    std::fprintf(stderr, "%d oracle check(s) failed\n", failures);
    return 1;
  }
  std::printf("pifbench oracles: all checks passed\n");
  return 0;
}
