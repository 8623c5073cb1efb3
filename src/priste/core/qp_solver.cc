#include "priste/core/qp_solver.h"

#include <algorithm>
#include <vector>

#include "priste/common/check.h"
#include "priste/common/metrics.h"
#include "priste/linalg/kernels.h"

namespace priste::core {
namespace {

// Process-wide solver accounting (read via `priste_cli --metrics` and the
// experiment summaries). Observability only — never read back into the
// enumeration, so determinism is untouched.
void RecordQpMetrics(const QpSolver::Result& result) {
  static Counter& calls = MetricsRegistry::Global().GetCounter("qp.maximizations");
  static Counter& timeouts = MetricsRegistry::Global().GetCounter("qp.timeouts");
  calls.Increment();
  if (result.timed_out) timeouts.Increment();
}

}  // namespace

QpSolver::Result QpSolver::Maximize(const Objective& objective,
                                    const Deadline& deadline) const {
  const size_t n = objective.a.size();
  PRISTE_CHECK(n > 0);
  PRISTE_CHECK(objective.d.size() == n && objective.l.size() == n);

  // Enumeration coordinates: the joint support of (a, d, l) plus the lowest
  // off-support index, which stands for every zero-coefficient coordinate.
  // Kept in index order, so "lowest (i, j)" means the same thing here as in
  // the full n coordinates.
  std::vector<size_t> index;
  std::vector<double> a, d, l;
  index.reserve(n);
  a.reserve(n);
  d.reserve(n);
  l.reserve(n);
  bool have_slack = false;
  for (size_t i = 0; i < n; ++i) {
    const bool live = objective.a[i] != 0.0 || objective.d[i] != 0.0 ||
                      objective.l[i] != 0.0;
    if (!live && have_slack) continue;
    have_slack = have_slack || !live;
    index.push_back(i);
    a.push_back(objective.a[i]);
    d.push_back(objective.d[i]);
    l.push_back(objective.l[i]);
  }
  const size_t k = index.size();

  // Vertices first: a feasible incumbent exists before the first deadline
  // poll.
  size_t best_i = 0;
  size_t best_j = 0;
  double best_lambda = 1.0;
  double best = a[0] * d[0] + l[0];
  for (size_t i = 1; i < k; ++i) {
    const double v = a[i] * d[i] + l[i];
    if (v > best) {
      best = v;
      best_i = best_j = i;
    }
  }

  // Edge interiors: on π = λe_i + (1−λ)e_j, f = Aλ² + Bλ + C. Only a concave
  // edge (A < 0) whose stationary point λ* = −B/(2A) lies in (0, 1) can beat
  // its endpoints (kernels::ConcaveEdgeInterior). EdgeScan skips, four
  // edges at a time, every block in which no edge beats the incumbent; the
  // scalar body then walks the block it stops at, updating `best` edge by
  // edge in ascending j exactly as a full scalar sweep would (qp_solver.h).
  Result result;
  for (size_t i = 0; i + 1 < k; ++i) {
    if (deadline.Expired()) {
      result.timed_out = true;
      break;
    }
    for (size_t j = i + 1; j < k;) {
      j = linalg::kernels::EdgeScan(a.data(), d.data(), l.data(), i, j, k,
                                    best);
      const size_t block_end = std::min(j + 4, k);
      for (; j < block_end; ++j) {
        double lambda, v;
        if (linalg::kernels::ConcaveEdgeInterior(a.data(), d.data(), l.data(),
                                                 i, j, &lambda, &v) &&
            v > best) {
          best = v;
          best_i = i;
          best_j = j;
          best_lambda = lambda;
        }
      }
    }
  }

  result.max_value = best;
  result.argmax = linalg::Vector(n);
  result.argmax[index[best_i]] = best_lambda;
  if (best_j != best_i) result.argmax[index[best_j]] = 1.0 - best_lambda;
  RecordQpMetrics(result);
  return result;
}

}  // namespace priste::core
