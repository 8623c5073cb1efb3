#include "priste/core/qp_solver.h"

#include <vector>

#include "priste/common/check.h"
#include "priste/common/metrics.h"

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
  // its endpoints; with A < 0 that range test is 0 < B < −2A, checked before
  // the division.
  Result result;
  for (size_t i = 0; i + 1 < k; ++i) {
    if (deadline.Expired()) {
      result.timed_out = true;
      break;
    }
    for (size_t j = i + 1; j < k; ++j) {
      const double da = a[i] - a[j];
      const double dd = d[i] - d[j];
      const double curvature = da * dd;
      const double slope = a[j] * dd + d[j] * da + (l[i] - l[j]);
      if (!(curvature < 0.0 && slope > 0.0 && slope < -2.0 * curvature)) {
        continue;
      }
      const double lambda = -slope / (2.0 * curvature);
      const double mu = 1.0 - lambda;
      const double v = (lambda * a[i] + mu * a[j]) * (lambda * d[i] + mu * d[j]) +
                       (lambda * l[i] + mu * l[j]);
      if (v > best) {
        best = v;
        best_i = i;
        best_j = j;
        best_lambda = lambda;
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
