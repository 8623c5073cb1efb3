#include "verify.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "priste/common/strings.h"
#include "priste/core/quantifier.h"
#include "priste/core/release_step.h"
#include "priste/hmm/forward_backward.h"
#include "priste/lppm/delta_location_set.h"

namespace priste::e2e {

namespace {

// max_i |x_i − ref_i| relative to max_i |ref_i|.
double RelativeGap(const linalg::Vector& x, const linalg::Vector& ref) {
  double gap = 0.0;
  for (size_t i = 0; i < ref.size(); ++i) {
    gap = std::max(gap, std::abs(x[i] - ref[i]));
  }
  const double scale = ref.MaxAbs();
  return scale > 0.0 ? gap / scale : gap;
}

// The emission columns the Run committed, rebuilt from its released cells
// and budgets through the public mechanism calls. Empty `failure` on
// success.
std::vector<linalg::Vector> CommittedColumns(const Bench& bench,
                                             const core::RunResult& run,
                                             std::string& failure) {
  std::vector<linalg::Vector> columns;
  linalg::Vector posterior = bench.chain.initial();
  for (const core::StepRecord& step : run.steps) {
    if (bench.spec.delta_loc) {
      const linalg::Vector predicted =
          bench.chain.transition().Propagate(posterior);
      StatusOr<geo::Region> location_set =
          lppm::DeltaLocationSet(predicted, bench.spec.delta);
      if (!location_set.ok()) {
        failure = "delta-location set: " + location_set.status().ToString();
        return {};
      }
      const lppm::DeltaRestrictedPlanarLaplace mech(
          bench.grid, step.released_alpha, *location_set);
      columns.push_back(mech.emission().EmissionColumn(step.released_cell));
      StatusOr<linalg::Vector> updated =
          hmm::PosteriorUpdate(predicted, columns.back());
      if (!updated.ok()) {
        failure = "posterior update: " + updated.status().ToString();
        return {};
      }
      posterior = *std::move(updated);
    } else {
      columns.push_back(bench.family->Instantiate(step.released_alpha)
                            ->emission()
                            .EmissionColumn(step.released_cell));
    }
    if (!(columns.back()[static_cast<size_t>(step.true_cell)] > 0.0)) {
      failure = StrFormat("t=%d: released cell %d has probability 0 from true cell %d",
                          step.t, step.released_cell, step.true_cell);
      return {};
    }
  }
  return columns;
}

// Largest Eq. (15)/(16) left-hand side over the vertices, the uniform prior
// and kRandomPriors seeded simplex draws, on (b̄, c̄) rescaled to
// max|c̄| = 1.
double WorstCondition(core::TheoremVectors v, double epsilon, Rng& rng) {
  const double scale = v.c_bar.MaxAbs();
  if (scale > 0.0) {
    v.b_bar.ScaleInPlace(1.0 / scale);
    v.c_bar.ScaleInPlace(1.0 / scale);
  }
  const size_t m = v.a_bar.size();
  double worst = -1e300;
  const auto at = [&](const linalg::Vector& pi) {
    worst = std::max({worst, core::PrivacyQuantifier::Condition15(v, pi, epsilon),
                      core::PrivacyQuantifier::Condition16(v, pi, epsilon)});
  };
  for (size_t i = 0; i < m; ++i) at(linalg::Vector::Unit(m, i));
  at(linalg::Vector(m, 1.0 / static_cast<double>(m)));
  for (int k = 0; k < kRandomPriors; ++k) {
    linalg::Vector pi(m);
    double total = 0.0;
    for (size_t i = 0; i < m; ++i) {
      pi[i] = rng.NextExponential(1.0);
      total += pi[i];
    }
    pi.ScaleInPlace(1.0 / total);
    at(pi);
  }
  return worst;
}

}  // namespace

VerifyOutcome VerifyRun(const Bench& bench, const RunInput& input,
                        const Result<core::RunResult>& result,
                        uint64_t oracle_seed) {
  VerifyOutcome out;
  if (!result.ok()) {
    out.failure = "Run returned " + result.error().ToString();
    return out;
  }
  const core::RunResult& run = *result;
  const int horizon = input.truth.length();
  if (static_cast<int>(run.steps.size()) != horizon ||
      run.released.length() != horizon) {
    out.failure = StrFormat("released %d cells for T=%d",
                            run.released.length(), horizon);
    return out;
  }
  for (int t = 1; t <= horizon; ++t) {
    const core::StepRecord& step = run.steps[static_cast<size_t>(t - 1)];
    if (step.t != t || step.true_cell != input.truth.At(t) ||
        !bench.grid.ContainsCell(step.released_cell) ||
        run.released.At(t) != step.released_cell) {
      out.failure = StrFormat("t=%d: step record does not match the input "
                              "or leaves the grid (released cell %d)",
                              t, step.released_cell);
      return out;
    }
    if (step.released_alpha != 0.0 &&
        std::find(bench.ladder.begin(), bench.ladder.end(),
                  step.released_alpha) == bench.ladder.end()) {
      out.failure = StrFormat("t=%d: released budget %.17g is no ladder rung",
                              t, step.released_alpha);
      return out;
    }
  }

  const std::vector<linalg::Vector> columns =
      CommittedColumns(bench, run, out.failure);
  if (!out.passed()) return out;

  // A fresh engine, fed the committed columns, against a fresh cold
  // quantifier per prefix.
  const core::QpSolver solver(bench.options.qp);
  std::vector<const core::LiftedEventModel*> raw;
  for (const auto& model : bench.models) raw.push_back(model.get());
  core::ReleaseStepContext context(raw, &solver,
                                   bench.options.normalize_emissions,
                                   bench.options.release);
  context.SetHorizonHint(horizon);
  std::vector<linalg::Vector> prefix;
  for (int t = 1; t <= horizon; ++t) {
    const linalg::Vector& column = columns[static_cast<size_t>(t - 1)];
    prefix.push_back(column);
    const bool certified = run.steps[static_cast<size_t>(t - 1)].released_alpha > 0.0;
    if (certified) ++out.certified_steps;
    bool refuted = false;
    for (size_t j = 0; j < raw.size(); ++j) {
      const core::TheoremVectors engine = context.CandidateVectors(j, column);
      const core::TheoremVectors cold =
          core::PrivacyQuantifier(raw[j], bench.options.normalize_emissions)
              .ComputeVectors(prefix);
      out.vector_drift_max = std::max(
          {out.vector_drift_max, RelativeGap(engine.a_bar, cold.a_bar),
           RelativeGap(engine.b_bar, cold.b_bar),
           RelativeGap(engine.c_bar, cold.c_bar)});
      if (!certified) continue;
      Rng rng(MixSeed(oracle_seed, static_cast<uint64_t>(t), j + 1));
      const double worst = WorstCondition(cold, bench.options.epsilon, rng);
      out.worst_condition = std::max(out.worst_condition, worst);
      if (worst > kOracleTol) {
        refuted = true;
        if (out.passed()) {
          out.failure = StrFormat(
              "t=%d: oracle refuted the certified release (condition %.3g > "
              "tol %.0e)", t, worst, kOracleTol);
        }
      }
    }
    if (refuted) ++out.refuted_steps;
    context.Commit(column);
  }
  return out;
}

}  // namespace priste::e2e
