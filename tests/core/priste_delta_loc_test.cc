#include "priste/core/priste_delta_loc.h"

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "priste/common/metrics.h"
#include "priste/core/joint.h"
#include "priste/core/release_step.h"
#include "priste/event/presence.h"
#include "priste/geo/gaussian_grid_model.h"
#include "priste/hmm/forward_backward.h"
#include "priste/lppm/delta_location_set.h"
#include "testing/test_util.h"

namespace priste::core {
namespace {

using event::PresenceEvent;

PristeOptions FastOptions(double epsilon, double alpha) {
  PristeOptions options;
  options.epsilon = epsilon;
  options.initial_alpha = alpha;
  options.qp_threshold_seconds = 5.0;
  return options;
}

struct Scenario {
  geo::Grid grid{4, 4, 1.0};
  geo::GaussianGridModel model{geo::Grid(4, 4, 1.0), 1.0};
  event::EventPtr ev = std::make_shared<PresenceEvent>(
      geo::Region(16, {0, 1, 4, 5}), 3, 4);
  linalg::Vector pi = linalg::Vector::UniformProbability(16);
};

TEST(PristeDeltaLocTest, RunCompletes) {
  const Scenario s;
  const PristeDeltaLoc priste(s.grid, s.model.transition(), {s.ev}, 0.2, s.pi,
                              FastOptions(0.5, 0.3));
  Rng rng(3);
  const markov::MarkovChain chain(s.model.transition(), s.pi);
  const geo::Trajectory truth(chain.Sample(6, rng));
  const auto result = priste.Run(truth, rng);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->released.length(), 6);
}

TEST(PristeDeltaLocTest, ReleasesTrackDeltaLocationSets) {
  // Re-simulate the δ-location-set state machine from the step records and
  // verify every released cell was inside the timestamp's ΔX_t.
  const Scenario s;
  const double delta = 0.3;
  const PristeDeltaLoc priste(s.grid, s.model.transition(), {s.ev}, delta, s.pi,
                              FastOptions(0.8, 0.3));
  Rng rng(5);
  const markov::MarkovChain chain(s.model.transition(), s.pi);
  const geo::Trajectory truth(chain.Sample(6, rng));
  const auto result = priste.Run(truth, rng);
  ASSERT_TRUE(result.ok());

  linalg::Vector posterior = s.pi;
  for (const auto& step : result->steps) {
    const linalg::Vector predicted = markov::TransitionMatrix(s.model.transition())
                                         .Propagate(posterior);
    const auto set = lppm::DeltaLocationSet(predicted, delta);
    ASSERT_TRUE(set.ok());
    EXPECT_TRUE(set->Contains(step.released_cell)) << "t=" << step.t;
    const lppm::DeltaRestrictedPlanarLaplace mech(s.grid, step.released_alpha, *set);
    const auto updated = hmm::PosteriorUpdate(
        predicted, mech.emission().EmissionColumn(step.released_cell));
    ASSERT_TRUE(updated.ok());
    posterior = *updated;
  }
}

TEST(PristeDeltaLocTest, ReleasedSequenceSatisfiesPrivacyBound) {
  const Scenario s;
  const double delta = 0.3;
  const double epsilon = 0.8;
  const PristeDeltaLoc priste(s.grid, s.model.transition(), {s.ev}, delta, s.pi,
                              FastOptions(epsilon, 0.3));
  Rng rng(7);
  const markov::MarkovChain chain(s.model.transition(), s.pi);
  const geo::Trajectory truth(chain.Sample(6, rng));
  const auto result = priste.Run(truth, rng);
  ASSERT_TRUE(result.ok());

  // Rebuild the released emission columns (deterministic re-simulation).
  std::vector<linalg::Vector> columns;
  linalg::Vector posterior = s.pi;
  const markov::TransitionMatrix transition = s.model.transition();
  for (const auto& step : result->steps) {
    const linalg::Vector predicted = transition.Propagate(posterior);
    const auto set = lppm::DeltaLocationSet(predicted, delta);
    ASSERT_TRUE(set.ok());
    const lppm::DeltaRestrictedPlanarLaplace mech(s.grid, step.released_alpha, *set);
    columns.push_back(mech.emission().EmissionColumn(step.released_cell));
    const auto updated = hmm::PosteriorUpdate(predicted, columns.back());
    ASSERT_TRUE(updated.ok());
    posterior = *updated;
  }

  const TwoWorldModel model(transition, s.ev);
  Rng prior_rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const linalg::Vector pi = testing::RandomProbability(16, prior_rng);
    JointCalculator calc(&model, pi);
    for (size_t i = 0; i < columns.size(); ++i) {
      calc.Push(columns[i]);
      // Uniform-over-ΔX fallbacks (α = 0) are released without a certified
      // check (Algorithm 3's anchor), so only assert on certified steps.
      if (result->steps[i].released_alpha > 0.0) {
        EXPECT_LE(calc.LikelihoodRatio(), std::exp(epsilon) * (1.0 + 1e-6))
            << "t=" << i + 1;
        EXPECT_GE(calc.LikelihoodRatio(), std::exp(-epsilon) * (1.0 - 1e-6))
            << "t=" << i + 1;
      }
    }
  }
}

TEST(PristeDeltaLocTest, AnchorCommitsAreCountedUncertified) {
  // A tight ε and a short ladder (0.3, 0.15, then α = 0) push steps onto
  // the uniform-over-ΔX anchor, which commits without a Theorem IV.1 check:
  // every such step must show up in release.uncertified_commits.
  const Scenario s;
  PristeOptions options = FastOptions(0.05, 0.3);
  options.min_alpha = 0.1;
  const PristeDeltaLoc priste(s.grid, s.model.transition(), {s.ev}, 0.2, s.pi,
                              options);
  Rng rng(9);
  const markov::MarkovChain chain(s.model.transition(), s.pi);
  const geo::Trajectory truth(chain.Sample(6, rng));
  const Counter& uncertified =
      MetricsRegistry::Global().GetCounter("release.uncertified_commits");
  const long before = uncertified.value();
  const auto result = priste.Run(truth, rng);
  ASSERT_TRUE(result.ok()) << result.status();
  long anchored = 0;
  for (const auto& step : result->steps) {
    if (step.released_alpha == 0.0) ++anchored;
  }
  EXPECT_GT(anchored, 0);
  EXPECT_EQ(uncertified.value() - before, anchored);
}

// Algorithm 3 as the driver ran it before candidates were computed on
// demand: a fresh mechanism per rung, whose full emission() matrix supplies
// the sampled row and the released column.
std::vector<StepRecord> ReferenceDeltaLocSteps(const Scenario& s, double delta,
                                               const PristeOptions& options,
                                               const geo::Trajectory& truth,
                                               Rng& rng) {
  const markov::TransitionMatrix transition = s.model.transition();
  const TwoWorldModel model(transition, s.ev);
  const QpSolver solver(options.qp);
  ReleaseStepContext context({&model}, &solver, options.normalize_emissions,
                             options.release);
  context.SetHorizonHint(truth.length());
  std::vector<StepRecord> steps;
  linalg::Vector posterior = s.pi;
  for (int t = 1; t <= truth.length(); ++t) {
    const linalg::Vector predicted = transition.Propagate(posterior);
    const auto set = lppm::DeltaLocationSet(predicted, delta);
    PRISTE_CHECK(set.ok());
    StepRecord step;
    step.t = t;
    step.true_cell = truth.At(t);
    linalg::Vector column;
    for (double alpha = options.initial_alpha;; alpha *= options.decay) {
      const double effective = alpha < options.min_alpha ? 0.0 : alpha;
      const lppm::DeltaRestrictedPlanarLaplace mech(s.grid, effective, *set);
      const hmm::EmissionMatrix& e = mech.emission();
      const int o = rng.SampleDiscrete(e.OutputDistribution(step.true_cell).as_std());
      column = e.EmissionColumn(o);
      bool accept = effective == 0.0;
      if (!accept) {
        const ReleaseCheckOutcome outcome = context.CheckCandidate(
            column, options.epsilon, options.qp_threshold_seconds);
        accept = outcome.all_satisfied;
        if (outcome.timed_out) ++step.conservative_timeouts;
      }
      if (accept) {
        context.Commit(column);
        step.released_cell = o;
        step.released_alpha = effective == 0.0 ? 0.0 : alpha;
        break;
      }
      ++step.halvings;
    }
    const auto updated = hmm::PosteriorUpdate(predicted, column);
    PRISTE_CHECK(updated.ok());
    posterior = *updated;
    steps.push_back(step);
  }
  return steps;
}

TEST(PristeDeltaLocTest, RunMatchesFullEmissionReferenceLoop) {
  // Any drift of Row, Column or the shared surrogates from the full
  // emission() matrix would change a sampled cell, a check or a posterior,
  // and with it the step records.
  const Scenario s;
  const double delta = 0.3;
  PristeOptions tight = FastOptions(0.05, 0.3);
  tight.min_alpha = 0.02;
  // Totals over every run: the schedules must reach halvings (WithAlpha),
  // certified releases and α = 0 anchors.
  int halvings = 0;
  int certified = 0;
  int anchored = 0;
  for (const PristeOptions& options : {FastOptions(0.8, 0.3), tight}) {
    const PristeDeltaLoc priste(s.grid, s.model.transition(), {s.ev}, delta,
                                s.pi, options);
    for (uint64_t seed : {1, 2, 3, 4, 5}) {
      Rng truth_rng(100 + seed);
      const markov::MarkovChain chain(s.model.transition(), s.pi);
      const geo::Trajectory truth(chain.Sample(8, truth_rng));
      Rng run_rng(seed);
      Rng reference_rng(seed);
      const auto result = priste.Run(truth, run_rng);
      ASSERT_TRUE(result.ok()) << result.status();
      const std::vector<StepRecord> reference =
          ReferenceDeltaLocSteps(s, delta, options, truth, reference_rng);
      ASSERT_EQ(result->steps.size(), reference.size());
      for (size_t i = 0; i < reference.size(); ++i) {
        const StepRecord& got = result->steps[i];
        const StepRecord& want = reference[i];
        SCOPED_TRACE(::testing::Message() << "seed " << seed << " t=" << want.t);
        EXPECT_EQ(got.t, want.t);
        EXPECT_EQ(got.true_cell, want.true_cell);
        EXPECT_EQ(got.released_cell, want.released_cell);
        EXPECT_EQ(got.released_alpha, want.released_alpha);
        EXPECT_EQ(got.halvings, want.halvings);
        EXPECT_EQ(got.conservative_timeouts, want.conservative_timeouts);
        halvings += want.halvings;
        if (want.released_alpha > 0.0) {
          ++certified;
        } else {
          ++anchored;
        }
      }
      // Both loops drew the same number of samples from equal seeds.
      EXPECT_EQ(run_rng.NextUint64(), reference_rng.NextUint64());
    }
  }
  EXPECT_GT(halvings, 0);
  EXPECT_GT(certified, 0);
  EXPECT_GT(anchored, 0);
}

TEST(PristeDeltaLocTest, SmallerDeltaGivesLargerSets) {
  const Scenario s;
  Rng rng(13);
  const linalg::Vector predicted =
      markov::TransitionMatrix(s.model.transition()).Propagate(s.pi);
  const auto tight = lppm::DeltaLocationSet(predicted, 0.05);
  const auto loose = lppm::DeltaLocationSet(predicted, 0.5);
  ASSERT_TRUE(tight.ok());
  ASSERT_TRUE(loose.ok());
  EXPECT_GE(tight->Count(), loose->Count());
}

TEST(PristeDeltaLocTest, RejectsShortTrajectory) {
  const Scenario s;
  const PristeDeltaLoc priste(s.grid, s.model.transition(), {s.ev}, 0.2, s.pi,
                              FastOptions(0.5, 0.3));
  Rng rng(15);
  EXPECT_FALSE(priste.Run(geo::Trajectory({0, 1}), rng).ok());
}

}  // namespace
}  // namespace priste::core
