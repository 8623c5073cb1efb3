#include "priste/core/quantifier.h"

#include "priste/core/two_world.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "priste/core/automaton_world.h"
#include "priste/core/joint.h"
#include "priste/core/prior.h"
#include "priste/event/pattern.h"
#include "priste/event/presence.h"
#include "testing/test_util.h"

namespace priste::core {
namespace {

using event::PatternEvent;
using event::PresenceEvent;

// Builds a random event model over m states.
std::shared_ptr<TwoWorldModel> RandomModel(size_t m, bool presence, int start,
                                           int window, Rng& rng) {
  std::vector<geo::Region> regions;
  for (int i = 0; i < window; ++i) regions.push_back(testing::RandomRegion(m, rng));
  event::EventPtr ev;
  if (presence) {
    ev = std::make_shared<PresenceEvent>(regions, start);
  } else {
    ev = std::make_shared<PatternEvent>(regions, start);
  }
  return std::make_shared<TwoWorldModel>(testing::RandomTransition(m, rng), ev);
}

// Core semantic test: for a *fixed probability prior* the sign of the
// Theorem IV.1 conditions must agree with the direct likelihood-ratio
// definition of ε-spatiotemporal event privacy (Eq. 1):
//   Condition15 <= 0  ⟺  Pr(o|E) <= e^ε·Pr(o|¬E)
//   Condition16 <= 0  ⟺  Pr(o|¬E) <= e^ε·Pr(o|E)
class TheoremSemanticsTest : public ::testing::TestWithParam<int> {};

TEST_P(TheoremSemanticsTest, ConditionsMatchDirectRatios) {
  Rng rng(9000 + GetParam());
  const size_t m = 3;
  const bool presence = GetParam() % 2 == 0;
  const int start = 1 + GetParam() % 3;
  const int window = 1 + GetParam() % 2;
  const auto model = RandomModel(m, presence, start, window, rng);
  const linalg::Vector pi = testing::RandomProbability(m, rng);
  // Raw columns (no normalization) so values are exact probabilities.
  const PrivacyQuantifier quantifier(model.get(), /*normalize_emissions=*/false);

  JointCalculator calc(model.get(), pi);
  std::vector<linalg::Vector> emissions;
  const int horizon = model->event_end() + 2;
  for (int t = 1; t <= horizon; ++t) {
    emissions.push_back(testing::RandomEmissionColumn(m, rng));
    calc.Push(emissions.back());
    const TheoremVectors v = quantifier.ComputeVectors(emissions);

    // Cross-check the contractions against the joint calculator.
    EXPECT_NEAR(pi.Dot(v.a_bar), EventPrior(*model, pi), 1e-12);
    EXPECT_NEAR(pi.Dot(v.b_bar), calc.JointEvent(), 1e-12) << "t=" << t;
    EXPECT_NEAR(pi.Dot(v.c_bar), calc.Marginal(), 1e-12) << "t=" << t;

    const double prior = EventPrior(*model, pi);
    if (prior <= 0.0 || prior >= 1.0) continue;
    const double given_e = calc.JointEvent() / prior;
    const double given_not = calc.JointNotEvent() / (1.0 - prior);
    for (const double epsilon : {0.05, 0.5, 2.0}) {
      const double e_eps = std::exp(epsilon);
      const bool direct15 = given_e <= e_eps * given_not + 1e-15;
      const bool direct16 = given_not <= e_eps * given_e + 1e-15;
      const double c15 = PrivacyQuantifier::Condition15(v, pi, epsilon);
      const double c16 = PrivacyQuantifier::Condition16(v, pi, epsilon);
      EXPECT_EQ(c15 <= 1e-12, direct15) << "t=" << t << " eps=" << epsilon;
      EXPECT_EQ(c16 <= 1e-12, direct16) << "t=" << t << " eps=" << epsilon;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Trials, TheoremSemanticsTest, ::testing::Range(0, 12));

TEST(QuantifierTest, NormalizationPreservesConditionSigns) {
  Rng rng(41);
  const size_t m = 3;
  const auto model = RandomModel(m, true, 2, 2, rng);
  const PrivacyQuantifier raw(model.get(), false);
  const PrivacyQuantifier normalized(model.get(), true);
  std::vector<linalg::Vector> emissions;
  for (int t = 1; t <= 5; ++t) {
    emissions.push_back(testing::RandomEmissionColumn(m, rng));
    const TheoremVectors vr = raw.ComputeVectors(emissions);
    const TheoremVectors vn = normalized.ComputeVectors(emissions);
    const linalg::Vector pi = testing::RandomProbability(m, rng);
    for (const double eps : {0.1, 1.0}) {
      EXPECT_EQ(PrivacyQuantifier::Condition15(vr, pi, eps) <= 0.0,
                PrivacyQuantifier::Condition15(vn, pi, eps) <= 0.0);
      EXPECT_EQ(PrivacyQuantifier::Condition16(vr, pi, eps) <= 0.0,
                PrivacyQuantifier::Condition16(vn, pi, eps) <= 0.0);
    }
    // (b̄, c̄) are jointly rescaled: the ratio field is identical.
    for (size_t i = 0; i < m; ++i) {
      if (vr.c_bar[i] > 1e-300 && vn.c_bar[i] > 1e-300) {
        EXPECT_NEAR(vr.b_bar[i] / vr.c_bar[i], vn.b_bar[i] / vn.c_bar[i], 1e-9);
      }
    }
  }
}

TEST(QuantifierTest, UniformEmissionsSatisfyAnyEpsilon) {
  // Uninformative observations leak nothing: the check must pass for every
  // prior even at tiny ε.
  Rng rng(43);
  const size_t m = 4;
  const auto model = RandomModel(m, true, 2, 2, rng);
  const PrivacyQuantifier quantifier(model.get());
  const std::vector<linalg::Vector> emissions(
      5, linalg::Vector(m, 1.0 / static_cast<double>(m)));
  const TheoremVectors v = quantifier.ComputeVectors(emissions);
  const QpSolver solver;
  const PrivacyCheckResult check =
      quantifier.CheckArbitraryPrior(v, 0.01, solver, Deadline::Infinite());
  EXPECT_FALSE(check.timed_out);
  EXPECT_TRUE(check.satisfied)
      << "max15=" << check.max_condition15 << " max16=" << check.max_condition16;
}

TEST(QuantifierTest, ExpiredDeadlineFailsTheCheck) {
  // Section IV-C's conservative release: even emissions that satisfy every
  // ε (uniform, see above) are not certified when the maximization times
  // out, and the reported worst prior is still a feasible distribution.
  Rng rng(44);
  const size_t m = 4;
  const auto model = RandomModel(m, true, 2, 2, rng);
  const PrivacyQuantifier quantifier(model.get());
  const std::vector<linalg::Vector> emissions(
      5, linalg::Vector(m, 1.0 / static_cast<double>(m)));
  const TheoremVectors v = quantifier.ComputeVectors(emissions);
  const PrivacyCheckResult check = quantifier.CheckArbitraryPrior(
      v, 0.01, QpSolver(), Deadline::After(-1.0));
  EXPECT_TRUE(check.timed_out);
  EXPECT_FALSE(check.satisfied);
  ASSERT_EQ(check.worst_pi.size(), m);
  EXPECT_GE(check.worst_pi.Min(), 0.0);
  EXPECT_NEAR(check.worst_pi.Sum(), 1.0, 1e-15);
}

TEST(QuantifierTest, RevealingEmissionsViolateSmallEpsilon) {
  // An emission that pins the user inside the event region at an event
  // timestamp makes the event nearly certain — small ε must fail.
  Rng rng(45);
  const size_t m = 3;
  const auto ev = std::make_shared<PresenceEvent>(geo::Region(3, {0}), 2, 2);
  const auto model =
      std::make_shared<TwoWorldModel>(testing::RandomTransition(m, rng), ev);
  const PrivacyQuantifier quantifier(model.get());

  linalg::Vector pin0(m, 1e-6);
  pin0[0] = 1.0;
  const std::vector<linalg::Vector> emissions = {linalg::Vector::Ones(m), pin0};
  const TheoremVectors v = quantifier.ComputeVectors(emissions);
  const QpSolver solver;
  const PrivacyCheckResult check =
      quantifier.CheckArbitraryPrior(v, 0.1, solver, Deadline::Infinite());
  EXPECT_FALSE(check.satisfied);
  EXPECT_GT(std::max(check.max_condition15, check.max_condition16), 0.0);
}

TEST(QuantifierTest, ArbitraryPriorCheckImpliesEveryFixedPrior) {
  // When the QP certifies the conditions, spot-check many random priors.
  Rng rng(47);
  const size_t m = 3;
  const auto model = RandomModel(m, false, 2, 2, rng);
  const PrivacyQuantifier quantifier(model.get());
  std::vector<linalg::Vector> emissions;
  // Mild emissions: close to uniform.
  for (int t = 0; t < 4; ++t) {
    linalg::Vector e(m);
    for (size_t i = 0; i < m; ++i) e[i] = 1.0 + 0.05 * rng.NextDouble();
    emissions.push_back(e);
  }
  const TheoremVectors v = quantifier.ComputeVectors(emissions);
  const QpSolver solver;
  const double epsilon = 0.5;
  const PrivacyCheckResult check =
      quantifier.CheckArbitraryPrior(v, epsilon, solver, Deadline::Infinite());
  ASSERT_TRUE(check.satisfied);
  for (int trial = 0; trial < 200; ++trial) {
    const linalg::Vector pi = testing::RandomProbability(m, rng);
    EXPECT_TRUE(PrivacyQuantifier::CheckFixedPrior(v, pi, epsilon, 1e-9));
  }
}

// A sparse ring random walk (3 nonzeros per row) built twice: once with the
// CSR fast path, once force-dense. Every quantifier output must match.
class SparseDenseEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(SparseDenseEquivalenceTest, QuantifierOutputsMatch) {
  // Both chains are numerically identical matrices; only the kernel path
  // differs (CSR blockwise vs dense sweep). ā, b̄, c̄ and both Theorem IV.1
  // conditions must agree to tight tolerance at every prefix length,
  // including past the event window (the Lemma III.3 regime).
  const size_t m = 18;  // ≥ kSparseMinStates so the CSR view kicks in
  Rng rng(7000 + GetParam());
  Rng rng_copy = rng;
  const markov::TransitionMatrix sparse_chain =
      testing::RingWalk(m, true, rng);
  const markov::TransitionMatrix dense_chain =
      testing::RingWalk(m, false, rng_copy);
  ASSERT_TRUE(sparse_chain.has_sparse());
  ASSERT_FALSE(dense_chain.has_sparse());

  const bool presence = GetParam() % 2 == 0;
  const int start = 2 + GetParam() % 2;
  std::vector<geo::Region> regions;
  for (int i = 0; i < 2; ++i) regions.push_back(testing::RandomRegion(m, rng));
  event::EventPtr ev;
  if (presence) {
    ev = std::make_shared<PresenceEvent>(regions, start);
  } else {
    ev = std::make_shared<PatternEvent>(regions, start);
  }
  const TwoWorldModel sparse_model(sparse_chain, ev);
  const TwoWorldModel dense_model(dense_chain, ev);
  const PrivacyQuantifier sparse_quant(&sparse_model);
  const PrivacyQuantifier dense_quant(&dense_model);

  EXPECT_LT(sparse_model.PriorContraction()
                .Minus(dense_model.PriorContraction())
                .MaxAbs(),
            1e-12);

  std::vector<linalg::Vector> emissions;
  const int horizon = sparse_model.event_end() + 3;
  for (int t = 1; t <= horizon; ++t) {
    emissions.push_back(testing::RandomEmissionColumn(m, rng));
    const TheoremVectors vs = sparse_quant.ComputeVectors(emissions);
    const TheoremVectors vd = dense_quant.ComputeVectors(emissions);
    EXPECT_LT(vs.a_bar.Minus(vd.a_bar).MaxAbs(), 1e-12) << "t=" << t;
    EXPECT_LT(vs.b_bar.Minus(vd.b_bar).MaxAbs(), 1e-12) << "t=" << t;
    EXPECT_LT(vs.c_bar.Minus(vd.c_bar).MaxAbs(), 1e-12) << "t=" << t;
    const linalg::Vector pi = testing::RandomProbability(m, rng);
    for (const double eps : {0.1, 0.5, 2.0}) {
      EXPECT_NEAR(PrivacyQuantifier::Condition15(vs, pi, eps),
                  PrivacyQuantifier::Condition15(vd, pi, eps), 1e-9);
      EXPECT_NEAR(PrivacyQuantifier::Condition16(vs, pi, eps),
                  PrivacyQuantifier::Condition16(vd, pi, eps), 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Trials, SparseDenseEquivalenceTest,
                         ::testing::Range(0, 6));

TEST(QuantifierTest, WorstPiIsReportedForViolations) {
  Rng rng(49);
  const size_t m = 3;
  const auto ev = std::make_shared<PresenceEvent>(geo::Region(3, {1}), 2, 2);
  const auto model =
      std::make_shared<TwoWorldModel>(testing::RandomTransition(m, rng), ev);
  const PrivacyQuantifier quantifier(model.get());
  linalg::Vector pin(m, 1e-6);
  pin[1] = 1.0;
  const std::vector<linalg::Vector> emissions = {linalg::Vector::Ones(m), pin};
  const TheoremVectors v = quantifier.ComputeVectors(emissions);
  const QpSolver solver;
  const PrivacyCheckResult check =
      quantifier.CheckArbitraryPrior(v, 0.05, solver, Deadline::Infinite());
  ASSERT_FALSE(check.satisfied);
  // The reported worst prior must actually violate a condition.
  const double worst = std::max(
      PrivacyQuantifier::Condition15(v, check.worst_pi, 0.05),
      PrivacyQuantifier::Condition16(v, check.worst_pi, 0.05));
  EXPECT_GT(worst, 0.0);
}

// --- Chain equivalence: ComputeVectors against per-world column steps. ---

using ColumnStep =
    std::function<void(const linalg::Vector& v, int t, linalg::Vector& out)>;

// The two-world column step with one BackwardSpan per world — the form
// before both worlds shared one paired sweep of the base matrix.
void PerWorldTwoWorldStep(const TwoWorldModel& model, const linalg::Vector& v,
                          int t, linalg::Vector& out) {
  const size_t m = model.num_states();
  const markov::TransitionMatrix& base = model.schedule().AtStep(t);
  const event::SpatiotemporalEvent& ev = model.event();
  const double* vf = v.data();
  const double* vt = v.data() + m;
  double* of = out.data();
  double* ot = out.data() + m;
  if (t < std::max(ev.start() - 1, 1) || t > ev.end() - 1) {
    base.BackwardSpan(vf, of);
    base.BackwardSpan(vt, ot);
    return;
  }
  const linalg::Vector d = ev.RegionAt(t + 1).Indicator();
  std::vector<double> mix(m);
  for (size_t i = 0; i < m; ++i) mix[i] = (1.0 - d[i]) * vf[i] + d[i] * vt[i];
  if (ev.kind() == event::SpatiotemporalEvent::Kind::kPresence ||
      t == ev.start() - 1) {
    base.BackwardSpan(mix.data(), of);
    base.BackwardSpan(vt, ot);
  } else {
    base.BackwardSpan(vf, of);
    base.BackwardSpan(mix.data(), ot);
  }
}

// The automaton column step, one BackwardSpan per automaton state.
void PerStateAutomatonStep(const AutomatonWorldModel& model,
                           const linalg::Vector& v, int t,
                           linalg::Vector& out) {
  const size_t m = model.num_states();
  const markov::TransitionMatrix& base = model.schedule().AtStep(t);
  const event::EventAutomaton& automaton = model.automaton();
  const int tau = t + 1;
  const bool in_window = tau >= automaton.start() && tau <= automaton.end();
  std::vector<double> z(m);
  for (int q = 0; q < automaton.num_automaton_states(); ++q) {
    for (size_t sp = 0; sp < m; ++sp) {
      const int next =
          in_window ? automaton.Next(q, tau, static_cast<int>(sp)) : q;
      z[sp] = v[static_cast<size_t>(next) * m + sp];
    }
    base.BackwardSpan(z.data(), out.data() + static_cast<size_t>(q) * m);
  }
}

// The Lemma III.2/III.3 chain of ComputeVectors, written out with `step` as
// the column step and the default max-norm emission normalization.
TheoremVectors ReferenceVectors(const LiftedEventModel& model,
                                const ColumnStep& step,
                                const std::vector<linalg::Vector>& emissions) {
  const int t = static_cast<int>(emissions.size());
  const int end = model.event_end();
  const auto apply = [&](linalg::Vector& v, int i) {
    model.ApplyEmissionInPlace(emissions[static_cast<size_t>(i - 1)], v);
    const double inv = 1.0 / emissions[static_cast<size_t>(i - 1)].MaxAbs();
    if (inv != 1.0) v.ScaleInPlace(inv);
  };
  linalg::Vector nxt(model.lifted_size());
  const auto prefix = [&](linalg::Vector cur, int last) {
    for (int i = last; i >= 1; --i) {
      apply(cur, i);
      if (i > 1) {
        step(cur, i - 1, nxt);
        std::swap(cur, nxt);
      }
    }
    return model.ContractColumn(cur);
  };
  TheoremVectors out;
  out.t = t;
  out.a_bar = model.PriorContraction();
  if (t <= end) {
    out.b_bar = prefix(model.SuffixTrue(t), t);
    out.c_bar = prefix(linalg::Vector::Ones(model.lifted_size()), t);
  } else {
    linalg::Vector beta = linalg::Vector::Ones(model.lifted_size());
    for (int tau = t - 1; tau >= end; --tau) {
      apply(beta, tau + 1);
      step(beta, tau, nxt);
      std::swap(beta, nxt);
    }
    out.b_bar = prefix(beta.Hadamard(model.AcceptingMask()), end);
    out.c_bar = prefix(beta, end);
  }
  return out;
}

// Runs ComputeVectors and the reference over every prefix t = 1..end+6, so
// the during-event regime, t = end and the after-event regime all appear.
void ExpectChainMatchesReference(const LiftedEventModel& model,
                                 const ColumnStep& step, Rng& rng,
                                 const std::string& label) {
  const PrivacyQuantifier quantifier(&model);
  std::vector<linalg::Vector> emissions;
  for (int t = 1; t <= model.event_end() + 6; ++t) {
    emissions.push_back(testing::RandomEmissionColumn(model.num_states(), rng));
    const TheoremVectors got = quantifier.ComputeVectors(emissions);
    const TheoremVectors want = ReferenceVectors(model, step, emissions);
    const std::string where = label + " t=" + std::to_string(t);
    testing::ExpectSameBits(got.a_bar, want.a_bar, where + " a_bar");
    testing::ExpectSameBits(got.b_bar, want.b_bar, where + " b_bar");
    testing::ExpectSameBits(got.c_bar, want.c_bar, where + " c_bar");
  }
}

// Checks a TwoWorld model per event shape and an automaton model over
// `schedule` against their per-world reference chains.
void ExpectModelsMatchReference(const markov::TransitionSchedule& schedule,
                                Rng& rng, const std::string& label) {
  const size_t m = schedule.num_states();
  std::vector<geo::Region> regions;
  for (int i = 0; i < 3; ++i) regions.push_back(testing::RandomRegion(m, rng));
  const std::vector<std::pair<std::string, event::EventPtr>> events = {
      {"presence", std::make_shared<PresenceEvent>(regions, 3)},
      {"pattern", std::make_shared<PatternEvent>(regions, 2)},
      {"presence@1", std::make_shared<PresenceEvent>(regions, 1)},
      {"pattern@1", std::make_shared<PatternEvent>(regions, 1)},
  };
  for (const auto& [name, ev] : events) {
    const TwoWorldModel model(schedule, ev);
    ExpectChainMatchesReference(
        model,
        [&](const linalg::Vector& v, int t, linalg::Vector& out) {
          PerWorldTwoWorldStep(model, v, t, out);
        },
        rng, name + " " + label);
  }
  const auto automaton = AutomatonWorldModel::Create(
      schedule, *events[1].second->ToBooleanExpr());
  ASSERT_TRUE(automaton.ok()) << automaton.status();
  const AutomatonWorldModel& model = **automaton;
  ExpectChainMatchesReference(
      model,
      [&](const linalg::Vector& v, int t, linalg::Vector& out) {
        PerStateAutomatonStep(model, v, t, out);
      },
      rng, "automaton " + label);
}

TEST(QuantifierTest, ComputeVectorsEqualsPerWorldChainExactly) {
  Rng rng(909);
  // m = 18 leaves a row tail and a lane tail in every dense product; the
  // ring walk carries a CSR view.
  const size_t m = 18;
  for (const bool csr : {false, true}) {
    const markov::TransitionMatrix chain =
        csr ? testing::RingWalk(m, true, rng)
            : testing::RandomTransition(m, rng);
    ASSERT_EQ(chain.has_sparse(), csr);
    ExpectModelsMatchReference(markov::TransitionSchedule::Homogeneous(chain),
                               rng, csr ? "csr" : "dense");
  }
  // Time-varying: a dense and a CSR matrix alternating, so the after-event
  // backward chain reads a different matrix at each step.
  auto schedule = markov::TransitionSchedule::Cyclic(
      {testing::RandomTransition(m, rng), testing::RingWalk(m, true, rng)});
  ASSERT_TRUE(schedule.ok()) << schedule.status();
  ExpectModelsMatchReference(*schedule, rng, "cyclic");
}

}  // namespace
}  // namespace priste::core
