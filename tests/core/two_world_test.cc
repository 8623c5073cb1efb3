#include "priste/core/two_world.h"

#include <gtest/gtest.h>

#include "priste/event/pattern.h"
#include "priste/event/presence.h"
#include "testing/lifted_invariants.h"
#include "testing/test_util.h"

namespace priste::core {
namespace {

using event::PatternEvent;
using event::PresenceEvent;

markov::TransitionMatrix PaperExampleChain() {
  // Equation (2).
  auto m = markov::TransitionMatrix::Create(linalg::Matrix{
      {0.1, 0.2, 0.7}, {0.4, 0.1, 0.5}, {0.0, 0.1, 0.9}});
  PRISTE_CHECK(m.ok());
  return std::move(m).value();
}

TEST(TwoWorldTest, PresenceMatricesMatchAppendixC) {
  // Example C.1: PRESENCE in {s1, s2} at t = 3..4 over the Eq. (2) chain.
  const auto ev = std::make_shared<PresenceEvent>(geo::Region(3, {0, 1}), 3, 4);
  const TwoWorldModel model(PaperExampleChain(), ev);

  // M2, M3: the capture form (left matrix of Eq. 22).
  const linalg::Matrix expected_window{
      {0.0, 0.0, 0.7, 0.1, 0.2, 0.0}, {0.0, 0.0, 0.5, 0.4, 0.1, 0.0},
      {0.0, 0.0, 0.9, 0.0, 0.1, 0.0}, {0.0, 0.0, 0.0, 0.1, 0.2, 0.7},
      {0.0, 0.0, 0.0, 0.4, 0.1, 0.5}, {0.0, 0.0, 0.0, 0.0, 0.1, 0.9}};
  EXPECT_LT(model.TransitionAt(2)->ToDense().MaxAbsDiff(expected_window), 1e-12);
  EXPECT_LT(model.TransitionAt(3)->ToDense().MaxAbsDiff(expected_window), 1e-12);

  // M1, M4, M5: block diagonal (right matrix of Eq. 22).
  const linalg::Matrix expected_outside{
      {0.1, 0.2, 0.7, 0.0, 0.0, 0.0}, {0.4, 0.1, 0.5, 0.0, 0.0, 0.0},
      {0.0, 0.1, 0.9, 0.0, 0.0, 0.0}, {0.0, 0.0, 0.0, 0.1, 0.2, 0.7},
      {0.0, 0.0, 0.0, 0.4, 0.1, 0.5}, {0.0, 0.0, 0.0, 0.0, 0.1, 0.9}};
  EXPECT_LT(model.TransitionAt(1)->ToDense().MaxAbsDiff(expected_outside), 1e-12);
  EXPECT_LT(model.TransitionAt(4)->ToDense().MaxAbsDiff(expected_outside), 1e-12);
  EXPECT_LT(model.TransitionAt(5)->ToDense().MaxAbsDiff(expected_outside), 1e-12);
}

TEST(TwoWorldTest, LiftedMatricesAreRowStochastic) {
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    const size_t m = 4;
    const auto chain = testing::RandomTransition(m, rng);
    const int start = 1 + static_cast<int>(rng.NextBelow(3));
    const int len = 1 + static_cast<int>(rng.NextBelow(3));
    std::vector<geo::Region> regions;
    for (int i = 0; i < len; ++i) regions.push_back(testing::RandomRegion(m, rng));

    for (const bool presence : {true, false}) {
      event::EventPtr ev;
      if (presence) {
        ev = std::make_shared<PresenceEvent>(regions, start);
      } else {
        ev = std::make_shared<PatternEvent>(regions, start);
      }
      const TwoWorldModel model(chain, ev);
      for (int t = 1; t <= start + len + 2; ++t) {
        EXPECT_TRUE(model.TransitionAt(t)->IsRowStochastic(1e-9))
            << "presence=" << presence << " t=" << t;
      }
    }
  }
}

TEST(TwoWorldTest, LiftInitialDefaultPutsMassInFalseWorld) {
  Rng rng(5);
  const auto chain = testing::RandomTransition(3, rng);
  const auto ev = std::make_shared<PresenceEvent>(geo::Region(3, {0}), 2, 3);
  const TwoWorldModel model(chain, ev);
  const linalg::Vector pi = testing::RandomProbability(3, rng);
  const linalg::Vector lifted = model.LiftInitial(pi);
  ASSERT_EQ(lifted.size(), 6u);
  EXPECT_DOUBLE_EQ(lifted[0], pi[0]);
  EXPECT_DOUBLE_EQ(lifted[3], 0.0);
  EXPECT_NEAR(lifted.Sum(), 1.0, 1e-12);
}

TEST(TwoWorldTest, LiftInitialSplitsWorldWhenEventStartsAtOne) {
  Rng rng(7);
  const auto chain = testing::RandomTransition(3, rng);
  const auto ev = std::make_shared<PresenceEvent>(geo::Region(3, {1}), 1, 2);
  const TwoWorldModel model(chain, ev);
  const linalg::Vector pi{0.2, 0.5, 0.3};
  const linalg::Vector lifted = model.LiftInitial(pi);
  EXPECT_DOUBLE_EQ(lifted[0], 0.2);   // s1 not in region → FALSE world
  EXPECT_DOUBLE_EQ(lifted[1], 0.0);   // s2 in region → moved
  EXPECT_DOUBLE_EQ(lifted[4], 0.5);   // ... to TRUE world
  EXPECT_DOUBLE_EQ(lifted[5], 0.0);
  EXPECT_NEAR(lifted.Sum(), 1.0, 1e-12);
}

TEST(TwoWorldTest, ContractColumnIsAdjointOfLift) {
  Rng rng(9);
  for (const int start : {1, 2}) {
    const size_t m = 4;
    const auto chain = testing::RandomTransition(m, rng);
    const auto ev =
        std::make_shared<PresenceEvent>(testing::RandomRegion(m, rng), start, start + 1);
    const TwoWorldModel model(chain, ev);
    for (int trial = 0; trial < 5; ++trial) {
      const linalg::Vector pi = testing::RandomProbability(m, rng);
      linalg::Vector col(2 * m);
      for (size_t i = 0; i < 2 * m; ++i) col[i] = rng.Uniform(-1.0, 1.0);
      const double direct = model.LiftInitial(pi).Dot(col);
      const double contracted = pi.Dot(model.ContractColumn(col));
      EXPECT_NEAR(direct, contracted, 1e-12);
    }
  }
}

TEST(TwoWorldTest, SuffixVectorsAreEventProbabilities) {
  // SuffixTrue(t)[lifted state] must lie in [0, 1]: it is a probability of
  // ending in the TRUE world.
  Rng rng(11);
  const size_t m = 3;
  const auto chain = testing::RandomTransition(m, rng);
  const auto ev = std::make_shared<PatternEvent>(
      std::vector<geo::Region>{testing::RandomRegion(m, rng),
                               testing::RandomRegion(m, rng)},
      2);
  const TwoWorldModel model(chain, ev);
  for (int t = 1; t <= model.event_end(); ++t) {
    EXPECT_TRUE(model.SuffixTrue(t).AllInRange(0.0, 1.0)) << "t=" << t;
  }
  EXPECT_TRUE(model.PriorContraction().AllInRange(0.0, 1.0));
}

TEST(TwoWorldTest, BlockCacheEvictionRebuildsBitIdentically) {
  // Shrink the shared block cache so nearly every TransitionAt misses and
  // rebuilds: the rebuilt blocks must be bit-identical to handles taken
  // before the squeeze, and handles must outlive eviction.
  TwoWorldModel::BlockLru& cache = TwoWorldModel::BlockCache();
  const size_t saved_capacity = cache.capacity_bytes();

  const auto ev = std::make_shared<PresenceEvent>(geo::Region(3, {0, 1}), 3, 4);
  const TwoWorldModel model(PaperExampleChain(), ev);

  std::vector<TwoWorldModel::BlockHandle> warm;
  for (int t = 1; t <= 5; ++t) warm.push_back(model.TransitionAt(t));

  cache.SetCapacityBytes(1);  // below any block's charge → constant eviction
  cache.Clear();
  for (int t = 1; t <= 5; ++t) {
    const TwoWorldModel::BlockHandle cold = model.TransitionAt(t);
    ASSERT_NE(cold, nullptr);
    EXPECT_NE(cold.get(), warm[static_cast<size_t>(t - 1)].get());
    // Bit-identical, not just numerically close.
    EXPECT_EQ(cold->ToDense().MaxAbsDiff(
                  warm[static_cast<size_t>(t - 1)]->ToDense()),
              0.0)
        << "t=" << t;
  }
  // The warm handles survived eviction with their contents intact.
  EXPECT_TRUE(warm[1]->IsRowStochastic(1e-9));

  cache.SetCapacityBytes(saved_capacity);
  cache.Clear();
}

TEST(TwoWorldTest, DistinctModelsDoNotShareCacheEntries) {
  // Two models with identical parameters still get instance-scoped keys: a
  // block cached by one is never served to the other (contents depend on the
  // schedule AND event of the instance that built them).
  const auto ev = std::make_shared<PresenceEvent>(geo::Region(3, {0, 1}), 3, 4);
  const TwoWorldModel a(PaperExampleChain(), ev);
  const TwoWorldModel b(PaperExampleChain(), ev);
  EXPECT_NE(a.TransitionAt(2).get(), b.TransitionAt(2).get());
  EXPECT_EQ(a.TransitionAt(2)->ToDense().MaxAbsDiff(b.TransitionAt(2)->ToDense()),
            0.0);
}

TEST(TwoWorldTest, StepsPastTheWindowActBlockwiseOnTheBaseChain) {
  // The LiftedEventModel invariant the after-window backward chain and the
  // release engine's single row family rely on: from t = end on, both worlds
  // step through the base matrix independently.
  Rng rng(31);
  const size_t m = 18;
  for (const auto& [name, schedule] : testing::InvariantSchedules(m, rng)) {
    std::vector<geo::Region> regions;
    for (int i = 0; i < 3; ++i) {
      regions.push_back(testing::RandomRegion(m, rng));
    }
    for (const event::EventPtr& ev : std::vector<event::EventPtr>{
             std::make_shared<PresenceEvent>(regions, 2),
             std::make_shared<PatternEvent>(regions, 2),
             std::make_shared<PresenceEvent>(regions, 1)}) {
      SCOPED_TRACE(name + " " + ev->ToString());
      testing::ExpectBlockDiagonalPastWindow(TwoWorldModel(schedule, ev), rng);
    }
  }
}

TEST(TwoWorldTest, RejectsMismatchedStateCounts) {
  Rng rng(13);
  const auto chain = testing::RandomTransition(3, rng);
  const auto ev = std::make_shared<PresenceEvent>(geo::Region(4, {0}), 2, 3);
  EXPECT_DEATH(TwoWorldModel(chain, ev), "state count");
}

}  // namespace
}  // namespace priste::core
