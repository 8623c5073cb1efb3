#include "priste/lppm/delta_location_set.h"

#include <cmath>
#include <limits>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "priste/common/strings.h"
#include "testing/test_util.h"

namespace priste::lppm {
namespace {

TEST(DeltaLocationSetTest, CoversRequiredMass) {
  const linalg::Vector prior{0.5, 0.3, 0.1, 0.06, 0.04};
  const auto set = DeltaLocationSet(prior, 0.15);
  ASSERT_TRUE(set.ok());
  // Needs >= 0.85 mass: {0.5, 0.3, 0.1} = 0.9 with 3 cells; 2 cells give 0.8.
  EXPECT_EQ(set->States(), (std::vector<int>{0, 1, 2}));
}

TEST(DeltaLocationSetTest, ZeroDeltaTakesEverythingWithMass) {
  const linalg::Vector prior{0.5, 0.5, 0.0};
  const auto set = DeltaLocationSet(prior, 0.0);
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->Count(), 2u);
}

TEST(DeltaLocationSetTest, LargerDeltaSmallerSet) {
  Rng rng(3);
  const linalg::Vector prior = testing::RandomProbability(50, rng);
  const auto small = DeltaLocationSet(prior, 0.05);
  const auto large = DeltaLocationSet(prior, 0.5);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_GE(small->Count(), large->Count());
}

TEST(DeltaLocationSetTest, SetIsMinimalForTopHeavyPrior) {
  const linalg::Vector prior{0.96, 0.01, 0.01, 0.01, 0.01};
  const auto set = DeltaLocationSet(prior, 0.05);
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->Count(), 1u);
  EXPECT_TRUE(set->Contains(0));
}

TEST(DeltaLocationSetTest, RejectsBadInputs) {
  EXPECT_FALSE(DeltaLocationSet(linalg::Vector{0.5, 0.5}, -0.1).ok());
  EXPECT_FALSE(DeltaLocationSet(linalg::Vector{0.5, 0.5}, 1.0).ok());
  EXPECT_FALSE(DeltaLocationSet(linalg::Vector(), 0.1).ok());
  EXPECT_FALSE(DeltaLocationSet(linalg::Vector{0.9, 0.3}, 0.1).ok());
}

TEST(DeltaRestrictedPlmTest, OutputsConfinedToSet) {
  const geo::Grid grid(4, 4, 1.0);
  const geo::Region set(16, {0, 1, 5});
  const DeltaRestrictedPlanarLaplace mech(grid, 1.0, set);
  const auto& e = mech.emission();
  for (size_t s = 0; s < 16; ++s) {
    for (size_t o = 0; o < 16; ++o) {
      if (!set.Contains(static_cast<int>(o))) {
        EXPECT_DOUBLE_EQ(e(s, o), 0.0) << "state " << s << " output " << o;
      }
    }
    EXPECT_NEAR(e.OutputDistribution(static_cast<int>(s)).Sum(), 1.0, 1e-9);
  }
}

TEST(DeltaRestrictedPlmTest, InSetTruthIsModal) {
  const geo::Grid grid(4, 4, 1.0);
  const geo::Region set(16, {0, 1, 2, 3, 4, 5, 6, 7});
  const DeltaRestrictedPlanarLaplace mech(grid, 2.0, set);
  for (int s : set.States()) {
    EXPECT_EQ(mech.emission().OutputDistribution(s).ArgMax(),
              static_cast<size_t>(s));
  }
}

TEST(DeltaRestrictedPlmTest, OutOfSetStateUsesNearestSurrogate) {
  const geo::Grid grid(4, 1, 1.0);  // cells 0..3 in a row
  const geo::Region set(4, {0, 1});
  const DeltaRestrictedPlanarLaplace mech(grid, 1.0, set);
  // True state 3 is closest to set member 1, so output 1 dominates output 0.
  EXPECT_GT(mech.emission()(3, 1), mech.emission()(3, 0));
}

TEST(DeltaRestrictedPlmTest, ZeroAlphaUniformOverSet) {
  const geo::Grid grid(3, 3, 1.0);
  const geo::Region set(9, {2, 4, 6});
  const DeltaRestrictedPlanarLaplace mech(grid, 0.0, set);
  EXPECT_NEAR(mech.emission()(0, 2), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(mech.emission()(8, 6), 1.0 / 3.0, 1e-12);
}

TEST(DeltaRestrictedPlmTest, PerturbStaysInSet) {
  const geo::Grid grid(4, 4, 1.0);
  const geo::Region set(16, {3, 7, 11});
  const DeltaRestrictedPlanarLaplace mech(grid, 0.7, set);
  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    EXPECT_TRUE(set.Contains(mech.Perturb(i % 16, rng)));
  }
}

// ---------------------------------------------------------------------------
// On-demand entries. The mechanism computes Row(i), Column(o) and the lazily
// materialized emission() from one entry formula; these tests pin all three
// to each other exactly, and to the eager per-pair construction below.

// The eager per-pair construction: every row's surrogate by a nearest-member
// scan, every weight from CellDistanceKm, row-normalized, then
// EmissionMatrix::Create. Kept as the reference the on-demand entries must
// reproduce.
hmm::EmissionMatrix ReferenceEmission(const geo::Grid& grid, double alpha,
                                      const geo::Region& set) {
  const size_t m = grid.num_cells();
  const std::vector<int> members = set.States();
  linalg::Matrix e(m, m);
  for (size_t i = 0; i < m; ++i) {
    int anchor = static_cast<int>(i);
    if (!set.Contains(anchor)) {
      double best = std::numeric_limits<double>::infinity();
      for (int candidate : members) {
        const double d = grid.CellDistanceKm(static_cast<int>(i), candidate);
        if (d < best) {
          best = d;
          anchor = candidate;
        }
      }
    }
    double sum = 0.0;
    for (int o : members) {
      const double w =
          alpha <= 0.0 ? 1.0 : std::exp(-alpha * grid.CellDistanceKm(anchor, o));
      e(i, static_cast<size_t>(o)) = w;
      sum += w;
    }
    for (int o : members) e(i, static_cast<size_t>(o)) /= sum;
  }
  auto result = hmm::EmissionMatrix::Create(std::move(e));
  PRISTE_CHECK(result.ok());
  return std::move(result).value();
}

// Algorithm 3's ladder from the default initial budget (0.2·½ᵏ down to the
// default min_alpha) plus the α = 0 anchor.
std::vector<double> AlphaLadder() {
  std::vector<double> ladder;
  for (double alpha = 0.2; alpha >= 1e-4; alpha *= 0.5) ladder.push_back(alpha);
  ladder.push_back(0.0);
  return ladder;
}

// Row(i), Column(o) and emission() agree exactly, and Perturb draws what
// sampling emission()'s row draws from the same seed.
void ExpectConsumersAgree(const DeltaRestrictedPlanarLaplace& mech,
                          const std::string& label) {
  const hmm::EmissionMatrix& e = mech.emission();
  const int m = static_cast<int>(mech.num_states());
  for (int o = 0; o < m; ++o) {
    ASSERT_EQ(mech.Column(o).as_std(), e.EmissionColumn(o).as_std())
        << label << " column " << o;
  }
  for (int i = 0; i < m; ++i) {
    ASSERT_EQ(mech.Row(i).as_std(), e.OutputDistribution(i).as_std())
        << label << " row " << i;
    Rng lazy(1000 + static_cast<uint64_t>(i));
    Rng dense(1000 + static_cast<uint64_t>(i));
    for (int draw = 0; draw < 3; ++draw) {
      ASSERT_EQ(mech.Perturb(i, lazy),
                dense.SampleDiscrete(e.OutputDistribution(i).as_std()))
          << label << " row " << i << " draw " << draw;
    }
  }
}

struct RestrictionCase {
  std::string label;
  geo::Grid grid;
  geo::Region set;
};

std::vector<RestrictionCase> UnitGridCases() {
  Rng rng(21);
  std::vector<RestrictionCase> cases;
  for (const geo::Grid& grid : {geo::Grid(16, 16, 1.0), geo::Grid(7, 5, 1.0)}) {
    const size_t m = grid.num_cells();
    const std::string dims =
        std::to_string(grid.width()) + "x" + std::to_string(grid.height());
    cases.push_back(
        {dims + " one cell", grid, geo::Region(m, {static_cast<int>(m / 2)})});
    cases.push_back({dims + " full", grid, geo::Region(m).Complement()});
    for (int k = 0; k < 2; ++k) {
      cases.push_back({dims + " random " + std::to_string(k), grid,
                       testing::RandomRegion(m, rng)});
    }
    const auto delta_set = DeltaLocationSet(testing::RandomProbability(m, rng), 0.2);
    PRISTE_CHECK(delta_set.ok());
    cases.push_back({dims + " delta 0.2", grid, *delta_set});
  }
  return cases;
}

TEST(DeltaRestrictedPlmTest, ConsumersMatchEagerBuildExactlyOnUnitGrids) {
  // On a 1 km grid CellDistanceKm depends on the cell offset alone, so the
  // offset kernel table reproduces every per-pair weight bit for bit.
  for (const RestrictionCase& c : UnitGridCases()) {
    const DeltaRestrictedPlanarLaplace first(c.grid, 0.2, c.set);
    for (double alpha : AlphaLadder()) {
      const std::string label = c.label + " alpha " + FormatDouble(alpha);
      const DeltaRestrictedPlanarLaplace mech = first.WithAlpha(alpha);
      ExpectConsumersAgree(mech, label);
      EXPECT_EQ(mech.emission().matrix().MaxAbsDiff(
                    ReferenceEmission(c.grid, alpha, c.set).matrix()),
                0.0)
          << label;
    }
  }
}

TEST(DeltaRestrictedPlmTest, WithAlphaEqualsFreshConstruction) {
  Rng rng(5);
  const geo::Grid grid(7, 5, 1.0);
  const geo::Region set = testing::RandomRegion(grid.num_cells(), rng);
  const DeltaRestrictedPlanarLaplace first(grid, 0.2, set);
  for (double alpha : AlphaLadder()) {
    const DeltaRestrictedPlanarLaplace fresh(grid, alpha, set);
    const DeltaRestrictedPlanarLaplace halved = first.WithAlpha(alpha);
    EXPECT_EQ(halved.alpha(), alpha);
    EXPECT_EQ(halved.location_set(), set);
    EXPECT_EQ(halved.name(), fresh.name());
    for (int o = 0; o < static_cast<int>(grid.num_cells()); ++o) {
      ASSERT_EQ(halved.Column(o).as_std(), fresh.Column(o).as_std()) << o;
    }
  }
}

TEST(DeltaRestrictedPlmTest, EquidistantCellAnchorsToLowerMember) {
  // 3×1: cell 1 sits 1 km from members 0 and 2.
  const DeltaRestrictedPlanarLaplace line(geo::Grid(3, 1, 1.0), 0.5,
                                          geo::Region(3, {0, 2}));
  EXPECT_EQ(line.Row(1).as_std(), line.Row(0).as_std());
  EXPECT_NE(line.Row(1).as_std(), line.Row(2).as_std());
  // 3×3: cells 0 (0,0) and 4 (1,1) each sit 1 km from members 1 (1,0) and
  // 3 (0,1).
  const DeltaRestrictedPlanarLaplace square(geo::Grid(3, 3, 1.0), 0.5,
                                            geo::Region(9, {1, 3}));
  EXPECT_EQ(square.Row(0).as_std(), square.Row(1).as_std());
  EXPECT_EQ(square.Row(4).as_std(), square.Row(1).as_std());
  EXPECT_NE(square.Row(4).as_std(), square.Row(3).as_std());
  ExpectConsumersAgree(square, "3x3 tie");
}

TEST(DeltaRestrictedPlmTest, NonDyadicCellSizeMatchesEagerBuildToRounding) {
  // At 0.3 km the offset table's distance may differ from a pair's own
  // CellDistanceKm in the last bit; the surrogates are still exact, and the
  // three consumers still agree exactly with each other.
  Rng rng(8);
  const geo::Grid grid(6, 4, 0.3);
  const size_t m = grid.num_cells();
  for (const geo::Region& set : {testing::RandomRegion(m, rng),
                                 testing::RandomRegion(m, rng),
                                 geo::Region(m).Complement()}) {
    for (double alpha : AlphaLadder()) {
      const DeltaRestrictedPlanarLaplace mech(grid, alpha, set);
      ExpectConsumersAgree(mech, "0.3 km alpha " + FormatDouble(alpha));
      const hmm::EmissionMatrix reference = ReferenceEmission(grid, alpha, set);
      for (size_t i = 0; i < m; ++i) {
        for (size_t o = 0; o < m; ++o) {
          const double got = mech.emission()(i, o);
          const double want = reference(i, o);
          EXPECT_LE(std::fabs(got - want), 1e-14 * std::fabs(want))
              << "alpha " << alpha << " entry (" << i << ", " << o << ")";
        }
      }
    }
  }
}

TEST(DeltaRestrictedPlmTest, ConcurrentEmissionCallsBuildOneMatrix) {
  // emission() materializes on first use; racing first calls, from the
  // instance and from a copy sharing its slot, must all see one matrix.
  Rng rng(4);
  const geo::Grid grid(8, 8, 1.0);
  const DeltaRestrictedPlanarLaplace mech(grid, 0.3,
                                          testing::RandomRegion(64, rng));
  const DeltaRestrictedPlanarLaplace copy = mech;
  std::vector<const hmm::EmissionMatrix*> seen(4, nullptr);
  std::vector<std::thread> threads;
  for (size_t k = 0; k < seen.size(); ++k) {
    threads.emplace_back(
        [&, k] { seen[k] = &(k % 2 == 0 ? mech : copy).emission(); });
  }
  for (std::thread& t : threads) t.join();
  for (const hmm::EmissionMatrix* e : seen) EXPECT_EQ(e, seen[0]);
  ExpectConsumersAgree(copy, "8x8 after concurrent emission()");
}

TEST(DeltaRestrictedPlmDeathTest, InvalidInputsFailBeforeAnyWork) {
  const geo::Grid grid(4, 4, 1.0);
  const geo::Region set(16, {0, 5});
  EXPECT_DEATH(DeltaRestrictedPlanarLaplace(grid, -0.25, set), "budget must be >= 0");
  EXPECT_DEATH(DeltaRestrictedPlanarLaplace(
                   grid, std::numeric_limits<double>::quiet_NaN(), set),
               "budget");
  EXPECT_DEATH(DeltaRestrictedPlanarLaplace(
                   grid, std::numeric_limits<double>::infinity(), set),
               "budget must be finite");
  EXPECT_DEATH(DeltaRestrictedPlanarLaplace(grid, 0.5, geo::Region(9, {0})),
               "must cover the grid");
  EXPECT_DEATH(DeltaRestrictedPlanarLaplace(grid, 0.5, geo::Region(16)),
               "must be non-empty");
  const DeltaRestrictedPlanarLaplace mech(grid, 0.5, set);
  EXPECT_DEATH(mech.WithAlpha(-1.0), "budget must be >= 0");
}

}  // namespace
}  // namespace priste::lppm
