#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "priste/core/priste_delta_loc.h"
#include "priste/core/priste_geo_ind.h"
#include "priste/event/presence.h"
#include "priste/geo/gaussian_grid_model.h"
#include "priste/linalg/kernels.h"

namespace priste::core {
namespace {

// The dispatch layer's end-to-end contract: the scalar and SIMD kernel paths
// produce BIT-identical numbers, so a full PristeGeoInd run — forward/backward
// recursions, release-step caches, QP sweeps, sampling — must make the exact
// same decisions and release the exact same trajectory under either path. On
// a host without AVX2 both runs take the scalar table and the test is
// trivially green.

struct RunRecord {
  std::vector<int> cells;
  std::vector<double> alphas;
  std::vector<int> halvings;
};

// A side×side geo-ind run (delta < 0) or a δ-location-set run. At side 4
// the m = 16 row blocks of the interleaved kernels have no tail; side 5
// (m = 25) leaves one row and one lane tail in every dense product.
RunRecord RunPipeline(bool simd, int side, double delta) {
  const bool previous = linalg::kernels::SetSimdEnabledForTest(simd);
  const geo::Grid grid(side, side, 1.0);
  const geo::GaussianGridModel model(grid, 1.0);
  const size_t m = grid.num_cells();
  const auto ev = std::make_shared<event::PresenceEvent>(
      geo::Region(m, {0, 1, side, side + 1}),
      /*start=*/3, /*end=*/4);
  PristeOptions options;
  options.epsilon = 0.5;
  options.initial_alpha = 0.4;
  options.qp_threshold_seconds = 5.0;
  Rng rng(21);
  const linalg::Vector pi = linalg::Vector::UniformProbability(m);
  const markov::MarkovChain chain(model.transition(), pi);
  const geo::Trajectory truth(chain.Sample(6, rng));
  const auto result =
      delta < 0.0
          ? PristeGeoInd(grid, model.transition(), {ev}, options).Run(truth, rng)
          : PristeDeltaLoc(grid, model.transition(), {ev}, delta, pi, options)
                .Run(truth, rng);
  linalg::kernels::SetSimdEnabledForTest(previous);
  EXPECT_TRUE(result.ok()) << result.status();
  RunRecord record;
  if (!result.ok()) return record;
  for (const auto& step : result->steps) {
    record.cells.push_back(step.released_cell);
    record.alphas.push_back(step.released_alpha);
    record.halvings.push_back(step.halvings);
  }
  return record;
}

void ExpectIdenticalAcrossPaths(int side, double delta) {
  const RunRecord scalar = RunPipeline(/*simd=*/false, side, delta);
  const RunRecord simd = RunPipeline(/*simd=*/true, side, delta);
  ASSERT_EQ(scalar.cells.size(), simd.cells.size());
  ASSERT_FALSE(scalar.cells.empty());
  // Exact equality on the doubles, not a tolerance: equal bits in, equal
  // decisions and equal bits out is precisely the kernels' guarantee.
  EXPECT_EQ(scalar.cells, simd.cells);
  EXPECT_EQ(scalar.alphas, simd.alphas);
  EXPECT_EQ(scalar.halvings, simd.halvings);
}

TEST(SimdBitIdentityTest, FullPristeGeoIndRunIsBitIdenticalAcrossPaths) {
  ExpectIdenticalAcrossPaths(/*side=*/4, /*delta=*/-1.0);
}

TEST(SimdBitIdentityTest, GeoIndRunWithKernelTailsIsBitIdenticalAcrossPaths) {
  ExpectIdenticalAcrossPaths(/*side=*/5, /*delta=*/-1.0);
}

TEST(SimdBitIdentityTest, PristeDeltaLocRunIsBitIdenticalAcrossPaths) {
  ExpectIdenticalAcrossPaths(/*side=*/5, /*delta=*/0.2);
}

}  // namespace
}  // namespace priste::core
