#include "harness.h"

#include <array>
#include <utility>

#include "priste/common/timer.h"
#include "priste/core/two_world.h"
#include "priste/eval/experiment.h"
#include "priste/event/presence.h"
#include "priste/geo/gaussian_grid_model.h"
#include "priste/lppm/emission_cache.h"

namespace priste::e2e {

namespace {

// utility_runs: the inputs the utility metrics and peak_rss_mb are taken
// over; the measured loop never stops before them. 48 on geoind_fig07,
// whose 0.15 s Runs make them cheap and whose halvings vary by trajectory;
// 24 where they already take most of the measured time.
const std::array<WorkloadSpec, 6> kWorkloads = {{
    {"geoind_fig07", 16, 16, 30, false, 0.0, 48},
    {"geoind_long", 8, 8, 160, false, 0.0, 24},
    {"deltaloc_fig10", 16, 16, 12, true, 0.2, 24},
    // Self-test scale: the same three code paths on a 4×4 map (T = 10 stays
    // on the cold chain, T = 40 ≥ 2m engages the dense prefix).
    {"tiny_fig07", 4, 4, 10, false, 0.0, 4},
    {"tiny_long", 4, 4, 40, false, 0.0, 4},
    {"tiny_delta", 4, 4, 8, true, 0.2, 4},
}};

}  // namespace

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

uint64_t MixSeed(uint64_t seed, uint64_t index, uint64_t salt) {
  // SplitMix64 finalizer over a combination of the three words.
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + (index + 1) * 0xBF58476D1CE4E5B9ULL +
               salt * 0x94D049BB133111EBULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::unique_ptr<Bench> Setup(const WorkloadSpec& spec, double initial_alpha) {
  lppm::EmissionCache::Shared().Clear();

  const Timer models_timer;
  eval::ExperimentScale scale;
  scale.grid_width = spec.width;
  scale.grid_height = spec.height;
  scale.horizon = spec.horizon;
  const geo::GaussianGridModel mobility(geo::Grid(spec.width, spec.height, 1.0),
                                        kSigma);
  auto bench = std::make_unique<Bench>(spec, mobility.grid(),
                                       mobility.ChainUniformStart());
  // PRESENCE(S={1:10}, T={4:8}) as bench_common.h's ScaledPresence maps it.
  const int t_lo = scale.MapTimestamp(4);
  bench->event = event::PresenceEvent::Make(
      bench->grid.num_cells(), 1, scale.MapStateCount(10), t_lo,
      std::max(t_lo, scale.MapTimestamp(8)));
  bench->options = eval::DefaultBenchOptions(kEpsilon, initial_alpha);
  if (spec.delta_loc) {
    bench->delta_loc = std::make_unique<core::PristeDeltaLoc>(
        bench->grid, bench->chain.transition(),
        std::vector<event::EventPtr>{bench->event}, spec.delta,
        bench->chain.initial(), bench->options);
  } else {
    bench->models.push_back(std::make_shared<core::TwoWorldModel>(
        bench->chain.transition(), bench->event));
    bench->family = std::make_shared<lppm::PlanarLaplaceFamily>(bench->grid);
    bench->geo_ind = std::make_unique<core::PristeGeoInd>(
        bench->grid, bench->models, bench->options, bench->family);
  }
  bench->models_seconds = models_timer.ElapsedSeconds();

  for (double alpha = bench->options.initial_alpha;
       alpha >= bench->options.min_alpha; alpha *= bench->options.decay) {
    bench->ladder.push_back(alpha);
  }
  const Timer ladder_timer;
  if (bench->family != nullptr) {
    for (const double alpha : bench->ladder) bench->family->Instantiate(alpha);
    bench->family->Instantiate(0.0);
  }
  bench->ladder_seconds = ladder_timer.ElapsedSeconds();

  // PristeDeltaLoc builds its lifted models internally; the harness keeps
  // its own equal copies for the replay and the verify leg, outside the
  // timed set-up.
  if (spec.delta_loc) {
    bench->models.push_back(std::make_shared<core::TwoWorldModel>(
        bench->chain.transition(), bench->event));
  }
  return bench;
}

RunInput MakeInput(const Bench& bench, uint64_t seed, int index) {
  Rng rng(MixSeed(seed, static_cast<uint64_t>(index), /*salt=*/0));
  geo::Trajectory truth(bench.chain.Sample(bench.spec.horizon, rng));
  return RunInput{std::move(truth), rng};
}

Result<core::RunResult> RunDriver(const Bench& bench, const RunInput& input) {
  Rng rng = input.rng;
  if (bench.delta_loc != nullptr) return bench.delta_loc->Run(input.truth, rng);
  return bench.geo_ind->Run(input.truth, rng);
}

Released ReleasedBy(const Result<core::RunResult>& result) {
  Released out;
  if (!result.ok()) return out;
  for (const core::StepRecord& step : result->steps) {
    out.cells.push_back(step.released_cell);
    out.alphas.push_back(step.released_alpha);
  }
  return out;
}

}  // namespace priste::e2e
