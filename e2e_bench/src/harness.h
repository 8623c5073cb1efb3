// Workloads, set-up and input generation of the end-to-end PriSTE benchmark.
//
// Every workload is the paper's synthetic Section V-A set-up: a σ = 10
// Gaussian-kernel chain with a uniform start on a w×h grid of 1 km cells,
// PRESENCE(S={1:10}, T={4:8}) mapped onto the grid and horizon the way the
// figure benches map it, ε = 0.5, a 0.2-PLM with decay ½ and the
// eval::DefaultBenchOptions QP settings. README.md says why each workload
// was chosen.
#ifndef PRISTE_E2E_BENCH_HARNESS_H_
#define PRISTE_E2E_BENCH_HARNESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "priste/common/random.h"
#include "priste/common/status.h"
#include "priste/core/event_model.h"
#include "priste/core/priste.h"
#include "priste/core/priste_delta_loc.h"
#include "priste/core/priste_geo_ind.h"
#include "priste/event/event.h"
#include "priste/geo/grid.h"
#include "priste/geo/trajectory.h"
#include "priste/lppm/mechanism_family.h"
#include "priste/markov/markov_chain.h"

namespace priste::e2e {

inline constexpr double kSigma = 10.0;
inline constexpr double kEpsilon = 0.5;
inline constexpr double kInitialAlpha = 0.2;

struct WorkloadSpec {
  std::string name;
  int width = 0;
  int height = 0;
  int horizon = 0;
  /// Algorithm 3 (δ-location set) instead of Algorithm 2.
  bool delta_loc = false;
  double delta = 0.0;
  /// The utility metrics and peak_rss_mb are taken over exactly the first
  /// `utility_runs` inputs, so they are a deterministic function of the seed
  /// however many inputs fit in the measured time.
  int utility_runs = 0;
};

/// The benchmark workloads plus the tiny self-test workloads (tiny_*).
const WorkloadSpec* FindWorkload(std::string_view name);

/// Everything the measured loop, the traced replay and the verify leg share.
/// Built by Setup(); immutable afterwards.
struct Bench {
  Bench(WorkloadSpec s, geo::Grid g, markov::MarkovChain c)
      : spec(std::move(s)), grid(g), chain(std::move(c)) {}

  WorkloadSpec spec;
  geo::Grid grid;
  markov::MarkovChain chain;
  event::EventPtr event;
  core::PristeOptions options;
  /// The lifted event models the harness replays and verifies against. On
  /// the geo-ind workloads they are the very models the driver runs.
  std::vector<std::shared_ptr<const core::LiftedEventModel>> models;
  std::shared_ptr<const lppm::MechanismFamily> family;  // geo-ind only
  std::unique_ptr<core::PristeGeoInd> geo_ind;
  std::unique_ptr<core::PristeDeltaLoc> delta_loc;
  /// The budgets a release step may check, in halving order (every value
  /// ≥ min_alpha); a released budget is one of these or 0.
  std::vector<double> ladder;

  /// Set-up phases, seconds: chain, event, lifted models and driver; then
  /// Instantiate of every ladder rung and α = 0 (geo-ind only).
  double models_seconds = 0.0;
  double ladder_seconds = 0.0;
};

/// Builds a Bench on a cold emission cache (the cache is cleared first).
/// `initial_alpha` overrides the PLM budget (the oracle self-test uses it to
/// fabricate an over-budget ladder).
std::unique_ptr<Bench> Setup(const WorkloadSpec& spec,
                             double initial_alpha = kInitialAlpha);

/// One Run's input: the true trajectory, and the generator state Run is
/// handed after the trajectory was sampled from it.
struct RunInput {
  geo::Trajectory truth;
  Rng rng;
};

/// Input `index` of the workload stream of `seed` (random access; the same
/// (seed, index) always gives the same input).
RunInput MakeInput(const Bench& bench, uint64_t seed, int index);

/// Calls the driver's Run (PristeGeoInd::Run or PristeDeltaLoc::Run).
Result<core::RunResult> RunDriver(const Bench& bench, const RunInput& input);

/// What a Run released: the cell and the budget of every step.
struct Released {
  std::vector<int> cells;
  std::vector<double> alphas;

  friend bool operator==(const Released&, const Released&) = default;
};

/// The release of a driver Run; empty when the Run returned an error.
Released ReleasedBy(const Result<core::RunResult>& result);

/// A seed for a (seed, index, salt) triple, for streams other than inputs.
uint64_t MixSeed(uint64_t seed, uint64_t index, uint64_t salt);

}  // namespace priste::e2e

#endif  // PRISTE_E2E_BENCH_HARNESS_H_
