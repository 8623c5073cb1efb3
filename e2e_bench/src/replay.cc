#include "replay.h"

#include <chrono>
#include <cstdio>
#include <memory>

#include "priste/common/check.h"
#include "priste/common/metrics.h"
#include "priste/core/release_step.h"
#include "priste/hmm/forward_backward.h"
#include "priste/lppm/delta_location_set.h"

namespace priste::e2e {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int parent, int run)
      : tracer_(tracer), index_(static_cast<int>(tracer.spans.size())) {
    tracer_.spans.push_back(Span{name, NowNs(), 0, parent, run});
  }
  ~ScopedSpan() { tracer_.spans[static_cast<size_t>(index_)].end_ns = NowNs(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }

 private:
  Tracer& tracer_;
  int index_;
};

// Times `fn` as a child span of `parent` and returns its result.
template <typename Fn>
auto Timed(Tracer& tracer, const char* name, int parent, int run, Fn&& fn) {
  const ScopedSpan scoped(tracer, name, parent, run);
  return fn();
}

struct Counters {
  Counter& qp_slices = MetricsRegistry::Global().GetCounter("qp.slices_solved");
  Counter& qp_timeouts = MetricsRegistry::Global().GetCounter("qp.timeouts");
  Counter& cache_hits =
      MetricsRegistry::Global().GetCounter("cache.emission.hits");
  Counter& cache_misses =
      MetricsRegistry::Global().GetCounter("cache.emission.misses");
};

Counters& GlobalCounters() {
  static Counters* counters = new Counters();
  return *counters;
}

// The replay's share of one candidate check: the two probes, then the
// check itself. Returns the driver's outcome.
core::ReleaseCheckOutcome TracedCheck(const Bench& bench,
                                      core::ReleaseStepContext& context,
                                      const linalg::Vector& column, int parent,
                                      int run, Tracer& tracer) {
  for (size_t i = 0; i < bench.models.size(); ++i) {
    const core::ReleaseStepDiagnostics before = context.diagnostics();
    Timed(tracer, span::kVectors, parent, run,
          [&] { return context.CandidateVectors(i, column); });
    const core::ReleaseStepDiagnostics& after = context.diagnostics();
    tracer.vectors_cold += after.cold_checks - before.cold_checks;
    tracer.vectors_dense +=
        after.dense_prefix_checks - before.dense_prefix_checks;
    tracer.vectors_cached += after.cached_checks - before.cached_checks;
    // The same call again costs what the check's own vector evaluation
    // costs once the step's shared rows exist; core.qp_s subtracts it.
    Timed(tracer, span::kVectorsRepeat, parent, run,
          [&] { return context.CandidateVectors(i, column); });
  }
  Counters& counters = GlobalCounters();
  const long slices = counters.qp_slices.value();
  const long timeouts = counters.qp_timeouts.value();
  core::ReleaseCheckOutcome outcome =
      Timed(tracer, span::kCheck, parent, run, [&] {
        return context.CheckCandidate(column, bench.options.epsilon,
                                      bench.options.qp_threshold_seconds);
      });
  tracer.qp_slices += counters.qp_slices.value() - slices;
  tracer.qp_timeouts += counters.qp_timeouts.value() - timeouts;
  ++tracer.checks;
  if (outcome.all_satisfied) ++tracer.accepted_checks;
  return outcome;
}

std::unique_ptr<core::ReleaseStepContext> MakeContext(const Bench& bench,
                                                      const core::QpSolver& solver) {
  std::vector<const core::LiftedEventModel*> raw;
  for (const auto& model : bench.models) raw.push_back(model.get());
  auto context = std::make_unique<core::ReleaseStepContext>(
      std::move(raw), &solver, bench.options.normalize_emissions,
      bench.options.release);
  context->SetHorizonHint(bench.spec.horizon);
  return context;
}

// Algorithm 2, as PristeGeoInd::Run runs it.
void ReplayGeoInd(const Bench& bench, const RunInput& input, int run_span,
                  int run, Tracer& tracer, Released& out) {
  const core::PristeOptions& options = bench.options;
  const core::QpSolver solver(options.qp);
  const auto context = MakeContext(bench, solver);
  Counters& counters = GlobalCounters();
  Rng rng = input.rng;
  const auto instantiate = [&](double alpha, int parent) {
    const long hits = counters.cache_hits.value();
    const long misses = counters.cache_misses.value();
    auto mech = Timed(tracer, span::kInstantiate, parent, run,
                      [&] { return bench.family->Instantiate(alpha); });
    tracer.cache_hits += counters.cache_hits.value() - hits;
    tracer.cache_misses += counters.cache_misses.value() - misses;
    return mech;
  };

  for (int t = 1; t <= input.truth.length(); ++t) {
    const ScopedSpan step(tracer, span::kStep, run_span, run);
    const int s = step.index();
    const int true_cell = input.truth.At(t);
    double alpha = options.initial_alpha;
    for (;;) {
      const bool uniform = alpha < options.min_alpha;
      const auto mech = instantiate(uniform ? 0.0 : alpha, s);
      const int o = Timed(tracer, span::kPerturb, s, run,
                          [&] { return mech->Perturb(true_cell, rng); });
      const linalg::Vector column = Timed(tracer, span::kColumn, s, run, [&] {
        return mech->emission().EmissionColumn(o);
      });
      bool accept = uniform;
      if (!uniform) {
        accept = TracedCheck(bench, *context, column, s, run, tracer)
                     .all_satisfied;
      }
      if (accept) {
        Timed(tracer, span::kCommit, s, run, [&] { context->Commit(column); });
        if (uniform) ++tracer.uncertified_commits;
        ++tracer.releases;
        out.cells.push_back(o);
        out.alphas.push_back(uniform ? 0.0 : alpha);
        break;
      }
      alpha *= options.decay;
    }
  }
}

// Algorithm 3, as PristeDeltaLoc::Run runs it. A failed δ-set or posterior
// step ends the replay short, which the comparison with the driver's Run
// reports as a mismatch.
void ReplayDeltaLoc(const Bench& bench, const RunInput& input, int run_span,
                    int run, Tracer& tracer, Released& out) {
  const core::PristeOptions& options = bench.options;
  const core::QpSolver solver(options.qp);
  const auto context = MakeContext(bench, solver);
  Rng rng = input.rng;
  linalg::Vector posterior = bench.chain.initial();

  for (int t = 1; t <= input.truth.length(); ++t) {
    const ScopedSpan step(tracer, span::kStep, run_span, run);
    const int s = step.index();
    const int true_cell = input.truth.At(t);
    const linalg::Vector predicted = Timed(tracer, span::kPropagate, s, run, [&] {
      return bench.chain.transition().Propagate(posterior);
    });
    StatusOr<geo::Region> location_set = Timed(
        tracer, span::kDeltaSet, s, run,
        [&] { return lppm::DeltaLocationSet(predicted, bench.spec.delta); });
    if (!location_set.ok()) return;

    double alpha = options.initial_alpha;
    linalg::Vector column;
    for (;;) {
      const double effective = alpha < options.min_alpha ? 0.0 : alpha;
      const auto mech = Timed(tracer, span::kDeltaMech, s, run, [&] {
        return std::make_unique<lppm::DeltaRestrictedPlanarLaplace>(
            bench.grid, effective, *location_set);
      });
      const int o = Timed(tracer, span::kPerturb, s, run,
                          [&] { return mech->Perturb(true_cell, rng); });
      column = Timed(tracer, span::kColumn, s, run,
                     [&] { return mech->emission().EmissionColumn(o); });
      const bool uniform = effective == 0.0;
      bool accept = uniform;
      if (!uniform) {
        accept = TracedCheck(bench, *context, column, s, run, tracer)
                     .all_satisfied;
      }
      if (accept) {
        Timed(tracer, span::kCommit, s, run, [&] { context->Commit(column); });
        if (uniform) ++tracer.uncertified_commits;
        ++tracer.releases;
        out.cells.push_back(o);
        out.alphas.push_back(effective);
        break;
      }
      alpha *= options.decay;
    }
    StatusOr<linalg::Vector> updated = Timed(
        tracer, span::kPosterior, s, run,
        [&] { return hmm::PosteriorUpdate(predicted, column); });
    if (!updated.ok()) return;
    posterior = *std::move(updated);
  }
}

}  // namespace

Released TracedReplay(const Bench& bench, const RunInput& input,
                      int run_id, Tracer& tracer) {
  Released out;
  const ScopedSpan run(tracer, span::kRun, -1, run_id);
  if (bench.spec.delta_loc) {
    ReplayDeltaLoc(bench, input, run.index(), run_id, tracer, out);
  } else {
    ReplayGeoInd(bench, input, run.index(), run_id, tracer, out);
  }
  return out;
}

bool WriteSpans(const Tracer& tracer, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (const Span& s : tracer.spans) {
    std::fprintf(file,
                 "{\"run\":%d,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d}\n",
                 s.run, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent);
  }
  return std::fclose(file) == 0;
}

}  // namespace priste::e2e
