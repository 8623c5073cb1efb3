// The traced run: replays a driver Run through the library's public calls,
// seeded identically, and records one span per call from the benchmark's
// own code. Nothing inside the library is instrumented.
#ifndef PRISTE_E2E_BENCH_REPLAY_H_
#define PRISTE_E2E_BENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace priste::e2e {

/// One timed call. Step spans are children of their run span; call spans
/// are children of their step span.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  // index into Tracer::spans, -1 for a run span
  int run = 0;
};

/// Span names. probe.* spans are calls the driver does not make: the
/// CandidateVectors side calls that split a check into vectors and QP.
namespace span {
inline constexpr char kRun[] = "run";
inline constexpr char kStep[] = "step";
inline constexpr char kInstantiate[] = "lppm.instantiate";
inline constexpr char kDeltaMech[] = "lppm.delta_mech";
inline constexpr char kPerturb[] = "lppm.perturb";
inline constexpr char kColumn[] = "lppm.column";
inline constexpr char kDeltaSet[] = "lppm.delta_set";
inline constexpr char kPropagate[] = "markov.propagate";
inline constexpr char kPosterior[] = "hmm.posterior_update";
inline constexpr char kVectors[] = "probe.vectors";
inline constexpr char kVectorsRepeat[] = "probe.vectors_repeat";
inline constexpr char kCheck[] = "core.check";
inline constexpr char kCommit[] = "core.commit";
}  // namespace span

/// Spans plus the counter deltas the replay reads at the same call sites.
/// Keeps everything in memory; WriteSpans writes it out at the end.
struct Tracer {
  std::vector<Span> spans;

  long checks = 0;
  long accepted_checks = 0;
  long releases = 0;
  long uncertified_commits = 0;
  /// ReleaseStepDiagnostics deltas across the probe.vectors calls.
  long vectors_cold = 0;
  long vectors_dense = 0;
  long vectors_cached = 0;
  /// Process counters (qp.*, cache.emission.*) across the matching calls.
  long qp_slices = 0;
  long qp_timeouts = 0;
  long cache_hits = 0;
  long cache_misses = 0;
};

/// Replays `input` as the driver's Run would, recording spans under run id
/// `run_id`.
Released TracedReplay(const Bench& bench, const RunInput& input,
                      int run_id, Tracer& tracer);

/// Writes the spans as JSON lines. Returns false when the file cannot be
/// written.
bool WriteSpans(const Tracer& tracer, const std::string& path);

}  // namespace priste::e2e

#endif  // PRISTE_E2E_BENCH_REPLAY_H_
