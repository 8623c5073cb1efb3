// End-to-end PriSTE benchmark.
//
//   priste_e2e_bench --workload NAME --seed N --seconds S --trace 0|1
//                    [--spans-out PATH]
//   priste_e2e_bench --selftest
//
// One process per workload: a closed loop with one client that calls the
// driver's Run directly, one Run at a time, on one core (PRISTE_THREADS=1).
// --trace 0 measures the end-to-end metrics with nothing traced; --trace 1
// runs the traced replay next to every Run and reports the per-layer
// metrics. Both run the verify leg on every input. The last line of stdout is
// the result object; the lines before it, all starting with '#', describe
// the run. README.md documents every metric.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "priste/common/metrics.h"
#include "priste/common/strings.h"
#include "priste/common/timer.h"
#include "priste/eval/metrics.h"
#include "priste/lppm/planar_laplace.h"
#include "replay.h"
#include "verify.h"

extern char** environ;

namespace priste::e2e {
namespace {

// Set-up is repeated on a cold emission cache at least kMinSetups times and
// until kSetupPhaseSeconds have passed (at most kMaxSetups times), so a
// millisecond set-up is sampled across the host's second-scale speed swings;
// setup_s is the median.
constexpr int kMinSetups = 3;
constexpr double kSetupPhaseSeconds = 2.0;
constexpr int kMaxSetups = 1000;
// CPU time over wall time above this means work ran on a second thread.
constexpr double kMaxCpuWallRatio = 1.10;
// The tail percentile is the highest one with this many inputs beyond it.
constexpr int kTailRuns = 10;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}

std::string ReadFirstLine(const char* path, const char* prefix) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (prefix == nullptr || line.rfind(prefix, 0) == 0) return line;
  }
  return "unknown";
}

// The resident-set high-water mark of this process image. Not ru_maxrss:
// that survives exec, so it would report the launching interpreter's peak
// whenever that is larger.
double PeakRssMb() {
  const std::string line = ReadFirstLine("/proc/self/status", "VmHWM:");
  return std::strtod(line.c_str() + std::strlen("VmHWM:"), nullptr) / 1024.0;
}

// Linear interpolation between closest ranks.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string CpuModel() {
  const std::string line = ReadFirstLine("/proc/cpuinfo", "model name");
  const size_t colon = line.find(": ");
  return colon == std::string::npos ? line : line.substr(colon + 2);
}

// Refuses to run outside the pinned environment: PRISTE_THREADS=1 and no
// other PRISTE_* knob (cache sizes, SIMD, cold-path and scale overrides).
bool CheckEnvironment() {
  const char* threads = std::getenv("PRISTE_THREADS");
  if (threads == nullptr || std::strcmp(threads, "1") != 0) {
    std::fprintf(stderr, "priste_e2e_bench: PRISTE_THREADS must be 1\n");
    return false;
  }
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "PRISTE_", 7) == 0 &&
        std::strncmp(*env, "PRISTE_THREADS=", 15) != 0) {
      std::fprintf(stderr, "priste_e2e_bench: unset %s\n", *env);
      return false;
    }
  }
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  if (std::strcmp(PRISTE_E2E_BUILD_TYPE, "Release") != 0 || !ndebug) {
    std::fprintf(stderr, "priste_e2e_bench: needs a Release build, got '%s'\n",
                 PRISTE_E2E_BUILD_TYPE);
    return false;
  }
  return true;
}

void PrintEnvironment() {
  // Any PLM construction runs the kernel dispatch, which publishes the gauge.
  lppm::PlanarLaplaceMechanism(geo::Grid(2, 2, 1.0), 0.0);
  std::printf("# env: build=%s PRISTE_THREADS=1 simd.dispatch=%ld nproc=%ld\n",
              PRISTE_E2E_BUILD_TYPE,
              MetricsRegistry::Global().GetGauge("simd.dispatch").value(),
              sysconf(_SC_NPROCESSORS_ONLN));
  std::printf("# env: cpu=\"%s\" loadavg=\"%s\"\n",
              CpuModel().c_str(),
              ReadFirstLine("/proc/loadavg", nullptr).c_str());
}

void PrintWorkload(const Bench& bench) {
  std::printf("# workload %s: %dx%d grid, T=%d, %s, %s, epsilon=%.2f, "
              "%.2f-PLM, decay %.2f, %zu ladder rungs + alpha=0\n",
              bench.spec.name.c_str(), bench.spec.width, bench.spec.height,
              bench.spec.horizon, bench.event->ToString().c_str(),
              bench.spec.delta_loc
                  ? StrFormat("delta-location set delta=%.2f", bench.spec.delta).c_str()
                  : "geo-indistinguishability",
              bench.options.epsilon, bench.options.initial_alpha,
              bench.options.decay, bench.ladder.size());
}

bool PrintResult(bool correct, long attempted, long failed,
                 const std::vector<Metric>& metrics) {
  std::string json = StrFormat(
      "{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
      correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (!std::isfinite(metrics[i].value)) {
      std::fprintf(stderr, "priste_e2e_bench: metric %s is not finite\n",
                   metrics[i].name.c_str());
      return false;
    }
    json += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i == 0 ? "" : ", ", metrics[i].name.c_str(),
                      metrics[i].value, metrics[i].unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return true;
}

// Per-Run utility, computed for the first spec.utility_runs Runs only.
struct Utility {
  double alpha_sum = 0.0;
  double euclid_sum = 0.0;
  double draws = 0.0;
  double releases = 0.0;
  double conservative = 0.0;
  int runs = 0;

  void Add(const Bench& bench, const RunInput& input, const core::RunResult& run) {
    alpha_sum += eval::MeanReleasedAlpha(run);
    euclid_sum += eval::MeanEuclideanErrorKm(input.truth, run, bench.grid);
    for (const core::StepRecord& step : run.steps) draws += step.halvings + 1;
    releases += static_cast<double>(run.steps.size());
    conservative += run.total_conservative;
    ++runs;
  }
  double mean_alpha() const { return Ratio(alpha_sum, runs); }
  double euclid_km() const { return Ratio(euclid_sum, runs); }
  double draws_per_release() const { return Ratio(draws, releases); }
  double conservative_per_run() const { return Ratio(conservative, runs); }
};

// Verify-leg totals over all Runs of a process.
struct VerifyTotals {
  long attempted = 0;
  long failed = 0;
  long certified = 0;
  long refuted = 0;
  double worst_condition = -1e300;
  double drift_max = 0.0;

  void Add(int index, const VerifyOutcome& v) {
    ++attempted;
    if (!v.passed()) {
      ++failed;
      std::printf("# run %d FAILED verify: %s\n", index, v.failure.c_str());
    }
    certified += v.certified_steps;
    refuted += v.refuted_steps;
    worst_condition = std::max(worst_condition, v.worst_condition);
    drift_max = std::max(drift_max, v.vector_drift_max);
  }
  void Print() const {
    std::printf("# verify: failed_run_ratio=%ld/%ld certified_steps=%ld "
                "refuted_steps=%ld worst_condition=%.3g (tol %.0e, %d random "
                "priors + vertices + uniform) vector_drift_max=%.3g%s\n",
                failed, attempted, certified, refuted,
                certified > 0 ? worst_condition : 0.0, kOracleTol,
                kRandomPriors, drift_max,
                drift_max > 1e-9 ? " (ABOVE the 1e-9 the engine claims)" : "");
  }
};

bool CpuWallOk(double cpu, double wall) {
  const double ratio = Ratio(cpu, wall);
  std::printf("# cpu/wall over the loop: %.3f\n", ratio);
  if (ratio > kMaxCpuWallRatio) {
    std::fprintf(stderr,
                 "priste_e2e_bench: cpu/wall %.3f > %.2f: work ran on another "
                 "thread\n", ratio, kMaxCpuWallRatio);
    return false;
  }
  return true;
}

int Measure(const WorkloadSpec& spec, uint64_t seed, double seconds) {
  std::vector<double> setups;
  std::unique_ptr<Bench> bench;
  const Timer setup_phase;
  while (static_cast<int>(setups.size()) < kMinSetups ||
         (setup_phase.ElapsedSeconds() < kSetupPhaseSeconds &&
          static_cast<int>(setups.size()) < kMaxSetups)) {
    bench.reset();
    bench = Setup(spec);
    setups.push_back(bench->models_seconds + bench->ladder_seconds);
  }
  PrintWorkload(*bench);

  // Pass 1 runs and verifies fresh inputs until the two repeat passes are
  // expected to fill the rest of --seconds (and at least until the utility
  // prefix is done). Passes 2 and 3 run the same inputs again in the same
  // order, so a burst of host contention rarely hits one input twice; an
  // input's latency is the median of its three Runs. Every repeat must
  // release exactly what pass 1 released (the same-seed determinism check).
  std::vector<RunInput> inputs;
  std::vector<std::vector<double>> run_ms;  // per input, one entry per pass
  std::vector<Released> released;           // pass 1 release per input
  std::vector<bool> passed;                  // pass 1 verify outcome per input
  std::vector<bool> differs;                 // a repeat released differently
  Utility utility;
  VerifyTotals verify;
  double peak_rss_mb = 0.0;
  double pass1_run_seconds = 0.0;
  const double cpu0 = CpuSeconds();
  const Timer loop;
  for (int i = 0; i < spec.utility_runs ||
                  loop.ElapsedSeconds() + 2.0 * pass1_run_seconds < seconds;
       ++i) {
    inputs.push_back(MakeInput(*bench, seed, i));
    const Timer run_timer;
    const Result<core::RunResult> result = RunDriver(*bench, inputs.back());
    const double wall = run_timer.ElapsedSeconds();
    pass1_run_seconds += wall;
    run_ms.push_back({1e3 * wall});
    released.push_back(ReleasedBy(result));
    const VerifyOutcome v =
        VerifyRun(*bench, inputs.back(), result, MixSeed(seed, i, 1));
    verify.Add(i, v);
    passed.push_back(v.passed());
    differs.push_back(false);
    if (v.passed() && i < spec.utility_runs) {
      utility.Add(*bench, inputs.back(), *result);
    }
    if (i + 1 == spec.utility_runs) peak_rss_mb = PeakRssMb();
  }
  // An input fails when it failed the verify leg or a repeat released
  // differently; `attempted` counts inputs, each run three times.
  for (int pass = 2; pass <= 3; ++pass) {
    for (size_t i = 0; i < inputs.size(); ++i) {
      const Timer run_timer;
      const Result<core::RunResult> result = RunDriver(*bench, inputs[i]);
      run_ms[i].push_back(1e3 * run_timer.ElapsedSeconds());
      if (!result.ok() || ReleasedBy(result) != released[i]) differs[i] = true;
    }
  }
  long nondeterministic = 0;
  long failed = 0;
  for (size_t i = 0; i < inputs.size(); ++i) {
    nondeterministic += differs[i];
    failed += differs[i] || !passed[i];
  }
  const bool cpu_ok = CpuWallOk(CpuSeconds() - cpu0, loop.ElapsedSeconds());
  std::printf("# determinism (every input run 3 times): %ld of %zu inputs "
              "released differently on a repeat\n",
              nondeterministic, inputs.size());

  std::vector<double> input_ms;
  double input_seconds = 0.0;
  for (const std::vector<double>& ms : run_ms) {
    input_ms.push_back(Quantile(ms, 0.5));
    input_seconds += 1e-3 * input_ms.back();
  }
  const int n = static_cast<int>(input_ms.size());
  std::vector<double> sorted = input_ms;
  std::sort(sorted.begin(), sorted.end());
  const int tail_index = std::max(0, n - 1 - kTailRuns);
  std::printf("# workload %s seed %llu: %d inputs x 3 Runs in %.2f s; "
              "run_ms_tail is p%.1f of the per-input medians (%d beyond it)\n",
              spec.name.c_str(), static_cast<unsigned long long>(seed), n,
              loop.ElapsedSeconds(), 100.0 * (tail_index + 1) / std::max(1, n),
              n - 1 - tail_index);
  std::printf("# setup: %zu cold set-ups, median %.6f s, quartiles %.6f %.6f\n",
              setups.size(), Quantile(setups, 0.5), Quantile(setups, 0.25),
              Quantile(setups, 0.75));
  std::printf("# utility over the first %d Runs: mean_alpha=%.6f "
              "conservative_releases=%.3f per Run\n",
              utility.runs, utility.mean_alpha(), utility.conservative_per_run());
  verify.Print();

  const std::vector<Metric> metrics = {
      {"releases_per_s", Ratio(static_cast<double>(n) * spec.horizon, input_seconds), "1/s"},
      {"run_ms_p50", Quantile(input_ms, 0.5), "ms"},
      {"run_ms_tail", sorted[static_cast<size_t>(tail_index)], "ms"},
      {"setup_s", Quantile(setups, 0.5), "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"draws_per_release", utility.draws_per_release(), "count"},
      {"euclid_km", utility.euclid_km(), "km"},
  };
  if (!cpu_ok) return 4;
  return PrintResult(failed == 0, verify.attempted, failed, metrics) ? 0 : 1;
}

// Per-span-name totals of a tracer.
struct SpanTotals {
  std::map<std::string, double> seconds;
  std::map<std::string, long> calls;
  double run_seconds = 0.0;
  double bench_self = 0.0;  // step time outside every call span
  std::vector<double> step_ms;

  explicit SpanTotals(const Tracer& tracer) {
    std::vector<double> child_ns(tracer.spans.size(), 0.0);
    std::vector<double> repeat_ns(tracer.spans.size(), 0.0);
    for (const Span& s : tracer.spans) {
      if (s.parent < 0) continue;
      const double d = static_cast<double>(s.end_ns - s.start_ns);
      child_ns[static_cast<size_t>(s.parent)] += d;
      if (std::strcmp(s.name, span::kVectorsRepeat) == 0) {
        repeat_ns[static_cast<size_t>(s.parent)] += d;
      }
    }
    for (size_t i = 0; i < tracer.spans.size(); ++i) {
      const Span& s = tracer.spans[i];
      const double d = static_cast<double>(s.end_ns - s.start_ns);
      seconds[s.name] += 1e-9 * d;
      ++calls[s.name];
      if (std::strcmp(s.name, span::kRun) == 0) run_seconds += 1e-9 * d;
      if (std::strcmp(s.name, span::kStep) == 0) {
        bench_self += 1e-9 * (d - child_ns[i]);
        // The step as the driver pays it: each repeat probe stands for one
        // vector evaluation the check also makes again.
        step_ms.push_back(1e-6 * (d - 2.0 * repeat_ns[i]));
      }
    }
  }
  double Seconds(const char* name) const {
    const auto it = seconds.find(name);
    return it == seconds.end() ? 0.0 : it->second;
  }
  long Calls(const char* name) const {
    const auto it = calls.find(name);
    return it == calls.end() ? 0 : it->second;
  }
};

int Trace(const WorkloadSpec& spec, uint64_t seed, double seconds,
          const std::string& spans_out) {
  const std::unique_ptr<Bench> bench = Setup(spec);
  PrintWorkload(*bench);
  Tracer tracer;
  Utility utility;
  VerifyTotals verify;
  double run_seconds = 0.0;
  long mismatches = 0;
  const double cpu0 = CpuSeconds();
  const Timer loop;
  for (int i = 0; i < spec.utility_runs || loop.ElapsedSeconds() < seconds; ++i) {
    const RunInput input = MakeInput(*bench, seed, i);
    const Timer run_timer;
    const Result<core::RunResult> result = RunDriver(*bench, input);
    run_seconds += run_timer.ElapsedSeconds();
    if (!result.ok() || ReleasedBy(result) != TracedReplay(*bench, input, i, tracer)) {
      ++mismatches;
      std::printf("# run %d: traced replay released other cells than Run\n", i);
    }
    const VerifyOutcome v = VerifyRun(*bench, input, result, MixSeed(seed, i, 1));
    verify.Add(i, v);
    if (v.passed() && i < spec.utility_runs) utility.Add(*bench, input, *result);
  }
  const bool cpu_ok = CpuWallOk(CpuSeconds() - cpu0, loop.ElapsedSeconds());
  if (!spans_out.empty() && !WriteSpans(tracer, spans_out)) {
    std::fprintf(stderr, "priste_e2e_bench: cannot write %s\n", spans_out.c_str());
    return 1;
  }

  const SpanTotals totals(tracer);
  // Split of a check: the first probe is the Theorem-vector work as Run pays
  // it; the check minus the repeat probe is the QP (derived).
  const double vectors = totals.Seconds(span::kVectors);
  const double qp = totals.Seconds(span::kCheck) - totals.Seconds(span::kVectorsRepeat);
  const double lppm = totals.Seconds(span::kInstantiate) +
                      totals.Seconds(span::kDeltaMech) +
                      totals.Seconds(span::kPerturb) +
                      totals.Seconds(span::kColumn) +
                      totals.Seconds(span::kDeltaSet);
  const double markov = totals.Seconds(span::kPropagate);
  const double hmm = totals.Seconds(span::kPosterior);
  const double core_s = vectors + qp + totals.Seconds(span::kCommit);
  const double layered = lppm + markov + hmm + core_s + totals.bench_self;
  const double checks = static_cast<double>(tracer.checks);
  const bool valid = mismatches == 0;
  std::printf("# traced replay of %ld Runs: %s; spans=%zu%s%s\n", verify.attempted,
              valid ? "matches Run" : "INVALID (released cells differ from Run)",
              tracer.spans.size(), spans_out.empty() ? "" : " written to ",
              spans_out.c_str());
  std::printf("# core.qp_s is derived: core.check_s minus the repeat probe\n");
  verify.Print();

  // Layer times and call counts are per traced Run, so they compare across
  // builds however many Runs fit in the loop.
  const double runs = static_cast<double>(verify.attempted);
  const auto per_run = [&](double total) { return Ratio(total, runs); };
  const std::vector<Metric> metrics = {
      {"setup.ladder_s", bench->ladder_seconds, "s"},
      {"setup.models_s", bench->models_seconds, "s"},
      {"lppm.instantiate_s", per_run(totals.Seconds(span::kInstantiate)), "s/run"},
      {"lppm.instantiate_calls", per_run(totals.Calls(span::kInstantiate)), "count/run"},
      {"lppm.emission_cache_hit_ratio",
       Ratio(tracer.cache_hits, tracer.cache_hits + tracer.cache_misses), "ratio"},
      {"lppm.perturb_s", per_run(totals.Seconds(span::kPerturb)), "s/run"},
      {"lppm.column_s", per_run(totals.Seconds(span::kColumn)), "s/run"},
      {"lppm.delta_mech_s", per_run(totals.Seconds(span::kDeltaMech)), "s/run"},
      {"lppm.delta_mech_calls", per_run(totals.Calls(span::kDeltaMech)), "count/run"},
      {"lppm.delta_set_s", per_run(totals.Seconds(span::kDeltaSet)), "s/run"},
      {"markov.propagate_s", per_run(markov), "s/run"},
      {"hmm.posterior_update_s", per_run(hmm), "s/run"},
      {"core.check_s", per_run(totals.Seconds(span::kCheck)), "s/run"},
      {"core.check_calls", per_run(checks), "count/run"},
      {"core.check_accept_ratio", Ratio(tracer.accepted_checks, checks), "ratio"},
      {"core.checks_per_release", Ratio(checks, tracer.releases), "count"},
      {"core.vectors_s", per_run(vectors), "s/run"},
      {"core.vectors_cold_calls", per_run(tracer.vectors_cold), "count/run"},
      {"core.vectors_dense_calls", per_run(tracer.vectors_dense), "count/run"},
      {"core.vectors_cached_calls", per_run(tracer.vectors_cached), "count/run"},
      {"core.qp_s", per_run(qp), "s/run"},
      {"core.qp_slices_per_check", Ratio(tracer.qp_slices, checks), "count"},
      {"core.qp_timeouts", per_run(tracer.qp_timeouts), "count/run"},
      {"core.commit_s", per_run(totals.Seconds(span::kCommit)), "s/run"},
      {"core.commit_calls", per_run(totals.Calls(span::kCommit)), "count/run"},
      {"core.step_ms_p50", Quantile(totals.step_ms, 0.5), "ms"},
      {"core.step_ms_p99", Quantile(totals.step_ms, 0.99), "ms"},
      {"core.uncertified_commits", per_run(tracer.uncertified_commits), "count/run"},
      {"layer.lppm_share", Ratio(lppm, layered), "ratio"},
      {"layer.markov_share", Ratio(markov, layered), "ratio"},
      {"layer.hmm_share", Ratio(hmm, layered), "ratio"},
      {"layer.core_share", Ratio(core_s, layered), "ratio"},
      {"layer.bench_share", Ratio(totals.bench_self, layered), "ratio"},
      {"trace.overhead_ratio", Ratio(totals.run_seconds, run_seconds), "ratio"},
      {"trace.replica_mismatches", static_cast<double>(mismatches), "count"},
      {"verify.failed_run_ratio", Ratio(verify.failed, runs), "ratio"},
      {"verify.runs", runs, "count"},
      {"verify.certified_steps", static_cast<double>(verify.certified), "count"},
      {"verify.refuted_steps", static_cast<double>(verify.refuted), "count"},
      {"verify.vector_drift_max", verify.drift_max, "ratio"},
      {"utility.mean_alpha", utility.mean_alpha(), "alpha"},
      {"utility.conservative_releases", utility.conservative_per_run(), "count/run"},
  };

  if (!cpu_ok) return 4;
  return PrintResult(verify.failed == 0, verify.attempted, verify.failed, metrics)
             ? 0 : 1;
}

// The benchmark's own checks: the oracle refutes a fabricated over-budget
// release and the verify leg rejects malformed output, and the traced
// replay equals Run on every tiny workload.
int SelfTest() {
  int failures = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    std::printf("# selftest %s: %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };

  {
    // A 5-PLM on 1 km cells all but reports the true cell; releasing the
    // truth at every step, event window included, is far over ε = 0.5.
    const WorkloadSpec& spec = *FindWorkload("tiny_fig07");
    const std::unique_ptr<Bench> bench = Setup(spec, /*initial_alpha=*/5.0);
    const RunInput input = MakeInput(*bench, 1, 0);
    core::RunResult fabricated;
    for (int t = 1; t <= spec.horizon; ++t) {
      core::StepRecord step;
      step.t = t;
      step.true_cell = input.truth.At(t);
      step.released_cell = step.true_cell;
      step.released_alpha = 5.0;
      fabricated.steps.push_back(step);
      fabricated.released.Append(step.released_cell);
    }
    const VerifyOutcome over = VerifyRun(*bench, input, fabricated, 7);
    expect(over.refuted_steps > 0 && !over.passed(),
           StrFormat("oracle refutes a fabricated over-budget release "
                     "(%d of %d certified steps refuted, worst %.3g)",
                     over.refuted_steps, over.certified_steps,
                     over.worst_condition));

    core::RunResult off_ladder = fabricated;
    off_ladder.steps[1].released_alpha = 0.3;
    expect(!VerifyRun(*bench, input, off_ladder, 7).passed(),
           "verify rejects a budget that is no ladder rung");
    core::RunResult short_run = fabricated;
    short_run.steps.pop_back();
    expect(!VerifyRun(*bench, input, short_run, 7).passed(),
           "verify rejects a released trajectory shorter than T");
  }

  for (const char* name : {"tiny_fig07", "tiny_long", "tiny_delta"}) {
    const std::unique_ptr<Bench> bench = Setup(*FindWorkload(name));
    Tracer tracer;
    int matched = 0;
    int verified = 0;
    constexpr int kRuns = 4;
    for (int i = 0; i < kRuns; ++i) {
      const RunInput input = MakeInput(*bench, 3, i);
      const Result<core::RunResult> result = RunDriver(*bench, input);
      if (result.ok() && ReleasedBy(result) == TracedReplay(*bench, input, i, tracer)) {
        ++matched;
      }
      if (VerifyRun(*bench, input, result, 5).passed()) ++verified;
    }
    expect(matched == kRuns,
           StrFormat("%s: traced replay equals Run (%d/%d)", name, matched, kRuns));
    expect(verified == kRuns,
           StrFormat("%s: verify passes on real Runs (%d/%d)", name, verified, kRuns));
  }
  std::printf("# selftest: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: priste_e2e_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans-out PATH]\n"
               "       priste_e2e_bench --selftest\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  std::string spans_out;
  long long seed = -1;
  double seconds = -1.0;
  int trace = -1;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoll(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--spans-out" && has_value) {
      spans_out = argv[++i];
    } else {
      return Usage();
    }
  }
  if (!CheckEnvironment()) return 3;
  PrintEnvironment();
  if (selftest) return SelfTest();
  const WorkloadSpec* spec = FindWorkload(workload);
  if (spec == nullptr || seed < 0 || !(seconds > 0.0) || (trace != 0 && trace != 1)) {
    return Usage();
  }
  const uint64_t useed = static_cast<uint64_t>(seed);
  return trace == 1 ? Trace(*spec, useed, seconds, spans_out)
                    : Measure(*spec, useed, seconds);
}

}  // namespace
}  // namespace priste::e2e

int main(int argc, char** argv) { return priste::e2e::Main(argc, argv); }
