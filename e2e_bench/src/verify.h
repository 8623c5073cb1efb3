// The verify leg: output checks on every Run, plus an independent oracle
// that re-derives each certified release's Theorem IV.1 conditions from a
// fresh cold PrivacyQuantifier (no caches, no warm state) and evaluates
// them at a fixed set of attacker priors.
#ifndef PRISTE_E2E_BENCH_VERIFY_H_
#define PRISTE_E2E_BENCH_VERIFY_H_

#include <cstdint>
#include <string>

#include "harness.h"

namespace priste::e2e {

/// Refutation threshold on the Eq. (15)/(16) left-hand sides, evaluated on
/// (ā, b̄, c̄) with (b̄, c̄) jointly rescaled to max|c̄| = 1 (the conditions'
/// signs are invariant under that rescaling, and every dot product with a
/// prior is then in [0, 1]). Each side is then a sum of terms bounded by
/// 2e^ε ≈ 3.3 in magnitude, the engine's documented vector agreement with
/// the cold chain is ≤ 1e-9 relative, and double rounding over m ≤ 256
/// terms is ~1e-13: 1e-8 is an order above the first two combined. Fixed
/// from that scale alone; never tuned to make a finding appear or vanish.
inline constexpr double kOracleTol = 1e-8;

/// Seeded random simplex priors per certified step (Dirichlet(1) draws), on
/// top of every vertex e_i and the uniform prior. The oracle only samples
/// priors, so a clean result is a lower bound on violations, not a proof.
inline constexpr int kRandomPriors = 16;

struct VerifyOutcome {
  /// Empty when every check passed; otherwise the first failure.
  std::string failure;
  /// Steps released after a passing check (α > 0), and those the oracle
  /// refuted.
  int certified_steps = 0;
  int refuted_steps = 0;
  /// Largest normalized condition value the oracle saw on certified steps.
  double worst_condition = -1e300;
  /// Largest relative gap between the engine's CandidateVectors and the
  /// cold recompute over the committed prefixes.
  double vector_drift_max = 0.0;

  bool passed() const { return failure.empty(); }
};

/// Verifies one driver Run of `input`. `oracle_seed` seeds the random
/// priors.
VerifyOutcome VerifyRun(const Bench& bench, const RunInput& input,
                        const Result<core::RunResult>& result,
                        uint64_t oracle_seed);

}  // namespace priste::e2e

#endif  // PRISTE_E2E_BENCH_VERIFY_H_
