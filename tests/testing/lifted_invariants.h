#ifndef PRISTE_TESTS_TESTING_LIFTED_INVARIANTS_H_
#define PRISTE_TESTS_TESTING_LIFTED_INVARIANTS_H_

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "priste/core/event_model.h"
#include "priste/markov/schedule.h"
#include "testing/test_util.h"

namespace priste::testing {

/// The base schedules the invariant is checked over: a dense matrix, a CSR
/// ring walk (m >= kSparseMinStates) and a two-matrix cyclic schedule that
/// alternates the two, so consecutive steps read different matrices.
inline std::vector<std::pair<std::string, markov::TransitionSchedule>>
InvariantSchedules(size_t m, Rng& rng) {
  const markov::TransitionMatrix dense = RandomTransition(m, rng);
  const markov::TransitionMatrix csr = RingWalk(m, true, rng);
  PRISTE_CHECK(csr.has_sparse());
  auto cyclic = markov::TransitionSchedule::Cyclic({dense, csr});
  PRISTE_CHECK(cyclic.ok());
  std::vector<std::pair<std::string, markov::TransitionSchedule>> out;
  out.emplace_back("dense", markov::TransitionSchedule::Homogeneous(dense));
  out.emplace_back("csr", markov::TransitionSchedule::Homogeneous(csr));
  out.emplace_back("cyclic", std::move(cyclic).value());
  return out;
}

/// Checks the LiftedEventModel invariant past the event window: at every
/// step t in [event_end(), event_end() + steps) the lifted column and row
/// steps act as I_k ⊗ M_t — each block equals the base BackwardSpan /
/// PropagateSpan of that block, bit for bit — and an emission acts as
/// I_k ⊗ D. Every third block (shifting with t) is zero, so kernels that
/// skip empty blocks are exercised too.
inline void ExpectBlockDiagonalPastWindow(const core::LiftedEventModel& model,
                                          Rng& rng, int steps = 4) {
  const size_t m = model.num_states();
  const size_t lifted = model.lifted_size();
  ASSERT_EQ(lifted % m, 0u);
  const size_t k = lifted / m;
  std::vector<double> want(m);
  for (int t = model.event_end(); t < model.event_end() + steps; ++t) {
    const markov::TransitionMatrix& base = model.schedule().AtStep(t);
    linalg::Vector v(lifted);
    for (size_t q = 0; q < k; ++q) {
      if ((q + static_cast<size_t>(t)) % 3 == 0) continue;
      for (size_t j = 0; j < m; ++j) v[q * m + j] = 0.05 + rng.NextDouble();
    }
    linalg::Vector column(lifted);
    linalg::Vector row(lifted);
    model.StepColumnInto(v, t, column);
    model.StepRowSpanInto(v.data(), t, row.data());
    const linalg::Vector emission = RandomEmissionColumn(m, rng);
    linalg::Vector emitted = v;
    model.ApplyEmissionInPlace(emission, emitted);
    for (size_t q = 0; q < k; ++q) {
      const double* vq = v.data() + q * m;
      base.BackwardSpan(vq, want.data());
      for (size_t j = 0; j < m; ++j) {
        EXPECT_EQ(column[q * m + j], want[j])
            << "column step t=" << t << " block " << q << " entry " << j;
      }
      base.PropagateSpan(vq, want.data());
      for (size_t j = 0; j < m; ++j) {
        EXPECT_EQ(row[q * m + j], want[j])
            << "row step t=" << t << " block " << q << " entry " << j;
      }
      for (size_t j = 0; j < m; ++j) {
        EXPECT_EQ(emitted[q * m + j], vq[j] * emission[j])
            << "emission t=" << t << " block " << q << " entry " << j;
      }
    }
  }
}

}  // namespace priste::testing

#endif  // PRISTE_TESTS_TESTING_LIFTED_INVARIANTS_H_
