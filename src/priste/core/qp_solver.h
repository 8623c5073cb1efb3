#ifndef PRISTE_CORE_QP_SOLVER_H_
#define PRISTE_CORE_QP_SOLVER_H_

#include "priste/common/timer.h"
#include "priste/linalg/vector.h"

namespace priste::core {

/// The exact quadratic-programming engine behind Theorem IV.1's
/// arbitrary-prior check — this library's substitute for the paper's IBM
/// CPLEX.
///
/// Both Theorem conditions have the *bilinear* form
///
///   f(π) = (π·a)(π·d) + π·l
///
/// maximized over the probability simplex Δ. For a fixed slice value
/// x = π·a the objective is linear in π, and a linear program over
/// Δ ∩ {π·a = x} is maximized at a vertex of that polytope — every one of
/// which lies on an edge [e_i, e_j] of Δ. So the global maximum is the best
/// of f's maxima over the edges, and on the edge π = λe_i + (1−λ)e_j the
/// objective is the quadratic Aλ² + Bλ + C with A = (a_i−a_j)(d_i−d_j) and
/// B = a_j(d_i−d_j) + d_j(a_i−a_j) + (l_i−l_j). Maximize() enumerates the
/// candidates in closed form: every vertex value a_i·d_i + l_i, plus each
/// edge's interior maximizer λ* = −B/(2A) when A < 0 and λ* ∈ (0, 1).
///
/// Coordinates outside the joint support of (a, d, l) have zero coefficients
/// in every term, so they are interchangeable: the lowest-indexed of them
/// stands for all, and the enumeration runs over O(k²) edges for a joint
/// support of size k. The returned argmax is exactly λe_i + (1−λ)e_j in the
/// full n coordinates, hence exactly feasible.
///
/// The edge loop runs at vector throughput without changing its result.
/// For each i, linalg::kernels::EdgeScan evaluates edges (i, j) four at a
/// time with the same operation sequence as the scalar test (no FMA; the
/// per-edge arithmetic is kernels::ConcaveEdgeInterior for both) and
/// returns the first block of four holding an edge that beats the current
/// incumbent. Why that is exact: the scalar loop changes its state only at
/// an edge whose value exceeds the incumbent, and the incumbent is fixed
/// until then, so every skipped block is one where the scalar loop would
/// have changed nothing. The block the scan stops at is walked by the
/// scalar body edge by edge, updating the incumbent with the strict `>`
/// (earliest candidate wins ties), and the scan resumes after it with the
/// new incumbent. The maximum, the argmax and the tie rule are therefore
/// those of the plain (i, j) enumeration, bit for bit.
///
/// A Deadline bounds the work: it is polled once per outer row of the edge
/// enumeration, and on expiry the result is flagged timed_out. PriSTE's
/// conservative-release rule (Section IV-C) then treats the check as failed
/// — privacy is never certified on a partial enumeration.
class QpSolver {
 public:
  /// The maximizer is exact, so it has no effort knobs; the struct remains
  /// so PristeOptions keeps one place for solver configuration.
  struct Options {};

  /// f(π) = (π·a)(π·d) + π·l. Vectors must share one size.
  struct Objective {
    linalg::Vector a;
    linalg::Vector d;
    linalg::Vector l;

    double Evaluate(const linalg::Vector& pi) const {
      return pi.Dot(a) * pi.Dot(d) + pi.Dot(l);
    }
  };

  struct Result {
    /// The maximum of f over the simplex, or — when timed_out — the best
    /// candidate enumerated before the deadline (a lower bound). Always
    /// finite for finite inputs: every vertex is evaluated before the first
    /// deadline poll.
    double max_value = 0.0;
    /// A maximizing prior λe_i + (1−λ)e_j (λ = 1 at a vertex). Ties keep
    /// the earliest candidate: vertices in index order, then edges in
    /// lexicographic (i, j) order.
    linalg::Vector argmax;
    /// True when the deadline expired before the enumeration finished.
    bool timed_out = false;
  };

  QpSolver() = default;
  explicit QpSolver(Options /*options*/) {}

  /// Maximizes `objective` over the simplex, stopping at `deadline`.
  [[nodiscard]] Result Maximize(const Objective& objective,
                                const Deadline& deadline) const;
};

}  // namespace priste::core

#endif  // PRISTE_CORE_QP_SOLVER_H_
