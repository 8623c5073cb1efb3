#include "priste/core/qp_solver.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "priste/common/random.h"
#include "priste/linalg/kernels.h"

namespace priste::core {
namespace {

linalg::Vector RandomVec(size_t n, Rng& rng, double lo = -1.0, double hi = 1.0) {
  linalg::Vector v(n);
  for (size_t i = 0; i < n; ++i) v[i] = rng.Uniform(lo, hi);
  return v;
}

// Dense random search baseline over the simplex.
double RandomSearchMax(const QpSolver::Objective& objective, int samples,
                       Rng& rng) {
  const size_t n = objective.a.size();
  double best = -1e300;
  for (int s = 0; s < samples; ++s) {
    linalg::Vector v = RandomVec(n, rng, 0.0, 1.0);
    // Random sparse-ish candidates too.
    if (s % 3 == 0) {
      for (size_t i = 0; i < n; ++i) {
        if (rng.NextDouble() < 0.5) v[i] = 0.0;
      }
    }
    if (v.Sum() <= 0.0) continue;
    v.ScaleInPlace(1.0 / v.Sum());
    best = std::max(best, objective.Evaluate(v));
  }
  // Vertices of the simplex.
  for (size_t i = 0; i < n; ++i) {
    best = std::max(best, objective.Evaluate(linalg::Vector::Unit(n, i)));
  }
  return best;
}

// The objective's natural magnitude: the tolerances below are relative to it.
double Scale(const QpSolver::Objective& obj) {
  return std::max({obj.l.MaxAbs(), obj.a.MaxAbs() * obj.d.MaxAbs(), 1e-300});
}

// Exactly the feasibility the maximizer promises: no negative entry and a
// unit sum up to the rounding of n additions.
void ExpectFeasible(const linalg::Vector& pi) {
  EXPECT_GE(pi.Min(), 0.0) << pi.ToString();
  EXPECT_LE(std::fabs(pi.Sum() - 1.0), static_cast<double>(pi.size()) * 1e-16)
      << pi.ToString();
}

TEST(QpSolverTest, LinearObjectiveExactOnSimplex) {
  // With a = 0 the objective is linear; the simplex max is the best entry.
  QpSolver::Objective obj;
  obj.a = linalg::Vector(4);
  obj.d = linalg::Vector(4);
  obj.l = linalg::Vector{0.3, -0.2, 0.9, 0.1};
  QpSolver solver;
  const auto result = solver.Maximize(obj, Deadline::Infinite());
  EXPECT_FALSE(result.timed_out);
  EXPECT_NEAR(result.max_value, 0.9, 1e-6);
}

TEST(QpSolverTest, RankOneQuadraticKnownMax) {
  // f(π) = (π·a)² with a = [1, 0]: on the simplex the max is 1 at π = e₀.
  QpSolver::Objective obj;
  obj.a = linalg::Vector{1.0, 0.0};
  obj.d = linalg::Vector{1.0, 0.0};
  obj.l = linalg::Vector(2);
  QpSolver solver;
  const auto result = solver.Maximize(obj, Deadline::Infinite());
  EXPECT_NEAR(result.max_value, 1.0, 1e-6);
}

TEST(QpSolverTest, ConcaveEdgeInteriorMaximum) {
  // f(λe₀ + (1−λ)e₁) = λ(1−λ) with a = [1, 0], d = [0, 1]: the maximum 1/4
  // sits at the edge midpoint, strictly above both vertices (value 0).
  QpSolver::Objective obj;
  obj.a = linalg::Vector{1.0, 0.0};
  obj.d = linalg::Vector{0.0, 1.0};
  obj.l = linalg::Vector(2);
  const auto result = QpSolver().Maximize(obj, Deadline::Infinite());
  EXPECT_EQ(result.max_value, 0.25);
  EXPECT_EQ(result.argmax[0], 0.5);
  EXPECT_EQ(result.argmax[1], 0.5);
}

TEST(QpSolverTest, OffSupportMassCanCarryTheMaximum) {
  // Only coordinate 2 is live: its vertex is worth −1 and every
  // zero-coefficient vertex 0, but the edge to an off-support vertex gives
  // f = −2λ² + λ, maximized at λ = 1/4 with value 1/8. The lowest
  // off-support index carries the remaining mass.
  QpSolver::Objective obj;
  obj.a = linalg::Vector{0.0, 0.0, 1.0, 0.0, 0.0};
  obj.d = linalg::Vector{0.0, 0.0, -2.0, 0.0, 0.0};
  obj.l = linalg::Vector{0.0, 0.0, 1.0, 0.0, 0.0};
  const auto result = QpSolver().Maximize(obj, Deadline::Infinite());
  EXPECT_EQ(result.max_value, 0.125);
  EXPECT_EQ(result.argmax[0], 0.75);
  EXPECT_EQ(result.argmax[2], 0.25);
  EXPECT_EQ(result.argmax.Sum(), 1.0);
}

TEST(QpSolverTest, TiesKeepTheLowestCandidate) {
  // Every vertex has value 1 and no edge is concave: e₀ wins the tie.
  QpSolver::Objective obj;
  obj.a = linalg::Vector(3);
  obj.d = linalg::Vector(3);
  obj.l = linalg::Vector{1.0, 1.0, 1.0};
  const auto result = QpSolver().Maximize(obj, Deadline::Infinite());
  EXPECT_EQ(result.max_value, 1.0);
  EXPECT_EQ(result.argmax[0], 1.0);
  EXPECT_EQ(result.argmax[1], 0.0);
  EXPECT_EQ(result.argmax[2], 0.0);
}

class QpRandomComparisonTest : public ::testing::TestWithParam<int> {};

TEST_P(QpRandomComparisonTest, BeatsRandomSearch) {
  Rng rng(800 + GetParam());
  const size_t n = 6;
  QpSolver::Objective obj;
  obj.a = RandomVec(n, rng, 0.0, 1.0);  // ā entries are probabilities
  obj.d = RandomVec(n, rng);
  obj.l = RandomVec(n, rng);

  QpSolver solver;
  const auto result = solver.Maximize(obj, Deadline::Infinite());
  EXPECT_FALSE(result.timed_out);

  Rng search_rng(123 + GetParam());
  const double baseline = RandomSearchMax(obj, 20000, search_rng);
  // The solver must find at least as good a maximum (tolerance for the
  // random search occasionally stumbling onto a slightly better point).
  EXPECT_GE(result.max_value, baseline - 1e-4)
      << "solver=" << result.max_value << " search=" << baseline;

  // And its argmax must be feasible and consistent with the reported value.
  EXPECT_NEAR(result.argmax.Sum(), 1.0, 1e-6);
  EXPECT_TRUE(result.argmax.AllInRange(0.0, 1.0, 1e-6));
  EXPECT_NEAR(obj.Evaluate(result.argmax), result.max_value, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Trials, QpRandomComparisonTest, ::testing::Range(0, 15));

// --- Brute-force oracle: nothing feasible beats the exact maximum. ---

struct OracleCase {
  std::string name;
  size_t n = 0;
  // Indices carrying nonzero coefficients; empty = every coordinate.
  std::vector<size_t> support;
  bool all_zero = false;

  friend void PrintTo(const OracleCase& c, std::ostream* os) { *os << c.name; }
};

QpSolver::Objective OracleObjective(const OracleCase& c, Rng& rng) {
  QpSolver::Objective obj;
  obj.a = linalg::Vector(c.n);
  obj.d = linalg::Vector(c.n);
  obj.l = linalg::Vector(c.n);
  if (c.all_zero) return obj;
  std::vector<size_t> live = c.support;
  if (live.empty()) {
    for (size_t i = 0; i < c.n; ++i) live.push_back(i);
  }
  for (const size_t i : live) {
    obj.a[i] = rng.Uniform(0.0, 1.0);
    obj.d[i] = rng.Uniform(-1.0, 1.0);
    obj.l[i] = rng.Uniform(-1.0, 1.0);
  }
  return obj;
}

class QpOracleTest : public ::testing::TestWithParam<OracleCase> {};

TEST_P(QpOracleTest, NoFeasiblePriorExceedsTheExactMaximum) {
  const OracleCase& c = GetParam();
  for (int trial = 0; trial < 3; ++trial) {
    Rng rng(6000 + 31 * c.n + static_cast<uint64_t>(trial));
    const QpSolver::Objective obj = OracleObjective(c, rng);
    const auto result = QpSolver().Maximize(obj, Deadline::Infinite());
    EXPECT_FALSE(result.timed_out);
    ASSERT_EQ(result.argmax.size(), c.n);
    ExpectFeasible(result.argmax);
    const double scale = Scale(obj);
    EXPECT_LE(std::fabs(obj.Evaluate(result.argmax) - result.max_value),
              1e-12 * std::max(scale, std::fabs(result.max_value)));
    const double bound = result.max_value + 1e-12 * scale;

    // A dense λ-grid on every edge of the full n-coordinate simplex
    // (off-support coordinates included), endpoints being the vertices.
    const int grid = 256;
    linalg::Vector pi(c.n);
    double oracle = -1e300;
    for (size_t i = 0; i < c.n; ++i) {
      for (size_t j = i + 1; j < c.n; ++j) {
        for (int g = 0; g <= grid; ++g) {
          const double lambda = static_cast<double>(g) / grid;
          pi[i] = lambda;
          pi[j] = 1.0 - lambda;
          oracle = std::max(oracle, obj.Evaluate(pi));
        }
        pi[i] = 0.0;
        pi[j] = 0.0;
      }
    }
    // Interior points: Dirichlet(1) samples (normalized exponentials).
    for (int s = 0; s < 10000; ++s) {
      double total = 0.0;
      for (size_t i = 0; i < c.n; ++i) {
        pi[i] = rng.NextExponential(1.0);
        total += pi[i];
      }
      pi.ScaleInPlace(1.0 / total);
      oracle = std::max(oracle, obj.Evaluate(pi));
    }
    EXPECT_LE(oracle, bound) << c.name << " trial=" << trial
                             << " exact=" << result.max_value;
    if (c.all_zero) {
      EXPECT_EQ(result.max_value, 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, QpOracleTest,
    ::testing::Values(OracleCase{"n2", 2, {}, false},
                      OracleCase{"n3", 3, {}, false},
                      OracleCase{"n10", 10, {}, false},
                      OracleCase{"n64", 64, {}, false},
                      OracleCase{"sparse40", 40, {3, 10, 17, 24, 31}, false},
                      OracleCase{"zero6", 6, {}, true}),
    [](const ::testing::TestParamInfo<OracleCase>& info) {
      return info.param.name;
    });

// --- Boundary objectives the slice-LP/PGA heuristic certified wrongly. ---
//
// Theorem-shaped objectives (ā ∈ [0,1], b̄ ≤ c̄, Eq. 15 or 16 at an ε just
// below the value where the exact maximum crosses 0), found by a seeded
// search. The heuristic that preceded the exact maximizer returned a
// non-positive maximum on each — certifying privacy — while a feasible prior
// reaches a positive value. The exact maximizer must refuse them.
struct BoundaryCase {
  linalg::Vector a;
  linalg::Vector d;
  linalg::Vector l;
};

std::vector<BoundaryCase> FalselyCertifiedObjectives() {
  return {
      // Eq. (16), n = 6; the heuristic returned −0.742.
      {{0.36762847533530862, 0.12566397454432865, 0.61191732270521215,
        0.61700384070321046, 0.99636346582914626, 0.88022803973354891},
       {623.36202016494599, 643.54317583286399, 2.285493050797851,
        1026.8494255021867, 307.95800532579398, 783.07988851519997},
       {-623.14913057983301, -643.248390558545, -1.3985308404075401,
        -1026.3775205921584, -307.58010438732083, -782.92752805666362}},
      // Eq. (16), n = 8; the heuristic returned −4.5e-3.
      {{0.65707694929767824, 0.70508667463957841, 0.16976911412854001,
        0.1104447541539415, 0.4707368485173784, 0.51551466290336145,
        0.92769212884299546, 0.20998406012506199},
       {44.961700451845843, 32.40519900426159, 7.0059560515949251,
        33.152782115329195, 27.334255782897792, 0.77779710643430944,
        7.0088348362910446, 17.322030491227469},
       {-44.895640003002804, -31.825250496813684, -6.7839698736979139,
        -32.592757084099077, -26.547690451413736, -0.40096563834290855,
        -6.5065579327205558, -16.727127018186536}},
      // Eq. (15), n = 9; the heuristic returned −4.8e-3.
      {{0.38473130525547961, 0.71752664456889648, 0.97307344567769338,
        0.12389715731294459, 0.87047628360730434, 0.31259576826619506,
        0.44852184035866416, 0.31082066512420348, 0.22282307985576688},
       {-1.0484902685458692, -13.650582015084353, -1.6841641346152159,
        -34.431501112943721, -45.923252937701662, -9.9219060188696631,
        -3.1000452572189658, -2.7387304632307377, -37.595406900520814},
       {0.39855829700891399, 0.14499636966026708, 0.89706946119153086,
        0.61321358035503448, 0.046121029769312635, 0.59984835059820907,
        0.26575503629609298, 0.85125518393550548, 0.3079599099738205}},
      // Eq. (16), n = 10; the heuristic returned −0.0457.
      {{0.42029037277374193, 0.90988757001688025, 0.31546374029157032,
        0.51957954169121612, 0.75079985078526301, 0.043096667931423638,
        0.10517915689308965, 0.97398495939112917, 0.77854833411037494,
        0.971958442871244},
       {3.5751504787966883, 2.5597075569515431, 1.1125749861348393,
        23.630639220451442, 20.945543563100312, 29.792336011617103,
        3.6750107050953127, 35.636569635900955, 0.58244618834133921,
        11.359931399545559},
       {-3.3249585133392365, -2.3956380066947069, -0.56826186214556074,
        -23.446288284504707, -20.457483938767769, -29.679304837086324,
        -3.640230070146206, -35.498298243921504, -0.50578261810870639,
        -11.041380596767635}},
  };
}

TEST(QpSolverTest, RefusesObjectivesTheHeuristicFalselyCertified) {
  for (const BoundaryCase& c : FalselyCertifiedObjectives()) {
    QpSolver::Objective obj;
    obj.a = c.a;
    obj.d = c.d;
    obj.l = c.l;
    const auto result = QpSolver().Maximize(obj, Deadline::Infinite());
    EXPECT_FALSE(result.timed_out);
    EXPECT_GT(result.max_value, 0.0) << c.a.ToString();
    // The witness is a genuine prior with a positive condition value.
    ExpectFeasible(result.argmax);
    EXPECT_GT(obj.Evaluate(result.argmax), 0.0) << result.argmax.ToString();
  }
}

// --- Exactness of the vectorized edge scan. ---

// The one-edge-at-a-time enumeration Maximize ran before EdgeScan, kept
// verbatim as the reference: same support compaction, same vertex pass, same
// per-edge arithmetic and strict `>` updates in lexicographic (i, j) order.
QpSolver::Result ReferenceMaximize(const QpSolver::Objective& objective) {
  const size_t n = objective.a.size();
  std::vector<size_t> index;
  std::vector<double> a, d, l;
  bool have_slack = false;
  for (size_t i = 0; i < n; ++i) {
    const bool live = objective.a[i] != 0.0 || objective.d[i] != 0.0 ||
                      objective.l[i] != 0.0;
    if (!live && have_slack) continue;
    have_slack = have_slack || !live;
    index.push_back(i);
    a.push_back(objective.a[i]);
    d.push_back(objective.d[i]);
    l.push_back(objective.l[i]);
  }
  const size_t k = index.size();
  size_t best_i = 0;
  size_t best_j = 0;
  double best_lambda = 1.0;
  double best = a[0] * d[0] + l[0];
  for (size_t i = 1; i < k; ++i) {
    const double v = a[i] * d[i] + l[i];
    if (v > best) {
      best = v;
      best_i = best_j = i;
    }
  }
  for (size_t i = 0; i + 1 < k; ++i) {
    for (size_t j = i + 1; j < k; ++j) {
      const double da = a[i] - a[j];
      const double dd = d[i] - d[j];
      const double curvature = da * dd;
      const double slope = a[j] * dd + d[j] * da + (l[i] - l[j]);
      if (!(curvature < 0.0 && slope > 0.0 && slope < -2.0 * curvature)) {
        continue;
      }
      const double lambda = -slope / (2.0 * curvature);
      const double mu = 1.0 - lambda;
      const double v = (lambda * a[i] + mu * a[j]) * (lambda * d[i] + mu * d[j]) +
                       (lambda * l[i] + mu * l[j]);
      if (v > best) {
        best = v;
        best_i = i;
        best_j = j;
        best_lambda = lambda;
      }
    }
  }
  QpSolver::Result result;
  result.max_value = best;
  result.argmax = linalg::Vector(n);
  result.argmax[index[best_i]] = best_lambda;
  if (best_j != best_i) result.argmax[index[best_j]] = 1.0 - best_lambda;
  return result;
}

// Maximize on both kernel paths must equal the reference bit for bit: the
// value, and the argmax (which pins the tie rule).
void ExpectMatchesReference(const QpSolver::Objective& obj,
                            const std::string& label) {
  const QpSolver::Result want = ReferenceMaximize(obj);
  for (const bool simd : {false, true}) {
    const bool previous = linalg::kernels::SetSimdEnabledForTest(simd);
    const QpSolver::Result got = QpSolver().Maximize(obj, Deadline::Infinite());
    linalg::kernels::SetSimdEnabledForTest(previous);
    EXPECT_FALSE(got.timed_out);
    EXPECT_EQ(got.max_value, want.max_value) << label << " simd=" << simd;
    ASSERT_EQ(got.argmax.size(), want.argmax.size());
    for (size_t i = 0; i < want.argmax.size(); ++i) {
      EXPECT_EQ(got.argmax[i], want.argmax[i])
          << label << " simd=" << simd << " coordinate " << i;
    }
  }
}

constexpr size_t kExactSizes[] = {1, 2, 3, 4, 5, 7, 64, 257};

TEST(QpSolverTest, RandomObjectivesMatchTheScalarEnumerationExactly) {
  Rng rng(2024);
  for (const size_t n : kExactSizes) {
    for (int rep = 0; rep < 6; ++rep) {
      QpSolver::Objective obj;
      obj.a = RandomVec(n, rng, 0.0, 1.0);
      obj.d = RandomVec(n, rng);
      obj.l = RandomVec(n, rng);
      // Some draws get off-support coordinates (zero in a, d and l).
      if (rep % 2 == 1) {
        for (size_t i = 0; i < n; i += 3) obj.a[i] = obj.d[i] = obj.l[i] = 0.0;
      }
      ExpectMatchesReference(obj, "n=" + std::to_string(n) +
                                      " rep=" + std::to_string(rep));
    }
  }
}

TEST(QpSolverTest, TieHeavyObjectivesMatchTheScalarEnumerationExactly) {
  // Coordinates drawn from a handful of values: many coordinates are exact
  // duplicates, so equal edge values recur across (i, j) and only the
  // earliest may win.
  Rng rng(77);
  const double kValues[] = {-1.0, -0.5, 0.0, 0.25, 0.5, 1.0};
  const auto pick = [&]() { return kValues[rng.NextBelow(6)]; };
  for (const size_t n : kExactSizes) {
    for (int rep = 0; rep < 6; ++rep) {
      QpSolver::Objective obj;
      obj.a = linalg::Vector(n);
      obj.d = linalg::Vector(n);
      obj.l = linalg::Vector(n);
      for (size_t i = 0; i < n; ++i) {
        obj.a[i] = pick();
        obj.d[i] = pick();
        obj.l[i] = rep % 3 == 0 ? 0.0 : pick();
      }
      // Whole repeated coordinate patterns: edge (i, j) and (i, j + p) tie.
      if (rep % 2 == 1 && n > 4) {
        for (size_t i = 4; i < n; ++i) {
          obj.a[i] = obj.a[i % 4];
          obj.d[i] = obj.d[i % 4];
          obj.l[i] = obj.l[i % 4];
        }
      }
      ExpectMatchesReference(obj, "ties n=" + std::to_string(n) +
                                      " rep=" + std::to_string(rep));
    }
  }
}

// --- Deadlines. ---

TEST(QpSolverTest, ExpiredDeadlineReportsTimeout) {
  Rng rng(5);
  QpSolver::Objective obj;
  obj.a = RandomVec(8, rng, 0.0, 1.0);
  obj.d = RandomVec(8, rng);
  obj.l = RandomVec(8, rng);
  QpSolver solver;
  const auto result = solver.Maximize(obj, Deadline::After(-1.0));
  EXPECT_TRUE(result.timed_out);
}

// A result must be a usable feasible lower bound no matter when the deadline
// fires: finite max_value, a feasible argmax of the right size, and the two
// consistent with each other. Never -inf, never an empty vector.
void ExpectFeasibleResult(const QpSolver::Objective& obj,
                          const QpSolver::Result& result) {
  ASSERT_EQ(result.argmax.size(), obj.a.size());
  EXPECT_TRUE(std::isfinite(result.max_value));
  ExpectFeasible(result.argmax);
  EXPECT_NEAR(obj.Evaluate(result.argmax), result.max_value, 1e-9);
}

TEST(QpSolverTest, ZeroDeadlineStillReturnsFeasibleBestSoFar) {
  Rng rng(51);
  QpSolver::Objective obj;
  obj.a = RandomVec(12, rng, 0.0, 1.0);
  obj.d = RandomVec(12, rng);
  obj.l = RandomVec(12, rng);
  const auto result = QpSolver().Maximize(obj, Deadline::After(-1.0));
  EXPECT_TRUE(result.timed_out);
  ExpectFeasibleResult(obj, result);
}

TEST(QpSolverTest, MidSweepDeadlineStillReturnsFeasibleBestSoFar) {
  // A deadline short enough to fire somewhere inside the edge enumeration
  // of a large dense problem. Whether it fires before the first row or
  // between two rows depends on wall clock — the invariants must hold
  // either way.
  Rng rng(53);
  const size_t n = 1024;
  QpSolver::Objective obj;
  obj.a = RandomVec(n, rng, 0.0, 1.0);
  obj.d = RandomVec(n, rng);
  obj.l = RandomVec(n, rng);
  const QpSolver solver;
  double best_vertex = -1e300;
  for (size_t i = 0; i < n; ++i) {
    best_vertex = std::max(best_vertex, obj.a[i] * obj.d[i] + obj.l[i]);
  }
  for (const double seconds : {1e-7, 1e-4, 2e-3}) {
    const auto result = solver.Maximize(obj, Deadline::After(seconds));
    ExpectFeasibleResult(obj, result);
    // Every vertex is evaluated before the first deadline poll.
    EXPECT_GE(result.max_value, best_vertex);
  }
}

}  // namespace
}  // namespace priste::core
