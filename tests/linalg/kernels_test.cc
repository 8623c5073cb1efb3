#include "priste/linalg/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "priste/common/random.h"

namespace priste::linalg::kernels {
namespace {

std::vector<double> RandomSpan(size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = rng.Uniform(-1.0, 1.0);
  return v;
}

// Restores the dispatch table on scope exit so a failing assertion cannot
// leak a forced-scalar table into later tests.
class ScopedSimd {
 public:
  explicit ScopedSimd(bool enabled) : previous_(SetSimdEnabledForTest(enabled)) {}
  ~ScopedSimd() { SetSimdEnabledForTest(previous_); }

 private:
  bool previous_;
};

TEST(KernelsTest, SumKnownValues) {
  const double x[] = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(Sum(x, 5), 15.0);
  EXPECT_DOUBLE_EQ(Sum(x, 0), 0.0);
}

TEST(KernelsTest, DotKnownValues) {
  const double a[] = {1.0, 2.0, 3.0};
  const double b[] = {4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(Dot(a, b, 3), 32.0);
}

TEST(KernelsTest, DotHadamardKnownValues) {
  const double a[] = {1.0, 2.0};
  const double b[] = {3.0, 4.0};
  const double c[] = {5.0, 6.0};
  EXPECT_DOUBLE_EQ(DotHadamard(a, b, c, 2), 15.0 + 48.0);
}

TEST(KernelsTest, AxpyScaleHadamard) {
  double y[] = {1.0, 1.0, 1.0};
  const double x[] = {1.0, 2.0, 3.0};
  Axpy(2.0, x, y, 3);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[2], 7.0);
  Scale(y, 0.5, 3);
  EXPECT_DOUBLE_EQ(y[0], 1.5);
  HadamardInPlace(x, y, 3);
  EXPECT_DOUBLE_EQ(y[2], 3.5 * 3.0);
  double out[3];
  HadamardInto(x, x, out, 3);
  EXPECT_DOUBLE_EQ(out[1], 4.0);
}

TEST(KernelsTest, GatherScatterKnownValues) {
  const double values[] = {2.0, 3.0};
  const size_t cols[] = {1, 4};
  const double x[] = {0.0, 10.0, 0.0, 0.0, 100.0};
  EXPECT_DOUBLE_EQ(GatherDot(values, cols, 2, x), 320.0);
  double out[5] = {0.0};
  ScatterAxpy(2.0, values, cols, 2, out);
  EXPECT_DOUBLE_EQ(out[1], 4.0);
  EXPECT_DOUBLE_EQ(out[4], 6.0);
}

TEST(KernelsTest, ReplicateDotMatchesMaterializedReplication) {
  Rng rng(7);
  const size_t blocks = 3, m = 11;
  const std::vector<double> row = RandomSpan(blocks * m, rng);
  const std::vector<double> cand = RandomSpan(m, rng);
  const std::vector<double> seed = RandomSpan(blocks * m, rng);
  double expect_plain = 0.0, expect_seeded = 0.0;
  for (size_t q = 0; q < blocks; ++q) {
    for (size_t j = 0; j < m; ++j) {
      expect_plain += row[q * m + j] * cand[j];
      expect_seeded += row[q * m + j] * cand[j] * seed[q * m + j];
    }
  }
  EXPECT_NEAR(ReplicateDot(row.data(), blocks, m, cand.data()), expect_plain,
              1e-12);
  double seeded = 0.0, plain = 0.0;
  ReplicateDotPair(row.data(), blocks, m, cand.data(), seed.data(), &seeded,
                   &plain);
  EXPECT_NEAR(seeded, expect_seeded, 1e-12);
  EXPECT_NEAR(plain, expect_plain, 1e-12);
}

// The central contract: whatever path the host dispatches, every kernel's
// result is BIT-identical to the scalar path — sizes straddle the vector
// width so full blocks, tails, and sub-width spans are all covered. On a
// host without AVX2 both runs use the scalar table and the test is trivially
// green.
TEST(KernelsTest, ScalarAndSimdPathsAreBitIdentical) {
  Rng rng(123);
  for (const size_t n : {0ul, 1ul, 3ul, 4ul, 7ul, 8ul, 15ul, 16ul, 33ul, 100ul}) {
    const std::vector<double> a = RandomSpan(n, rng);
    const std::vector<double> b = RandomSpan(n, rng);
    const std::vector<double> c = RandomSpan(n, rng);
    std::vector<size_t> cols(n);
    for (size_t i = 0; i < n; ++i) cols[i] = (i * 7) % (n > 0 ? n : 1);

    double sum_s, dot_s, dh_s, gd_s;
    std::vector<double> axpy_s = a, scale_s = a, hip_s = a, hi_s(n), sc_s(n, 0.0);
    {
      ScopedSimd scalar(false);
      ASSERT_FALSE(SimdActive());
      sum_s = Sum(a.data(), n);
      dot_s = Dot(a.data(), b.data(), n);
      dh_s = DotHadamard(a.data(), b.data(), c.data(), n);
      gd_s = GatherDot(a.data(), cols.data(), n, b.data());
      Axpy(1.7, b.data(), axpy_s.data(), n);
      Scale(scale_s.data(), 0.3, n);
      HadamardInPlace(b.data(), hip_s.data(), n);
      HadamardInto(a.data(), b.data(), hi_s.data(), n);
      ScatterAxpy(1.3, a.data(), cols.data(), n, sc_s.data());
    }
    ScopedSimd simd(true);
    EXPECT_EQ(Sum(a.data(), n), sum_s);
    EXPECT_EQ(Dot(a.data(), b.data(), n), dot_s);
    EXPECT_EQ(DotHadamard(a.data(), b.data(), c.data(), n), dh_s);
    EXPECT_EQ(GatherDot(a.data(), cols.data(), n, b.data()), gd_s);
    std::vector<double> axpy_v = a, scale_v = a, hip_v = a, hi_v(n), sc_v(n, 0.0);
    Axpy(1.7, b.data(), axpy_v.data(), n);
    Scale(scale_v.data(), 0.3, n);
    HadamardInPlace(b.data(), hip_v.data(), n);
    HadamardInto(a.data(), b.data(), hi_v.data(), n);
    ScatterAxpy(1.3, a.data(), cols.data(), n, sc_v.data());
    EXPECT_EQ(axpy_v, axpy_s);
    EXPECT_EQ(scale_v, scale_s);
    EXPECT_EQ(hip_v, hip_s);
    EXPECT_EQ(hi_v, hi_s);
    EXPECT_EQ(sc_v, sc_s);
  }
}

TEST(KernelsTest, ReplicateKernelsAreBitIdenticalAcrossPaths) {
  Rng rng(321);
  for (const size_t m : {1ul, 5ul, 8ul, 13ul, 32ul}) {
    for (const size_t blocks : {1ul, 2ul, 4ul}) {
      const std::vector<double> row = RandomSpan(blocks * m, rng);
      const std::vector<double> cand = RandomSpan(m, rng);
      const std::vector<double> seed = RandomSpan(blocks * m, rng);
      double plain_s, seeded_s, pair_plain_s;
      {
        ScopedSimd scalar(false);
        plain_s = ReplicateDot(row.data(), blocks, m, cand.data());
        ReplicateDotPair(row.data(), blocks, m, cand.data(), seed.data(),
                         &seeded_s, &pair_plain_s);
      }
      ScopedSimd simd(true);
      EXPECT_EQ(ReplicateDot(row.data(), blocks, m, cand.data()), plain_s);
      double seeded_v, pair_plain_v;
      ReplicateDotPair(row.data(), blocks, m, cand.data(), seed.data(),
                       &seeded_v, &pair_plain_v);
      EXPECT_EQ(seeded_v, seeded_s);
      EXPECT_EQ(pair_plain_v, pair_plain_s);
    }
  }
}

// The per-row loops MatVecRows and VecMatRows replace: one Dot per (row,
// vector), and a zeroed output plus one Axpy per nonzero p[r].
std::vector<double> ReferenceMatVec(const std::vector<double>& mat,
                                    size_t rows, size_t n,
                                    const std::vector<double>& v) {
  std::vector<double> out(rows);
  for (size_t r = 0; r < rows; ++r) out[r] = Dot(mat.data() + r * n, v.data(), n);
  return out;
}

std::vector<double> ReferenceVecMat(const std::vector<double>& p, size_t rows,
                                    size_t n, const std::vector<double>& mat) {
  std::vector<double> out(n, 0.0);
  for (size_t r = 0; r < rows; ++r) {
    if (p[r] == 0.0) continue;
    Axpy(p[r], mat.data() + r * n, out.data(), n);
  }
  return out;
}

// Sizes cover row blocks of four with and without a tail, four-lane blocks
// with and without a tail, the 16-wide inline threshold and the grid sizes.
constexpr size_t kDenseSizes[] = {1, 3, 4, 5, 7, 16, 17, 64, 255, 256};

TEST(KernelsTest, MatVecRowsEqualsPerRowDotOnBothPaths) {
  Rng rng(99);
  for (const size_t rows : kDenseSizes) {
    for (const size_t n : kDenseSizes) {
      const std::vector<double> mat = RandomSpan(rows * n, rng);
      const std::vector<double> v0 = RandomSpan(n, rng);
      const std::vector<double> v1 = RandomSpan(n, rng);
      for (const bool simd : {false, true}) {
        ScopedSimd path(simd);
        const std::vector<double> want0 = ReferenceMatVec(mat, rows, n, v0);
        const std::vector<double> want1 = ReferenceMatVec(mat, rows, n, v1);
        std::vector<double> got0(rows, -1.0), got1(rows, -1.0);
        const double* one_v[] = {v0.data()};
        double* one_out[] = {got0.data()};
        MatVecRows(mat.data(), rows, n, one_v, one_out, 1);
        EXPECT_EQ(got0, want0) << "nv=1 rows=" << rows << " n=" << n
                               << " simd=" << simd;
        std::fill(got0.begin(), got0.end(), -1.0);
        const double* two_v[] = {v0.data(), v1.data()};
        double* two_out[] = {got0.data(), got1.data()};
        MatVecRows(mat.data(), rows, n, two_v, two_out, 2);
        EXPECT_EQ(got0, want0) << "nv=2 rows=" << rows << " n=" << n
                               << " simd=" << simd;
        EXPECT_EQ(got1, want1) << "nv=2 rows=" << rows << " n=" << n
                               << " simd=" << simd;
      }
    }
  }
}

TEST(KernelsTest, VecMatRowsEqualsPerRowAxpyOnBothPaths) {
  Rng rng(77);
  for (const size_t rows : kDenseSizes) {
    for (const size_t n : kDenseSizes) {
      const std::vector<double> mat = RandomSpan(rows * n, rng);
      std::vector<double> p = RandomSpan(rows, rng);
      // Zeros (both signs) exercise the skip; every third row also leaves
      // row groups partially filled.
      for (size_t r = 0; r < rows; r += 3) p[r] = r % 2 == 0 ? 0.0 : -0.0;
      for (const bool simd : {false, true}) {
        ScopedSimd path(simd);
        const std::vector<double> want = ReferenceVecMat(p, rows, n, mat);
        std::vector<double> got(n, -1.0);
        VecMatRows(p.data(), rows, n, mat.data(), got.data());
        EXPECT_EQ(got, want) << "rows=" << rows << " n=" << n
                             << " simd=" << simd;
      }
    }
  }
  // An all-zero p leaves an all-zero output.
  const std::vector<double> mat(5 * 6, 1.0);
  const std::vector<double> p(5, 0.0);
  std::vector<double> out(6, 7.0);
  VecMatRows(p.data(), 5, 6, mat.data(), out.data());
  EXPECT_EQ(out, std::vector<double>(6, 0.0));
}

// The first index in [begin, end) at which the scalar QP loop would improve
// on `best`, rounded down to its block of four (end when none).
size_t ReferenceEdgeScan(const std::vector<double>& a,
                         const std::vector<double>& d,
                         const std::vector<double>& l, size_t i, size_t begin,
                         size_t end, double best) {
  for (size_t j = begin; j < end; ++j) {
    double lambda, value;
    if (ConcaveEdgeInterior(a.data(), d.data(), l.data(), i, j, &lambda,
                            &value) &&
        value > best) {
      return begin + (j - begin) / 4 * 4;
    }
  }
  return end;
}

TEST(KernelsTest, EdgeScanFindsTheFirstImprovingBlockOnBothPaths) {
  Rng rng(5);
  for (const size_t n : {2ul, 3ul, 5ul, 8ul, 9ul, 33ul, 100ul}) {
    const std::vector<double> a = RandomSpan(n, rng);
    const std::vector<double> d = RandomSpan(n, rng);
    const std::vector<double> l = RandomSpan(n, rng);
    for (size_t i = 0; i + 1 < n; ++i) {
      for (const double best : {-2.0, 0.0, 0.2, 0.5, 1e300}) {
        for (size_t begin = i + 1; begin < n; begin += 3) {
          const size_t want = ReferenceEdgeScan(a, d, l, i, begin, n, best);
          for (const bool simd : {false, true}) {
            ScopedSimd path(simd);
            EXPECT_EQ(EdgeScan(a.data(), d.data(), l.data(), i, begin, n, best),
                      want)
                << "n=" << n << " i=" << i << " begin=" << begin
                << " best=" << best << " simd=" << simd;
          }
        }
      }
    }
  }
}

TEST(KernelsTest, SetSimdEnabledForTestReturnsPreviousState) {
  const bool initial = SimdActive();
  const bool prev = SetSimdEnabledForTest(false);
  EXPECT_EQ(prev, initial);
  EXPECT_FALSE(SimdActive());
  SetSimdEnabledForTest(prev);
  EXPECT_EQ(SimdActive(), initial);
}

}  // namespace
}  // namespace priste::linalg::kernels
