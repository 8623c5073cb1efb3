// AVX2 kernel path. This translation unit is compiled with -mavx2 and only
// linked into the dispatch table behind a runtime cpuid check (kernels.cc),
// so no AVX2 instruction executes on a host without the feature.
//
// Bit-identity contract with the scalar path (see kernels.h): four-lane
// accumulators where lane j sums elements j, j+4, j+8, …; reduction order
// (lane0+lane2)+(lane1+lane3); sequential tail after the reduction; separate
// multiply and add (no _mm256_fmadd_pd — FMA's single rounding would diverge
// from the scalar a*b+c).

#include "priste/linalg/kernels_dispatch.h"
#include "priste/common/thread_annotations.h"

#if defined(PRISTE_KERNELS_HAVE_AVX2)

#include <immintrin.h>

namespace priste::linalg::kernels {
namespace {

// Reduces lanes as (l0+l2)+(l1+l3) — the scalar accumulator order.
inline double ReduceLanes(__m256d acc) {
  const __m128d lo = _mm256_castpd256_pd128(acc);     // l0, l1
  const __m128d hi = _mm256_extractf128_pd(acc, 1);   // l2, l3
  const __m128d s = _mm_add_pd(lo, hi);               // l0+l2, l1+l3
  return _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
}

PRISTE_HOT_PATH double Avx2Sum(const double* x, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(acc, _mm256_loadu_pd(x + i));
  }
  double total = ReduceLanes(acc);
  for (; i < n; ++i) total += x[i];
  return total;
}

PRISTE_HOT_PATH double Avx2Dot(const double* a, const double* b, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  double total = ReduceLanes(acc);
  for (; i < n; ++i) total += a[i] * b[i];
  return total;
}

PRISTE_HOT_PATH double Avx2DotHadamard(const double* a, const double* b, const double* c,
                       size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d ab =
        _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(ab, _mm256_loadu_pd(c + i)));
  }
  double total = ReduceLanes(acc);
  for (; i < n; ++i) total += (a[i] * b[i]) * c[i];
  return total;
}

PRISTE_HOT_PATH void Avx2Axpy(double alpha, const double* x, double* y, size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d prod = _mm256_mul_pd(va, _mm256_loadu_pd(x + i));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), prod));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

PRISTE_HOT_PATH void Avx2Scale(double* x, double alpha, size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(x + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), va));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

PRISTE_HOT_PATH void Avx2HadamardInPlace(const double* x, double* y, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_mul_pd(_mm256_loadu_pd(y + i), _mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) y[i] *= x[i];
}

PRISTE_HOT_PATH void Avx2HadamardInto(const double* a, const double* b, double* out,
                      size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        out + i,
        _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

PRISTE_HOT_PATH double Avx2GatherDot(const double* values, const size_t* cols, size_t nnz,
                     const double* x) {
  __m256d acc = _mm256_setzero_pd();
  size_t k = 0;
  for (; k + 4 <= nnz; k += 4) {
    const __m256i idx = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(cols + k));
    const __m256d gathered = _mm256_i64gather_pd(x, idx, 8);
    acc = _mm256_add_pd(acc,
                        _mm256_mul_pd(_mm256_loadu_pd(values + k), gathered));
  }
  double total = ReduceLanes(acc);
  for (; k < nnz; ++k) total += values[k] * x[cols[k]];
  return total;
}

PRISTE_HOT_PATH double Avx2ReplicateDot(const double* row, size_t blocks, size_t m,
                        const double* cand) {
  double total = 0.0;
  for (size_t q = 0; q < blocks; ++q) {
    total += Avx2Dot(row + q * m, cand, m);
  }
  return total;
}

PRISTE_HOT_PATH void Avx2ReplicateDotPair(const double* row, size_t blocks, size_t m,
                          const double* cand, const double* seed,
                          double* seeded, double* plain) {
  double st = 0.0, pt = 0.0;
  for (size_t q = 0; q < blocks; ++q) {
    const double* r = row + q * m;
    const double* s = seed + q * m;
    __m256d sacc = _mm256_setzero_pd();
    __m256d pacc = _mm256_setzero_pd();
    size_t j = 0;
    for (; j + 4 <= m; j += 4) {
      const __m256d rc =
          _mm256_mul_pd(_mm256_loadu_pd(r + j), _mm256_loadu_pd(cand + j));
      pacc = _mm256_add_pd(pacc, rc);
      sacc = _mm256_add_pd(sacc, _mm256_mul_pd(rc, _mm256_loadu_pd(s + j)));
    }
    double sp = ReduceLanes(sacc);
    double pp = ReduceLanes(pacc);
    for (; j < m; ++j) {
      const double rc = r[j] * cand[j];
      pp += rc;
      sp += rc * s[j];
    }
    st += sp;
    pt += pp;
  }
  *seeded = st;
  *plain = pt;
}

// Four rows × kNv vectors in lockstep: 4·kNv independent accumulator chains
// share each load of the vectors. Every output keeps Avx2Dot's sequence
// (one accumulator, ReduceLanes, sequential tail). The fixed-size arrays
// unroll into registers.
template <size_t kNv>
PRISTE_HOT_PATH void Avx2MatVecRowsImpl(const double* mat, size_t rows,
                                        size_t n, const double* const* v,
                                        double* const* out) {
  size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const double* row[4] = {mat + r * n, mat + (r + 1) * n,
                            mat + (r + 2) * n, mat + (r + 3) * n};
    __m256d acc[4][kNv];
    for (size_t q = 0; q < 4; ++q) {
      for (size_t k = 0; k < kNv; ++k) acc[q][k] = _mm256_setzero_pd();
    }
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      __m256d x[kNv];
      for (size_t k = 0; k < kNv; ++k) x[k] = _mm256_loadu_pd(v[k] + i);
      for (size_t q = 0; q < 4; ++q) {
        const __m256d mq = _mm256_loadu_pd(row[q] + i);
        for (size_t k = 0; k < kNv; ++k) {
          acc[q][k] = _mm256_add_pd(acc[q][k], _mm256_mul_pd(mq, x[k]));
        }
      }
    }
    for (size_t q = 0; q < 4; ++q) {
      for (size_t k = 0; k < kNv; ++k) {
        double total = ReduceLanes(acc[q][k]);
        for (size_t j = i; j < n; ++j) total += row[q][j] * v[k][j];
        out[k][r + q] = total;
      }
    }
  }
  for (; r < rows; ++r) {
    for (size_t k = 0; k < kNv; ++k) out[k][r] = Avx2Dot(mat + r * n, v[k], n);
  }
}

PRISTE_HOT_PATH void Avx2MatVecRows(const double* mat, size_t rows, size_t n,
                                    const double* const* v,
                                    double* const* out, size_t nv) {
  if (nv == 2) {
    Avx2MatVecRowsImpl<2>(mat, rows, n, v, out);
  } else {
    Avx2MatVecRowsImpl<1>(mat, rows, n, v, out);
  }
}

// Adds kRows scaled rows into out, column block by column block: each
// column receives its kRows adds in ascending row order with one load and
// one store, so a group of rows costs one pass over `out` instead of kRows.
template <size_t kRows>
PRISTE_HOT_PATH void Avx2AddRowGroup(const double* const* row,
                                     const double* scale, size_t n,
                                     double* out) {
  __m256d s[kRows];
  for (size_t q = 0; q < kRows; ++q) s[q] = _mm256_set1_pd(scale[q]);
  size_t c = 0;
  for (; c + 8 <= n; c += 8) {
    __m256d lo = _mm256_loadu_pd(out + c);
    __m256d hi = _mm256_loadu_pd(out + c + 4);
    for (size_t q = 0; q < kRows; ++q) {
      lo = _mm256_add_pd(lo, _mm256_mul_pd(s[q], _mm256_loadu_pd(row[q] + c)));
      hi = _mm256_add_pd(hi,
                         _mm256_mul_pd(s[q], _mm256_loadu_pd(row[q] + c + 4)));
    }
    _mm256_storeu_pd(out + c, lo);
    _mm256_storeu_pd(out + c + 4, hi);
  }
  for (; c + 4 <= n; c += 4) {
    __m256d acc = _mm256_loadu_pd(out + c);
    for (size_t q = 0; q < kRows; ++q) {
      acc = _mm256_add_pd(acc,
                          _mm256_mul_pd(s[q], _mm256_loadu_pd(row[q] + c)));
    }
    _mm256_storeu_pd(out + c, acc);
  }
  for (; c < n; ++c) {
    double acc = out[c];
    for (size_t q = 0; q < kRows; ++q) acc += scale[q] * row[q][c];
    out[c] = acc;
  }
}

// Rows with p[r] ≠ 0 are gathered in ascending order into groups of eight;
// every group is one pass over `out`. The adds each column sees — 0.0, then
// p[r]·mat[r][c] for the nonzero p[r] in ascending r — are the Axpy loop's.
PRISTE_HOT_PATH void Avx2VecMatRows(const double* p, size_t rows, size_t n,
                                    const double* mat, double* out) {
  constexpr size_t kGroup = 8;
  for (size_t c = 0; c < n; ++c) out[c] = 0.0;
  const double* row[kGroup];
  double scale[kGroup];
  size_t r = 0;
  while (r < rows) {
    size_t g = 0;
    for (; r < rows && g < kGroup; ++r) {
      if (p[r] == 0.0) continue;
      row[g] = mat + r * n;
      scale[g] = p[r];
      ++g;
    }
    if (g == kGroup) {
      Avx2AddRowGroup<kGroup>(row, scale, n, out);
      continue;
    }
    size_t q = 0;
    if (g >= 4) {
      Avx2AddRowGroup<4>(row, scale, n, out);
      q = 4;
    }
    for (; q < g; ++q) Avx2AddRowGroup<1>(row + q, scale + q, n, out);
  }
}

// ConcaveEdgeInterior (kernels.h) on four edges at once: the same
// subtractions, multiplications, additions and division in the same order,
// so each lane rounds exactly like the scalar evaluation. Lanes failing the
// concave-interior test may divide by zero or produce NaN; they are masked.
// (kernels.h is not included here: its inline bodies must not be emitted
// from this -mavx2 TU.)
PRISTE_HOT_PATH inline bool EdgeBlockBeats(__m256d ai, __m256d di, __m256d li,
                                           const double* a, const double* d,
                                           const double* l, __m256d best) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d aj = _mm256_loadu_pd(a);
  const __m256d dj = _mm256_loadu_pd(d);
  const __m256d lj = _mm256_loadu_pd(l);
  const __m256d da = _mm256_sub_pd(ai, aj);
  const __m256d dd = _mm256_sub_pd(di, dj);
  const __m256d curvature = _mm256_mul_pd(da, dd);
  const __m256d slope = _mm256_add_pd(
      _mm256_add_pd(_mm256_mul_pd(aj, dd), _mm256_mul_pd(dj, da)),
      _mm256_sub_pd(li, lj));
  const __m256d interior = _mm256_and_pd(
      _mm256_and_pd(_mm256_cmp_pd(curvature, zero, _CMP_LT_OQ),
                    _mm256_cmp_pd(slope, zero, _CMP_GT_OQ)),
      _mm256_cmp_pd(slope,
                    _mm256_mul_pd(_mm256_set1_pd(-2.0), curvature),
                    _CMP_LT_OQ));
  if (_mm256_movemask_pd(interior) == 0) return false;
  const __m256d lam =
      _mm256_div_pd(_mm256_xor_pd(slope, _mm256_set1_pd(-0.0)),
                    _mm256_mul_pd(_mm256_set1_pd(2.0), curvature));
  const __m256d mu = _mm256_sub_pd(_mm256_set1_pd(1.0), lam);
  const __m256d pa =
      _mm256_add_pd(_mm256_mul_pd(lam, ai), _mm256_mul_pd(mu, aj));
  const __m256d pd =
      _mm256_add_pd(_mm256_mul_pd(lam, di), _mm256_mul_pd(mu, dj));
  const __m256d pl =
      _mm256_add_pd(_mm256_mul_pd(lam, li), _mm256_mul_pd(mu, lj));
  const __m256d value = _mm256_add_pd(_mm256_mul_pd(pa, pd), pl);
  const __m256d beats =
      _mm256_and_pd(interior, _mm256_cmp_pd(value, best, _CMP_GT_OQ));
  return _mm256_movemask_pd(beats) != 0;
}

PRISTE_HOT_PATH size_t Avx2EdgeScan(const double* a, const double* d,
                                    const double* l, size_t i, size_t begin,
                                    size_t end, double best) {
  const __m256d ai = _mm256_set1_pd(a[i]);
  const __m256d di = _mm256_set1_pd(d[i]);
  const __m256d li = _mm256_set1_pd(l[i]);
  const __m256d vbest = _mm256_set1_pd(best);
  size_t j = begin;
  for (; j + 4 <= end; j += 4) {
    if (EdgeBlockBeats(ai, di, li, a + j, d + j, l + j, vbest)) return j;
  }
  if (j == end) return end;
  // Tail block: pad with copies of the last edge, which cannot change
  // whether some edge in the block qualifies.
  double ta[4], td[4], tl[4];
  for (size_t q = 0; q < 4; ++q) {
    const size_t src = j + q < end ? j + q : end - 1;
    ta[q] = a[src];
    td[q] = d[src];
    tl[q] = l[src];
  }
  return EdgeBlockBeats(ai, di, li, ta, td, tl, vbest) ? j : end;
}

constexpr KernelTable kAvx2Table = {
    &Avx2Sum,
    &Avx2Dot,
    &Avx2DotHadamard,
    &Avx2Axpy,
    &Avx2Scale,
    &Avx2HadamardInPlace,
    &Avx2HadamardInto,
    &Avx2GatherDot,
    &Avx2ReplicateDot,
    &Avx2ReplicateDotPair,
    &Avx2MatVecRows,
    &Avx2VecMatRows,
    &Avx2EdgeScan,
};

}  // namespace

const KernelTable& Avx2Table() { return kAvx2Table; }

}  // namespace priste::linalg::kernels

#endif  // PRISTE_KERNELS_HAVE_AVX2
