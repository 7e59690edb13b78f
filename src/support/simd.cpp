// Kernel implementations for the portable SIMD layer (DESIGN.md §14).
//
// This is the ONLY translation unit in the project allowed to use raw
// vendor intrinsics (lint rule `raw-intrinsics`).  The AVX2 bodies carry
// `__attribute__((target("avx2")))` so the file builds with the plain
// baseline flags on any x86-64 toolchain and the vector code is only
// reached after a runtime `__builtin_cpu_supports("avx2")` check.  FMA is
// deliberately never used — the whole file compiles with
// `-ffp-contract=off` (set in src/CMakeLists.txt) and the AVX2 paths use
// separate multiply/add intrinsics, so scalar and vector arithmetic are
// instruction-for-instruction the same operation sequence per element.
//
// Scalar reference kernels are written in the exact form the vector
// instructions compute (operand order of min/max ternaries matches
// vminpd/vmaxpd tie behaviour); reductions canonicalise a zero result
// with `+ 0.0` so tree-order and sequential-order reductions agree
// bitwise on finite data.

#include "support/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <limits>

#if !defined(ICSDIV_SIMD_DISABLED) && (defined(__x86_64__) || defined(__i386__)) && \
    defined(__GNUC__)
#define ICSDIV_SIMD_AVX2 1
#include <immintrin.h>
#endif

namespace icsdiv::support::simd {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// Scalar reference kernels.  Every ternary mirrors the vector instruction it
// is checked against: `x < m ? x : m` keeps `m` on ties exactly as
// `vminpd(x, m)` does.
// ---------------------------------------------------------------------------

void add_scalar(double* dst, const double* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += src[i];
}

double min_value_scalar(const double* v, std::size_t n) {
  double m = kInf;
  for (std::size_t i = 0; i < n; ++i) m = v[i] < m ? v[i] : m;
  return m + 0.0;
}

void sub_scalar_scalar(double* v, double c, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) v[i] -= c;
}

double fold_chord_scalar(const double* row, const double* msg, double c, std::size_t n) {
  double m = kInf;
  for (std::size_t i = 0; i < n; ++i) {
    const double value = (row[i] - msg[i]) - c;
    m = value < m ? value : m;
  }
  return m + 0.0;
}

double fold_tree_cm_scalar(const double* d, const double* row, double c, const double* msg,
                           std::size_t n) {
  double m = kInf;
  for (std::size_t i = 0; i < n; ++i) {
    const double value = d[i] + ((row[i] - c) - msg[i]);
    m = value < m ? value : m;
  }
  return m + 0.0;
}

double fold_tree_mc_scalar(const double* d, const double* row, const double* msg, double c,
                           std::size_t n) {
  double m = kInf;
  for (std::size_t i = 0; i < n; ++i) {
    const double value = d[i] + ((row[i] - msg[i]) - c);
    m = value < m ? value : m;
  }
  return m + 0.0;
}

void sum_rows_scalar(double* dst, const double* const* rows, std::size_t row_count,
                     std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    double s = rows[0][j];
    for (std::size_t r = 1; r < row_count; ++r) s += rows[r][j];
    dst[j] = s;
  }
}

void joint_block_scalar(double* dst, const double* col_add, const double* row_add, const double* m,
                        std::size_t rows, std::size_t cols) {
  for (std::size_t a = 0; a < rows; ++a) {
    const double ra = row_add[a];
    const double* mrow = m + a * cols;
    double* drow = dst + a * cols;
    for (std::size_t b = 0; b < cols; ++b) drow[b] = (ra + col_add[b]) + mrow[b];
  }
}

// The per-row base s·a[i] − b[i] is evaluated as a plain scalar expression
// in every dispatch path (then broadcast), so the vector paths reproduce
// the scalar bit pattern by construction.
double min_convolve2_scalar(double* out, const double* rows, double s, const double* a,
                            const double* b, std::size_t in_count, std::size_t out_count) {
  for (std::size_t j = 0; j < out_count; ++j) {
    double m = kInf;
    for (std::size_t i = 0; i < in_count; ++i) {
      const double base = s * a[i] - b[i];
      const double sum = base + rows[i * out_count + j];
      m = sum < m ? sum : m;
    }
    out[j] = m;
  }
  return min_value_scalar(out, out_count);
}

// Each column's running prefix and suffix stay in one register while the
// slots are written.  The AVX2 table shares this twin: an AVX2 version
// saved about 7 of 162 ns per call at L = 5, too little to show in a
// solve (DESIGN.md §14.2).
void loo_profiles_scalar(double* dst, std::size_t stride, const double* base,
                         const double* const* rows, std::size_t deg, std::size_t n) {
  if (deg == 0) return;
  for (std::size_t j = 0; j < n; ++j) {
    double prefix = base[j];
    for (std::size_t k = 0; k + 1 < deg; ++k) {
      dst[k * stride + j] = prefix;
      prefix += rows[k][j];
    }
    dst[(deg - 1) * stride + j] = prefix;
    if (deg < 2) continue;
    double suffix = rows[deg - 1][j];
    for (std::size_t k = deg - 1; k-- > 0;) {
      dst[k * stride + j] += suffix;
      if (k > 0) suffix += rows[k][j];
    }
  }
}

constexpr Kernels kScalarTable = {
    add_scalar,          min_value_scalar,    sub_scalar_scalar,
    fold_chord_scalar,   fold_tree_cm_scalar, fold_tree_mc_scalar,
    sum_rows_scalar,     joint_block_scalar,  min_convolve2_scalar,
    loo_profiles_scalar,
};

// ---------------------------------------------------------------------------
// AVX2 kernels (x86-64, function-level target attribute, runtime-gated).
// ---------------------------------------------------------------------------

#if defined(ICSDIV_SIMD_AVX2)

#define ICSDIV_AVX2 __attribute__((target("avx2")))

ICSDIV_AVX2 void add_avx2(double* dst, const double* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(dst + i, _mm256_add_pd(_mm256_loadu_pd(dst + i), _mm256_loadu_pd(src + i)));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

ICSDIV_AVX2 double horizontal_min(__m256d acc) {
  __m128d m = _mm_min_pd(_mm256_castpd256_pd128(acc), _mm256_extractf128_pd(acc, 1));
  m = _mm_min_sd(m, _mm_unpackhi_pd(m, m));
  return _mm_cvtsd_f64(m);
}

ICSDIV_AVX2 double min_value_avx2(const double* v, std::size_t n) {
  double m = kInf;
  std::size_t i = 0;
  if (n >= 4) {
    __m256d acc = _mm256_set1_pd(kInf);
    for (; i + 4 <= n; i += 4) acc = _mm256_min_pd(_mm256_loadu_pd(v + i), acc);
    m = horizontal_min(acc);
  }
  for (; i < n; ++i) m = v[i] < m ? v[i] : m;
  return m + 0.0;
}

ICSDIV_AVX2 void sub_scalar_avx2(double* v, double c, std::size_t n) {
  const __m256d vc = _mm256_set1_pd(c);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(v + i, _mm256_sub_pd(_mm256_loadu_pd(v + i), vc));
  }
  for (; i < n; ++i) v[i] -= c;
}

ICSDIV_AVX2 double fold_chord_avx2(const double* row, const double* msg, double c, std::size_t n) {
  const __m256d vc = _mm256_set1_pd(c);
  double m = kInf;
  std::size_t i = 0;
  if (n >= 4) {
    __m256d acc = _mm256_set1_pd(kInf);
    for (; i + 4 <= n; i += 4) {
      const __m256d value =
          _mm256_sub_pd(_mm256_sub_pd(_mm256_loadu_pd(row + i), _mm256_loadu_pd(msg + i)), vc);
      acc = _mm256_min_pd(value, acc);
    }
    m = horizontal_min(acc);
  }
  for (; i < n; ++i) {
    const double value = (row[i] - msg[i]) - c;
    m = value < m ? value : m;
  }
  return m + 0.0;
}

ICSDIV_AVX2 double fold_tree_cm_avx2(const double* d, const double* row, double c,
                                     const double* msg, std::size_t n) {
  const __m256d vc = _mm256_set1_pd(c);
  double m = kInf;
  std::size_t i = 0;
  if (n >= 4) {
    __m256d acc = _mm256_set1_pd(kInf);
    for (; i + 4 <= n; i += 4) {
      const __m256d pairwise =
          _mm256_sub_pd(_mm256_sub_pd(_mm256_loadu_pd(row + i), vc), _mm256_loadu_pd(msg + i));
      acc = _mm256_min_pd(_mm256_add_pd(_mm256_loadu_pd(d + i), pairwise), acc);
    }
    m = horizontal_min(acc);
  }
  for (; i < n; ++i) {
    const double value = d[i] + ((row[i] - c) - msg[i]);
    m = value < m ? value : m;
  }
  return m + 0.0;
}

ICSDIV_AVX2 double fold_tree_mc_avx2(const double* d, const double* row, const double* msg,
                                     double c, std::size_t n) {
  const __m256d vc = _mm256_set1_pd(c);
  double m = kInf;
  std::size_t i = 0;
  if (n >= 4) {
    __m256d acc = _mm256_set1_pd(kInf);
    for (; i + 4 <= n; i += 4) {
      const __m256d pairwise =
          _mm256_sub_pd(_mm256_sub_pd(_mm256_loadu_pd(row + i), _mm256_loadu_pd(msg + i)), vc);
      acc = _mm256_min_pd(_mm256_add_pd(_mm256_loadu_pd(d + i), pairwise), acc);
    }
    m = horizontal_min(acc);
  }
  for (; i < n; ++i) {
    const double value = d[i] + ((row[i] - msg[i]) - c);
    m = value < m ? value : m;
  }
  return m + 0.0;
}

// Fused kernels: the label pools are tiny (L is typically 5), so these
// keep the 4-wide accumulator in a register across the whole row loop —
// the memory traffic is one read of each input and one write of dst.

ICSDIV_AVX2 void sum_rows_avx2(double* dst, const double* const* rows, std::size_t row_count,
                               std::size_t n) {
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    __m256d s = _mm256_loadu_pd(rows[0] + j);
    for (std::size_t r = 1; r < row_count; ++r) {
      s = _mm256_add_pd(s, _mm256_loadu_pd(rows[r] + j));
    }
    _mm256_storeu_pd(dst + j, s);
  }
  for (; j < n; ++j) {
    double s = rows[0][j];
    for (std::size_t r = 1; r < row_count; ++r) s += rows[r][j];
    dst[j] = s;
  }
}

ICSDIV_AVX2 void joint_block_avx2(double* dst, const double* col_add, const double* row_add,
                                  const double* m, std::size_t rows, std::size_t cols) {
  for (std::size_t a = 0; a < rows; ++a) {
    const __m256d ra = _mm256_set1_pd(row_add[a]);
    const double* mrow = m + a * cols;
    double* drow = dst + a * cols;
    std::size_t b = 0;
    for (; b + 4 <= cols; b += 4) {
      const __m256d left = _mm256_add_pd(ra, _mm256_loadu_pd(col_add + b));
      _mm256_storeu_pd(drow + b, _mm256_add_pd(left, _mm256_loadu_pd(mrow + b)));
    }
    const double ra_scalar = row_add[a];
    for (; b < cols; ++b) drow[b] = (ra_scalar + col_add[b]) + mrow[b];
  }
}

ICSDIV_AVX2 double min_convolve2_avx2(double* out, const double* rows, double s, const double* a,
                                      const double* b, std::size_t in_count,
                                      std::size_t out_count) {
  std::size_t j = 0;
  for (; j + 4 <= out_count; j += 4) {
    __m256d m = _mm256_set1_pd(kInf);
    for (std::size_t i = 0; i < in_count; ++i) {
      const double base = s * a[i] - b[i];  // scalar, exactly as the reference
      const __m256d sum =
          _mm256_add_pd(_mm256_set1_pd(base), _mm256_loadu_pd(rows + i * out_count + j));
      m = _mm256_min_pd(sum, m);  // sum < m ? sum : m, like the scalar loop
    }
    _mm256_storeu_pd(out + j, m);
  }
  for (; j < out_count; ++j) {
    double m = kInf;
    for (std::size_t i = 0; i < in_count; ++i) {
      const double base = s * a[i] - b[i];
      const double sum = base + rows[i * out_count + j];
      m = sum < m ? sum : m;
    }
    out[j] = m;
  }
  return min_value_avx2(out, out_count);
}

constexpr Kernels kAvx2Table = {
    add_avx2,          min_value_avx2,    sub_scalar_avx2,
    fold_chord_avx2,   fold_tree_cm_avx2, fold_tree_mc_avx2,
    sum_rows_avx2,     joint_block_avx2,  min_convolve2_avx2,
    loo_profiles_scalar,
};

#endif  // ICSDIV_SIMD_AVX2

Dispatch detect_default() {
  Dispatch best = Dispatch::Scalar;
#if defined(ICSDIV_SIMD_AVX2)
  if (__builtin_cpu_supports("avx2")) best = Dispatch::Avx2;
#endif
  if (const char* env = std::getenv("ICSDIV_SIMD")) {
    Dispatch requested = Dispatch::Scalar;
    if (parse_dispatch(env, requested) && supported(requested)) best = requested;
  }
  return best;
}

std::atomic<int>& active_slot() {
  static std::atomic<int> slot{static_cast<int>(detect_default())};
  return slot;
}

}  // namespace

const Kernels& kernels(Dispatch dispatch) noexcept {
  switch (dispatch) {
    case Dispatch::Avx2:
#if defined(ICSDIV_SIMD_AVX2)
      if (__builtin_cpu_supports("avx2")) return kAvx2Table;
#endif
      return kScalarTable;
    case Dispatch::Scalar:
      return kScalarTable;
  }
  return kScalarTable;
}

const Kernels& kernels() noexcept { return kernels(active()); }

Dispatch active() noexcept {
  return static_cast<Dispatch>(active_slot().load(std::memory_order_relaxed));
}

bool set_active(Dispatch dispatch) noexcept {
  if (!supported(dispatch)) return false;
  active_slot().store(static_cast<int>(dispatch), std::memory_order_relaxed);
  return true;
}

bool supported(Dispatch dispatch) noexcept {
  switch (dispatch) {
    case Dispatch::Scalar:
      return true;
    case Dispatch::Avx2:
#if defined(ICSDIV_SIMD_AVX2)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
  }
  return false;
}

const char* name(Dispatch dispatch) noexcept {
  switch (dispatch) {
    case Dispatch::Scalar:
      return "scalar";
    case Dispatch::Avx2:
      return "avx2";
  }
  return "scalar";
}

bool parse_dispatch(const char* text, Dispatch& out) noexcept {
  if (text == nullptr) return false;
  if (std::strcmp(text, "scalar") == 0 || std::strcmp(text, "off") == 0) {
    out = Dispatch::Scalar;
    return true;
  }
  if (std::strcmp(text, "avx2") == 0) {
    out = Dispatch::Avx2;
    return true;
  }
  return false;
}

}  // namespace icsdiv::support::simd
