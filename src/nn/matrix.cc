// Blocked GEMM kernels with runtime-dispatched AVX2+FMA fast paths.
//
// Layout of this file:
//  - shape checking (every public kernel validates its operands; a
//    mismatch aborts instead of silently reading out of bounds),
//  - the AVX2+FMA micro-kernels, compiled via function target attributes
//    so the translation unit itself needs no -mavx2 and the binary stays
//    runnable on any x86-64 (dispatch happens once, at first use),
//  - portable register-tiled scalar fallbacks,
//  - the public entry points.
//
// Two kernel shapes cover all three GEMM variants:
//  - "broadcast-A" (MatMul, MatMulAT): C += A_view * B walks B's rows
//    contiguously and broadcasts one A element per FMA, register-tiled
//    4 rows x 16 columns. MatMulAT is the same kernel with A indexed
//    through strides as its own transpose, so there is exactly one
//    micro-kernel to keep correct.
//  - "dot-product" (MatMulBT): both operands are walked contiguously
//    along k; 4 dot products run in parallel to amortize the A-row loads,
//    with a horizontal reduction at the end of each strip.
#include "nn/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PYTHIA_SIMD_X86 1
#include <immintrin.h>
#else
#define PYTHIA_SIMD_X86 0
#endif

namespace pythia::nn {

namespace {

[[noreturn]] void DieShape(const char* op, const Matrix& a, const Matrix& b) {
  std::fprintf(stderr,
               "pythia/nn: %s shape mismatch: (%zu x %zu) vs (%zu x %zu)\n",
               op, a.rows(), a.cols(), b.rows(), b.cols());
  std::abort();
}

inline void CheckShapes(bool ok, const char* op, const Matrix& a,
                        const Matrix& b) {
  if (!ok) DieShape(op, a, b);
}

// ---------------------------------------------------------------------------
// AVX2 + FMA kernels (x86-64 only; selected at runtime).
// ---------------------------------------------------------------------------
#if PYTHIA_SIMD_X86

__attribute__((target("avx2,fma"))) inline float HSum8(__m256 v) {
  __m128 lo = _mm_add_ps(_mm256_castps256_ps128(v),
                         _mm256_extractf128_ps(v, 1));
  lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_add_ss(lo, _mm_movehdup_ps(lo));
  return _mm_cvtss_f32(lo);
}

// C(m x n, ldc) += A_view(m x k) * B(k x n, ldb), where
// A_view(r, p) = a[r * ars + p * acs]. (ars, acs) = (k, 1) gives plain
// A; (1, m) reads A as its own transpose for the MatMulAT case.
__attribute__((target("avx2,fma"))) void GemmBroadcastAAvx2(
    const float* a, size_t ars, size_t acs, size_t m, size_t k,
    const float* b, size_t ldb, size_t n, float* c, size_t ldc) {
  size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const float* a0 = a + (i + 0) * ars;
    const float* a1 = a + (i + 1) * ars;
    const float* a2 = a + (i + 2) * ars;
    const float* a3 = a + (i + 3) * ars;
    float* c0 = c + (i + 0) * ldc;
    float* c1 = c + (i + 1) * ldc;
    float* c2 = c + (i + 2) * ldc;
    float* c3 = c + (i + 3) * ldc;
    size_t j = 0;
    for (; j + 16 <= n; j += 16) {
      __m256 s00 = _mm256_loadu_ps(c0 + j), s01 = _mm256_loadu_ps(c0 + j + 8);
      __m256 s10 = _mm256_loadu_ps(c1 + j), s11 = _mm256_loadu_ps(c1 + j + 8);
      __m256 s20 = _mm256_loadu_ps(c2 + j), s21 = _mm256_loadu_ps(c2 + j + 8);
      __m256 s30 = _mm256_loadu_ps(c3 + j), s31 = _mm256_loadu_ps(c3 + j + 8);
      for (size_t p = 0; p < k; ++p) {
        const float* brow = b + p * ldb + j;
        const __m256 b0 = _mm256_loadu_ps(brow);
        const __m256 b1 = _mm256_loadu_ps(brow + 8);
        __m256 av = _mm256_set1_ps(a0[p * acs]);
        s00 = _mm256_fmadd_ps(av, b0, s00);
        s01 = _mm256_fmadd_ps(av, b1, s01);
        av = _mm256_set1_ps(a1[p * acs]);
        s10 = _mm256_fmadd_ps(av, b0, s10);
        s11 = _mm256_fmadd_ps(av, b1, s11);
        av = _mm256_set1_ps(a2[p * acs]);
        s20 = _mm256_fmadd_ps(av, b0, s20);
        s21 = _mm256_fmadd_ps(av, b1, s21);
        av = _mm256_set1_ps(a3[p * acs]);
        s30 = _mm256_fmadd_ps(av, b0, s30);
        s31 = _mm256_fmadd_ps(av, b1, s31);
      }
      _mm256_storeu_ps(c0 + j, s00);
      _mm256_storeu_ps(c0 + j + 8, s01);
      _mm256_storeu_ps(c1 + j, s10);
      _mm256_storeu_ps(c1 + j + 8, s11);
      _mm256_storeu_ps(c2 + j, s20);
      _mm256_storeu_ps(c2 + j + 8, s21);
      _mm256_storeu_ps(c3 + j, s30);
      _mm256_storeu_ps(c3 + j + 8, s31);
    }
    for (; j + 8 <= n; j += 8) {
      __m256 s0 = _mm256_loadu_ps(c0 + j);
      __m256 s1 = _mm256_loadu_ps(c1 + j);
      __m256 s2 = _mm256_loadu_ps(c2 + j);
      __m256 s3 = _mm256_loadu_ps(c3 + j);
      for (size_t p = 0; p < k; ++p) {
        const __m256 bv = _mm256_loadu_ps(b + p * ldb + j);
        s0 = _mm256_fmadd_ps(_mm256_set1_ps(a0[p * acs]), bv, s0);
        s1 = _mm256_fmadd_ps(_mm256_set1_ps(a1[p * acs]), bv, s1);
        s2 = _mm256_fmadd_ps(_mm256_set1_ps(a2[p * acs]), bv, s2);
        s3 = _mm256_fmadd_ps(_mm256_set1_ps(a3[p * acs]), bv, s3);
      }
      _mm256_storeu_ps(c0 + j, s0);
      _mm256_storeu_ps(c1 + j, s1);
      _mm256_storeu_ps(c2 + j, s2);
      _mm256_storeu_ps(c3 + j, s3);
    }
    if (j < n) {
      for (size_t p = 0; p < k; ++p) {
        const float* brow = b + p * ldb;
        const float av0 = a0[p * acs], av1 = a1[p * acs];
        const float av2 = a2[p * acs], av3 = a3[p * acs];
        for (size_t jj = j; jj < n; ++jj) {
          const float bv = brow[jj];
          c0[jj] += av0 * bv;
          c1[jj] += av1 * bv;
          c2[jj] += av2 * bv;
          c3[jj] += av3 * bv;
        }
      }
    }
  }
  for (; i < m; ++i) {
    const float* ar = a + i * ars;
    float* cr = c + i * ldc;
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      __m256 s = _mm256_loadu_ps(cr + j);
      for (size_t p = 0; p < k; ++p) {
        s = _mm256_fmadd_ps(_mm256_set1_ps(ar[p * acs]),
                            _mm256_loadu_ps(b + p * ldb + j), s);
      }
      _mm256_storeu_ps(cr + j, s);
    }
    for (; j < n; ++j) {
      float acc = cr[j];
      for (size_t p = 0; p < k; ++p) acc += ar[p * acs] * b[p * ldb + j];
      cr[j] = acc;
    }
  }
}

// C(m x n, ldc) = alpha * A(m x k, lda) * B(n x k, ldb)^T.
__attribute__((target("avx2,fma"))) void GemmDotBTAvx2(
    const float* a, size_t lda, size_t m, size_t k, const float* b,
    size_t ldb, size_t n, float alpha, float* c, size_t ldc) {
  for (size_t i = 0; i < m; ++i) {
    const float* ar = a + i * lda;
    float* cr = c + i * ldc;
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const float* b0 = b + (j + 0) * ldb;
      const float* b1 = b + (j + 1) * ldb;
      const float* b2 = b + (j + 2) * ldb;
      const float* b3 = b + (j + 3) * ldb;
      __m256 s0 = _mm256_setzero_ps(), s1 = _mm256_setzero_ps();
      __m256 s2 = _mm256_setzero_ps(), s3 = _mm256_setzero_ps();
      size_t p = 0;
      for (; p + 8 <= k; p += 8) {
        const __m256 av = _mm256_loadu_ps(ar + p);
        s0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b0 + p), s0);
        s1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b1 + p), s1);
        s2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b2 + p), s2);
        s3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b3 + p), s3);
      }
      float d0 = HSum8(s0), d1 = HSum8(s1), d2 = HSum8(s2), d3 = HSum8(s3);
      for (; p < k; ++p) {
        const float av = ar[p];
        d0 += av * b0[p];
        d1 += av * b1[p];
        d2 += av * b2[p];
        d3 += av * b3[p];
      }
      cr[j + 0] = alpha * d0;
      cr[j + 1] = alpha * d1;
      cr[j + 2] = alpha * d2;
      cr[j + 3] = alpha * d3;
    }
    for (; j < n; ++j) {
      const float* br = b + j * ldb;
      __m256 s = _mm256_setzero_ps();
      size_t p = 0;
      for (; p + 8 <= k; p += 8) {
        s = _mm256_fmadd_ps(_mm256_loadu_ps(ar + p), _mm256_loadu_ps(br + p),
                            s);
      }
      float d = HSum8(s);
      for (; p < k; ++p) d += ar[p] * br[p];
      cr[j] = alpha * d;
    }
  }
}

bool DetectSimd() {
  if (const char* env = std::getenv("PYTHIA_SIMD")) {
    if (env[0] == '0' && env[1] == '\0') return false;
  }
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

#else  // !PYTHIA_SIMD_X86

bool DetectSimd() { return false; }

#endif  // PYTHIA_SIMD_X86

inline bool UseSimd() {
  static const bool simd = DetectSimd();
  return simd;
}

// ---------------------------------------------------------------------------
// Portable blocked scalar fallbacks. Same 4-row register tile as the SIMD
// path so each B row is streamed once per four output rows; the contiguous
// inner loops auto-vectorize under the project's base flags.
// ---------------------------------------------------------------------------

void GemmBroadcastAScalar(const float* a, size_t ars, size_t acs, size_t m,
                          size_t k, const float* b, size_t ldb, size_t n,
                          float* c, size_t ldc) {
  size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const float* a0 = a + (i + 0) * ars;
    const float* a1 = a + (i + 1) * ars;
    const float* a2 = a + (i + 2) * ars;
    const float* a3 = a + (i + 3) * ars;
    float* c0 = c + (i + 0) * ldc;
    float* c1 = c + (i + 1) * ldc;
    float* c2 = c + (i + 2) * ldc;
    float* c3 = c + (i + 3) * ldc;
    for (size_t p = 0; p < k; ++p) {
      const float* brow = b + p * ldb;
      const float av0 = a0[p * acs], av1 = a1[p * acs];
      const float av2 = a2[p * acs], av3 = a3[p * acs];
      for (size_t j = 0; j < n; ++j) {
        const float bv = brow[j];
        c0[j] += av0 * bv;
        c1[j] += av1 * bv;
        c2[j] += av2 * bv;
        c3[j] += av3 * bv;
      }
    }
  }
  for (; i < m; ++i) {
    const float* ar = a + i * ars;
    float* cr = c + i * ldc;
    for (size_t p = 0; p < k; ++p) {
      const float av = ar[p * acs];
      const float* brow = b + p * ldb;
      for (size_t j = 0; j < n; ++j) cr[j] += av * brow[j];
    }
  }
}

void GemmDotBTScalar(const float* a, size_t lda, size_t m, size_t k,
                     const float* b, size_t ldb, size_t n, float alpha,
                     float* c, size_t ldc) {
  for (size_t i = 0; i < m; ++i) {
    const float* ar = a + i * lda;
    float* cr = c + i * ldc;
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const float* b0 = b + (j + 0) * ldb;
      const float* b1 = b + (j + 1) * ldb;
      const float* b2 = b + (j + 2) * ldb;
      const float* b3 = b + (j + 3) * ldb;
      float d0 = 0.0f, d1 = 0.0f, d2 = 0.0f, d3 = 0.0f;
      for (size_t p = 0; p < k; ++p) {
        const float av = ar[p];
        d0 += av * b0[p];
        d1 += av * b1[p];
        d2 += av * b2[p];
        d3 += av * b3[p];
      }
      cr[j + 0] = alpha * d0;
      cr[j + 1] = alpha * d1;
      cr[j + 2] = alpha * d2;
      cr[j + 3] = alpha * d3;
    }
    for (; j < n; ++j) {
      const float* br = b + j * ldb;
      float d = 0.0f;
      for (size_t p = 0; p < k; ++p) d += ar[p] * br[p];
      cr[j] = alpha * d;
    }
  }
}

inline void GemmBroadcastA(const float* a, size_t ars, size_t acs, size_t m,
                           size_t k, const float* b, size_t ldb, size_t n,
                           float* c, size_t ldc) {
#if PYTHIA_SIMD_X86
  if (UseSimd()) {
    GemmBroadcastAAvx2(a, ars, acs, m, k, b, ldb, n, c, ldc);
    return;
  }
#endif
  GemmBroadcastAScalar(a, ars, acs, m, k, b, ldb, n, c, ldc);
}

inline void GemmDotBT(const float* a, size_t lda, size_t m, size_t k,
                      const float* b, size_t ldb, size_t n, float alpha,
                      float* c, size_t ldc) {
#if PYTHIA_SIMD_X86
  if (UseSimd()) {
    GemmDotBTAvx2(a, lda, m, k, b, ldb, n, alpha, c, ldc);
    return;
  }
#endif
  GemmDotBTScalar(a, lda, m, k, b, ldb, n, alpha, c, ldc);
}

}  // namespace

bool SimdKernelsEnabled() { return UseSimd(); }

Matrix& Matrix::operator+=(const Matrix& other) {
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(float s) {
  for (float& v : data_) v *= s;
  return *this;
}

void Matrix::Axpy(float s, const Matrix& other) {
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += s * other.data_[i];
}

double Matrix::SquaredNorm() const {
  double acc = 0.0;
  for (float v : data_) acc += static_cast<double>(v) * v;
  return acc;
}

Matrix MatMul(const Matrix& a, const Matrix& b) {
  Matrix out;
  MatMulInto(a, b, &out);
  return out;
}

void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out) {
  CheckShapes(a.cols() == b.rows(), "MatMul", a, b);
  out->Resize(a.rows(), b.cols());
  out->Zero();
  GemmBroadcastA(a.data(), a.cols(), 1, a.rows(), a.cols(), b.data(),
                 b.cols(), b.cols(), out->data(), out->cols());
}

Matrix MatMulBT(const Matrix& a, const Matrix& b) {
  Matrix out;
  MatMulBTInto(a, b, &out);
  return out;
}

void MatMulBTInto(const Matrix& a, const Matrix& b, Matrix* out,
                  float alpha) {
  CheckShapes(a.cols() == b.cols(), "MatMulBT", a, b);
  out->Resize(a.rows(), b.rows());
  GemmDotBT(a.data(), a.cols(), a.rows(), a.cols(), b.data(), b.cols(),
            b.rows(), alpha, out->data(), out->cols());
}

Matrix MatMulAT(const Matrix& a, const Matrix& b) {
  Matrix out;
  MatMulATInto(a, b, &out);
  return out;
}

void MatMulATInto(const Matrix& a, const Matrix& b, Matrix* out) {
  CheckShapes(a.rows() == b.rows(), "MatMulAT", a, b);
  out->Resize(a.cols(), b.cols());
  out->Zero();
  MatMulATAccum(a, b, out);
}

void MatMulATAccum(const Matrix& a, const Matrix& b, Matrix* out) {
  CheckShapes(a.rows() == b.rows(), "MatMulATAccum", a, b);
  CheckShapes(out->rows() == a.cols() && out->cols() == b.cols(),
              "MatMulATAccum(out)", *out, b);
  // A^T is A viewed with swapped strides: row stride 1, column stride
  // a.cols(). One micro-kernel serves both MatMul and MatMulAT.
  GemmBroadcastA(a.data(), 1, a.cols(), a.cols(), a.rows(), b.data(),
                 b.cols(), b.cols(), out->data(), out->cols());
}

void AddBiasInPlace(Matrix* x, const Matrix& bias) {
  CheckShapes(bias.cols() == x->cols(), "AddBias", *x, bias);
  const float* b = bias.row(0);
  for (size_t r = 0; r < x->rows(); ++r) {
    float* o = x->row(r);
    for (size_t c = 0; c < x->cols(); ++c) o[c] += b[c];
  }
}

void AddBiasReluInPlace(Matrix* x, const Matrix& bias) {
  CheckShapes(bias.cols() == x->cols(), "AddBiasRelu", *x, bias);
  const float* b = bias.row(0);
  for (size_t r = 0; r < x->rows(); ++r) {
    float* o = x->row(r);
    for (size_t c = 0; c < x->cols(); ++c) {
      // Same predicate as Relu::Forward (v < 0 clamps), so the fused path
      // is bit-identical to Linear::Forward followed by Relu.
      const float v = o[c] + b[c];
      o[c] = v < 0.0f ? 0.0f : v;
    }
  }
}

Matrix SoftmaxRows(const Matrix& logits) {
  Matrix out;
  SoftmaxRowsInto(logits, &out);
  return out;
}

void SoftmaxRowsInto(const Matrix& logits, Matrix* out) {
  out->Resize(logits.rows(), logits.cols());
  for (size_t r = 0; r < logits.rows(); ++r) {
    const float* in = logits.row(r);
    float* o = out->row(r);
    float mx = in[0];
    for (size_t c = 1; c < logits.cols(); ++c) mx = std::max(mx, in[c]);
    float sum = 0.0f;
    for (size_t c = 0; c < logits.cols(); ++c) {
      o[c] = std::exp(in[c] - mx);
      sum += o[c];
    }
    const float inv = 1.0f / sum;
    for (size_t c = 0; c < logits.cols(); ++c) o[c] *= inv;
  }
}

Matrix SoftmaxRowsBackward(const Matrix& y, const Matrix& grad_y) {
  Matrix out(y.rows(), y.cols());
  for (size_t r = 0; r < y.rows(); ++r) {
    const float* yr = y.row(r);
    const float* gr = grad_y.row(r);
    float* o = out.row(r);
    float dot = 0.0f;
    for (size_t c = 0; c < y.cols(); ++c) dot += yr[c] * gr[c];
    for (size_t c = 0; c < y.cols(); ++c) o[c] = yr[c] * (gr[c] - dot);
  }
  return out;
}

}  // namespace pythia::nn
