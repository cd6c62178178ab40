// Kernel-equivalence tests: the blocked/SIMD GEMM kernels must match the
// naive reference kernels (nn/matrix_reference.cc) on random inputs across
// a shape grid that covers every tail path of the 4x16 register tiling —
// dimensions below one tile, exact multiples, and one-past-a-multiple.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "nn/matrix.h"
#include "util/rng.h"

namespace pythia::nn {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, Pcg32* rng) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng->UniformRange(-1.0, 1.0));
  }
  return m;
}

// FMA kernels round differently from the strict left-to-right reference
// sum, so equality is up to a relative tolerance scaled by the reduction
// length.
void ExpectNear(const Matrix& got, const Matrix& want, size_t k) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  const float tol = 1e-5f * static_cast<float>(k + 8);
  for (size_t r = 0; r < want.rows(); ++r) {
    for (size_t c = 0; c < want.cols(); ++c) {
      const float w = want.at(r, c);
      EXPECT_NEAR(got.at(r, c), w, tol * (std::fabs(w) + 1.0f))
          << "at (" << r << ", " << c << ")";
    }
  }
}

struct Shape {
  size_t m, k, n;
};

// Covers: single element, sub-tile, exact 4x16 tiles, the 8-wide column
// fallback, and +1/-1 off every tile boundary.
const Shape kShapes[] = {
    {1, 1, 1},   {1, 7, 1},    {2, 3, 5},    {3, 8, 16},
    {4, 16, 16}, {5, 17, 9},   {8, 8, 8},    {16, 16, 16},
    {17, 31, 33}, {33, 9, 65}, {40, 64, 64}, {64, 64, 64},
    {65, 3, 17}, {7, 128, 24},
};

TEST(NnKernelsTest, MatMulMatchesReference) {
  Pcg32 rng(11);
  for (const Shape& s : kShapes) {
    Matrix a = RandomMatrix(s.m, s.k, &rng);
    Matrix b = RandomMatrix(s.k, s.n, &rng);
    ExpectNear(MatMul(a, b), reference::MatMul(a, b), s.k);
  }
}

TEST(NnKernelsTest, MatMulBTMatchesReference) {
  Pcg32 rng(12);
  for (const Shape& s : kShapes) {
    Matrix a = RandomMatrix(s.m, s.k, &rng);
    Matrix b = RandomMatrix(s.n, s.k, &rng);
    ExpectNear(MatMulBT(a, b), reference::MatMulBT(a, b), s.k);
  }
}

TEST(NnKernelsTest, MatMulATMatchesReference) {
  Pcg32 rng(13);
  for (const Shape& s : kShapes) {
    Matrix a = RandomMatrix(s.k, s.m, &rng);
    Matrix b = RandomMatrix(s.k, s.n, &rng);
    ExpectNear(MatMulAT(a, b), reference::MatMulAT(a, b), s.k);
  }
}

TEST(NnKernelsTest, MatMulBTIntoFusesAlpha) {
  Pcg32 rng(14);
  Matrix a = RandomMatrix(9, 33, &rng);
  Matrix b = RandomMatrix(13, 33, &rng);
  const float alpha = 0.125f;  // exact in binary: scaling commutes bit-wise
  Matrix fused;
  MatMulBTInto(a, b, &fused, alpha);
  Matrix ref = reference::MatMulBT(a, b);
  ref *= alpha;
  ExpectNear(fused, ref, 33);
}

TEST(NnKernelsTest, MatMulATAccumAddsIntoExistingOutput) {
  Pcg32 rng(15);
  Matrix a = RandomMatrix(17, 5, &rng);
  Matrix b = RandomMatrix(17, 21, &rng);
  Matrix acc = RandomMatrix(5, 21, &rng);
  Matrix want = acc;
  want += reference::MatMulAT(a, b);
  MatMulATAccum(a, b, &acc);
  ExpectNear(acc, want, 17);
}

TEST(NnKernelsTest, IntoVariantsReuseScratchAcrossShapes) {
  // The same out-matrix serves calls of different shapes; results must be
  // as if it were freshly constructed each time.
  Pcg32 rng(16);
  Matrix out;
  for (const Shape& s : kShapes) {
    Matrix a = RandomMatrix(s.m, s.k, &rng);
    Matrix b = RandomMatrix(s.k, s.n, &rng);
    MatMulInto(a, b, &out);
    ExpectNear(out, reference::MatMul(a, b), s.k);
  }
}

TEST(NnKernelsTest, AddBiasReluInPlaceMatchesUnfused) {
  Pcg32 rng(17);
  Matrix x = RandomMatrix(6, 37, &rng);
  Matrix bias = RandomMatrix(1, 37, &rng);
  Matrix fused = x;
  AddBiasReluInPlace(&fused, bias);
  for (size_t r = 0; r < x.rows(); ++r) {
    for (size_t c = 0; c < x.cols(); ++c) {
      const float v = x.at(r, c) + bias.at(0, c);
      EXPECT_EQ(fused.at(r, c), v < 0.0f ? 0.0f : v);
    }
  }
}

TEST(NnKernelsTest, SoftmaxRowsIntoMatchesSoftmaxRows) {
  Pcg32 rng(18);
  Matrix x = RandomMatrix(7, 19, &rng);
  Matrix got;
  SoftmaxRowsInto(x, &got);
  Matrix want = SoftmaxRows(x);
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got.data()[i], want.data()[i]);
  }
}

TEST(NnKernelsDeathTest, ShapeMismatchAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Matrix a(3, 4);
  Matrix b(5, 6);  // inner dimensions disagree
  EXPECT_DEATH(MatMul(a, b), "shape mismatch");
  EXPECT_DEATH(MatMulBT(a, b), "shape mismatch");
  EXPECT_DEATH(MatMulAT(a, b), "shape mismatch");
}

TEST(NnKernelsTest, SimdDispatchIsReported) {
  // Purely informational, but pins the symbol so the dispatch path is
  // linked and exercised; the value depends on the host CPU and the
  // PYTHIA_SIMD environment variable.
  const bool simd = SimdKernelsEnabled();
  const char* env = std::getenv("PYTHIA_SIMD");
  if (env != nullptr && env[0] == '0') {
    EXPECT_FALSE(simd);
  }
}

}  // namespace
}  // namespace pythia::nn
