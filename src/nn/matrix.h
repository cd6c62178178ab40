// Dense row-major float32 matrix — the numeric core of the from-scratch
// neural network library that replaces PyTorch in this reproduction.
//
// The GEMM kernels are register-tiled (4 output rows x 16 output columns)
// and, on x86-64 hosts with AVX2+FMA, run 8-wide FMA inner loops selected
// by one-time runtime dispatch; every other host falls back to a portable
// blocked scalar kernel. There is deliberately no BLAS dependency. Shapes
// are checked on every call (O(1) against an O(m*n*k) kernel) and a
// mismatch aborts with a diagnostic instead of silently reading out of
// bounds.
//
// The *Into variants write through an out-parameter whose storage is
// reused across calls — the layers keep these as member scratch so the
// inference path allocates nothing per query. `out` must not alias an
// input.
#ifndef PYTHIA_NN_MATRIX_H_
#define PYTHIA_NN_MATRIX_H_

#include <cstddef>
#include <vector>

namespace pythia::nn {

class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}
  Matrix(size_t rows, size_t cols, float fill)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& at(size_t r, size_t c) { return data_[r * cols_ + c]; }
  float at(size_t r, size_t c) const { return data_[r * cols_ + c]; }
  float* row(size_t r) { return data_.data() + r * cols_; }
  const float* row(size_t r) const { return data_.data() + r * cols_; }
  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  void Fill(float v) { std::fill(data_.begin(), data_.end(), v); }
  void Zero() { Fill(0.0f); }

  // Reshapes without initializing; contents are unspecified afterwards.
  // Never shrinks capacity, so scratch matrices stop allocating once they
  // have seen their steady-state shape.
  void Resize(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  // In-place elementwise operations.
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(float s);

  // Adds `s * other` (axpy), the workhorse of gradient accumulation.
  void Axpy(float s, const Matrix& other);

  // Squared Frobenius norm, used by gradient clipping.
  double SquaredNorm() const;

 private:
  size_t rows_;
  size_t cols_;
  std::vector<float> data_;
};

// out = a * b. Shapes: (m x k) * (k x n) -> (m x n).
Matrix MatMul(const Matrix& a, const Matrix& b);
void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out);

// out = alpha * (a * b^T). Shapes: (m x k) * (n x k) -> (m x n). Used for
// attention scores (alpha folds in the 1/sqrt(d) scale) and for backprop
// through linear layers without materializing transposes.
Matrix MatMulBT(const Matrix& a, const Matrix& b);
void MatMulBTInto(const Matrix& a, const Matrix& b, Matrix* out,
                  float alpha = 1.0f);

// out = a^T * b. Shapes: (k x m) * (k x n) -> (m x n). Used for weight
// gradients; the Accum form adds into `out` (which must already have the
// result shape), fusing the `grad += ...` of gradient accumulation.
Matrix MatMulAT(const Matrix& a, const Matrix& b);
void MatMulATInto(const Matrix& a, const Matrix& b, Matrix* out);
void MatMulATAccum(const Matrix& a, const Matrix& b, Matrix* out);

// Fused epilogues. `bias` is (1 x cols).
void AddBiasInPlace(Matrix* x, const Matrix& bias);       // x += bias (rows)
void AddBiasReluInPlace(Matrix* x, const Matrix& bias);   // x = relu(x+bias)

// Returns a copy with each row softmax-normalized. Numerically stabilized by
// subtracting the row max.
Matrix SoftmaxRows(const Matrix& logits);
void SoftmaxRowsInto(const Matrix& logits, Matrix* out);

// Backprop through row-wise softmax: given y = softmax(x) and dL/dy, returns
// dL/dx with dx_i = y_i * (dy_i - sum_j y_j dy_j) per row.
Matrix SoftmaxRowsBackward(const Matrix& y, const Matrix& grad_y);

// True when the AVX2+FMA kernels are active (false on non-x86 hosts, CPUs
// without AVX2, or when the PYTHIA_SIMD=0 environment variable disables
// them for cross-machine reproduction of scalar results).
bool SimdKernelsEnabled();

// The original naive scalar kernels, kept in a translation unit of their
// own (matrix_reference.cc, compiled with the project's base flags). They
// are the ground truth for the kernel-equivalence tests and the baseline
// the microbenchmarks report speedups against.
namespace reference {
Matrix MatMul(const Matrix& a, const Matrix& b);
Matrix MatMulBT(const Matrix& a, const Matrix& b);
Matrix MatMulAT(const Matrix& a, const Matrix& b);
}  // namespace reference

}  // namespace pythia::nn

#endif  // PYTHIA_NN_MATRIX_H_
