//===- nn/Tensor.h - Minimal dense linear algebra -------------------------===//
//
// Part of the DreamCoder C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deliberately small dense-matrix substrate for the recognition model
/// (paper §4): row-major float matrices with just the operations an MLP
/// trained by backprop needs. The paper's implementation uses PyTorch; this
/// from-scratch replacement keeps the reproduction dependency-free (see
/// DESIGN.md, substitutions).
///
//===----------------------------------------------------------------------===//

#ifndef DC_NN_TENSOR_H
#define DC_NN_TENSOR_H

#include <cassert>
#include <random>
#include <vector>

namespace dc {
namespace nn {

/// Row-major 2-D float matrix.
class Matrix {
public:
  Matrix() = default;
  Matrix(int Rows, int Cols)
      : R(Rows), C(Cols),
        Data(static_cast<size_t>(Rows) * static_cast<size_t>(Cols), 0.0f) {}

  static Matrix zeros(int Rows, int Cols) { return Matrix(Rows, Cols); }

  /// Xavier/Glorot-style initialization.
  static Matrix glorot(int Rows, int Cols, std::mt19937 &Rng);

  int rows() const { return R; }
  int cols() const { return C; }

  /// Reshape to Rows × Cols without preserving contents (scratch-buffer
  /// semantics: batched kernels size workspace matrices once per batch).
  /// No allocation when capacity suffices.
  void resize(int Rows, int Cols) {
    R = Rows;
    C = Cols;
    Data.resize(static_cast<size_t>(Rows) * static_cast<size_t>(Cols));
  }

  float &at(int I, int J) {
    assert(I >= 0 && I < R && J >= 0 && J < C && "matrix index out of range");
    return Data[I * C + J];
  }
  float at(int I, int J) const {
    assert(I >= 0 && I < R && J >= 0 && J < C && "matrix index out of range");
    return Data[I * C + J];
  }

  float *data() { return Data.data(); }
  const float *data() const { return Data.data(); }
  size_t size() const { return Data.size(); }

  void fill(float V) { std::fill(Data.begin(), Data.end(), V); }

  /// y = this · x (matrix-vector product). x.size() must equal cols().
  std::vector<float> matvec(const std::vector<float> &X) const;

  /// y = thisᵀ · x. x.size() must equal rows().
  std::vector<float> matvecTransposed(const std::vector<float> &X) const;

  /// matvec into a caller-owned buffer (resized to rows()); no allocation
  /// when \p Y already has capacity. \p Y must not alias \p X.
  void matvecInto(const std::vector<float> &X, std::vector<float> &Y) const;

  /// matvecTransposed into a caller-owned buffer (resized to cols()).
  /// \p Y must not alias \p X.
  void matvecTransposedInto(const std::vector<float> &X,
                            std::vector<float> &Y) const;

  /// this += Scale · (A ⊗ B) — rank-one update used for weight gradients.
  void addOuter(const std::vector<float> &A, const std::vector<float> &B,
                float Scale = 1.0f);

  /// Batched matvec (GEMM): row b of \p Y becomes this · (row b of \p X).
  /// X is B × cols(), Y becomes B × rows(). Register-blocked for
  /// instruction-level parallelism, but each output element keeps the
  /// exact matvecInto accumulation order (single accumulator, ascending
  /// column index), so every row of a batch — any batch size, including
  /// 1 — is bit-identical to the matvec path (DESIGN.md §5).
  /// \p X and \p Y must be distinct objects, and neither may be this.
  void matmulInto(const Matrix &X, Matrix &Y) const;
  Matrix matmul(const Matrix &X) const;

  /// Batched matvecTransposed: row b of \p Y becomes thisᵀ · (row b of
  /// \p X). X is B × rows(), Y becomes B × cols(); per-row accumulation
  /// order matches matvecTransposedInto exactly (ascending row index,
  /// +0 start). Terms whose X[b][i] is zero are skipped, which is
  /// bit-identical while this matrix is finite. Same aliasing rules as
  /// matmulInto.
  void matmulTransposedInto(const Matrix &X, Matrix &Y) const;

  /// this += Scale-scaled sum of per-example outer products:
  /// this[i][j] += Σ_b (A[b][i] · Scale) · B[b][j], b ascending per
  /// element — the exact order a per-example addOuter followed by a
  /// fixed-order Gradients reduce produces. A is B × rows(),
  /// B is B × cols(). Each (b, i) whose A[b][i] · Scale is zero is
  /// skipped, which is bit-identical while B is finite and no element
  /// of this is −0 (a zeroed accumulator never becomes −0).
  void addOuterBatch(const Matrix &A, const Matrix &B, float Scale = 1.0f);

  /// Y[j] += Σ_i this[i][j] with i ascending per element (batched bias
  /// gradient: rows are examples). Y.size() must equal cols().
  void addColumnSumsTo(std::vector<float> &Y) const;

private:
  int R = 0, C = 0;
  std::vector<float> Data;
};

/// Elementwise helpers over plain vectors (activations live in Layers.h).
float dot(const std::vector<float> &A, const std::vector<float> &B);

/// Numerically stable log Σ exp(Logits[i]) over the \p N indices i at
/// \p Active (max-shifted, float sum in the given order), so
/// Logits[i] minus the result is the log-softmax of i restricted to
/// Active. \p N must be positive.
float maskedLogSumExp(const float *Logits, const int *Active, size_t N);

} // namespace nn
} // namespace dc

#endif // DC_NN_TENSOR_H
