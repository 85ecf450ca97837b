//===- nn/Tensor.h - Minimal dense linear algebra -------------------------===//
//
// Part of the DreamCoder C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deliberately small dense-matrix substrate for the recognition model
/// (paper §4): row-major float matrices with just the batched kernels an
/// MLP trained by backprop needs. The paper's implementation uses PyTorch;
/// this from-scratch replacement keeps the reproduction dependency-free
/// (see DESIGN.md, substitutions).
///
/// Every kernel fixes its per-element summation order (DESIGN.md §5): a
/// product sum is one float accumulator starting at +0 and adding terms in
/// ascending inner index, and a sum over a batch adds the examples'
/// contributions to the element in ascending example order. Tiling and
/// SIMD change which elements are computed together, never that order, so
/// any batch size — one included — gives each row the same bits.
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

  /// Batched matrix-vector product (GEMM): row b of \p Y becomes
  /// this · (row b of \p X). X is B × cols(), Y becomes B × rows().
  /// Register-blocked for instruction-level parallelism; each element is
  /// a single accumulator over ascending column index. \p X and \p Y must
  /// be distinct objects, and neither may be this.
  void matmulInto(const Matrix &X, Matrix &Y) const;

  /// Row b of \p Y becomes thisᵀ · (row b of \p X). X is B × rows(), Y
  /// becomes B × cols(); each element is a single accumulator over
  /// ascending row index. Terms whose X[b][i] is zero are skipped, which
  /// is bit-identical while this matrix is finite. Same aliasing rules as
  /// matmulInto.
  void matmulTransposedInto(const Matrix &X, Matrix &Y) const;

  /// this += Scale-scaled sum of per-example outer products:
  /// this[i][j] += (A[b][i] · Scale) · B[b][j] for b ascending, each term
  /// added to the element itself. A is B × rows(), B is B × cols(). Each
  /// (b, i) whose A[b][i] · Scale is zero is skipped, which is
  /// bit-identical while B is finite and no element of this is −0 (a
  /// zeroed accumulator never becomes −0).
  void addOuterBatch(const Matrix &A, const Matrix &B, float Scale = 1.0f);

  /// Y[j] += Σ_i this[i][j] with i ascending per element (batched bias
  /// gradient: rows are examples). Y.size() must equal cols().
  void addColumnSumsTo(std::vector<float> &Y) const;

private:
  int R = 0, C = 0;
  std::vector<float> Data;
};

/// Numerically stable log Σ exp(Logits[i]) over the \p N indices i at
/// \p Active (max-shifted, float sum in the given order), so
/// Logits[i] minus the result is the log-softmax of i restricted to
/// Active. \p N must be positive.
float maskedLogSumExp(const float *Logits, const int *Active, size_t N);

} // namespace nn
} // namespace dc

#endif // DC_NN_TENSOR_H
