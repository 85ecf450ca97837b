//===- tests/nn/NnTest.cpp - Neural network substrate unit tests ----------===//

#include "nn/Layers.h"
#include "nn/Optimizer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <tuple>

using namespace dc::nn;

namespace {

std::uint32_t bitsOf(float F) {
  std::uint32_t B;
  std::memcpy(&B, &F, sizeof(B));
  return B;
}

// The per-element orders DESIGN.md §5 fixes, written as plain scalar
// loops: a product sum is one accumulator from +0 over ascending inner
// index, and a sum over a batch adds each example's term to the element
// in ascending example order. Every batched kernel must equal these bit
// for bit.

/// y = W · x.
std::vector<float> matvec(const Matrix &W, const float *X) {
  std::vector<float> Y(W.rows());
  for (int I = 0; I < W.rows(); ++I) {
    float Acc = 0;
    for (int J = 0; J < W.cols(); ++J)
      Acc += W.at(I, J) * X[J];
    Y[I] = Acc;
  }
  return Y;
}

/// y = Wᵀ · x.
std::vector<float> matvecTransposed(const Matrix &W, const float *X) {
  std::vector<float> Y(W.cols());
  for (int J = 0; J < W.cols(); ++J) {
    float Acc = 0;
    for (int I = 0; I < W.rows(); ++I)
      Acc += W.at(I, J) * X[I];
    Y[J] = Acc;
  }
  return Y;
}

/// M[i][j] += (A[i] · Scale) · B[j]: one example's outer product.
void addOuter(Matrix &M, const float *A, const float *B, float Scale) {
  for (int I = 0; I < M.rows(); ++I) {
    const float Ai = A[I] * Scale;
    for (int J = 0; J < M.cols(); ++J)
      M.at(I, J) += Ai * B[J];
  }
}

/// The net on one example: each layer's product sum, plus its bias, then
/// tanh after the two hidden layers.
std::vector<float> forward(const Mlp &Net, const std::vector<float> &X) {
  auto Layer = [](const Linear &L, const std::vector<float> &In,
                  bool Tanh) {
    std::vector<float> Y = matvec(L.W, In.data());
    for (size_t I = 0; I < Y.size(); ++I) {
      Y[I] += L.B[I];
      if (Tanh)
        Y[I] = std::tanh(Y[I]);
    }
    return Y;
  };
  return Layer(Net.L3, Layer(Net.L2, Layer(Net.L1, X, true), true), false);
}

/// Row \p B of \p M as a vector.
std::vector<float> rowOf(const Matrix &M, int B) {
  return {M.data() + static_cast<size_t>(B) * M.cols(),
          M.data() + static_cast<size_t>(B + 1) * M.cols()};
}

/// A B × Cols matrix of uniform values in [-Range, Range].
Matrix uniformMatrix(int B, int Cols, float Range, std::mt19937 &Rng) {
  std::uniform_real_distribution<float> U(-Range, Range);
  Matrix M(B, Cols);
  for (size_t I = 0; I < M.size(); ++I)
    M.data()[I] = U(Rng);
  return M;
}

/// Each row of \p X as one example of a forwardBatch input.
std::vector<std::vector<float>> examplesOf(const Matrix &X) {
  std::vector<std::vector<float>> Out;
  for (int B = 0; B < X.rows(); ++B)
    Out.push_back(rowOf(X, B));
  return Out;
}

/// Uniform values with scattered +0 and −0 entries, and whole rows of
/// zeros (row 0 all +0, every fourth row alternating +0/−0): the shapes
/// a recognition-training dL/dlogits matrix takes.
Matrix sparseMatrix(int Rows, int Cols, std::mt19937 &Rng) {
  std::uniform_real_distribution<float> U(-2, 2);
  std::uniform_int_distribution<int> Kind(0, 9);
  Matrix M(Rows, Cols);
  for (int I = 0; I < Rows; ++I)
    for (int J = 0; J < Cols; ++J) {
      const int K = Kind(Rng);
      float V = K < 4 ? 0.0f : K == 4 ? -0.0f : U(Rng);
      if (I == 0)
        V = 0.0f;
      else if (I % 4 == 3)
        V = J % 2 ? -0.0f : 0.0f;
      M.at(I, J) = V;
    }
  return M;
}

/// Batch, inner and outer widths: batches of 1 and 9, and widths that
/// are not a multiple of the SSE2 width, so the scalar tail runs.
constexpr std::tuple<int, int, int> SparseShapes[] = {
    {1, 7, 5}, {9, 6, 13}, {9, 9, 3}, {1, 4, 8}, {9, 17, 67}};

} // namespace

TEST(Matrix, MatvecBasics) {
  // matmulInto and matmulTransposedInto on a batch of one are the
  // matrix-vector products.
  Matrix M(2, 3);
  M.at(0, 0) = 1;
  M.at(0, 1) = 2;
  M.at(0, 2) = 3;
  M.at(1, 0) = -1;
  M.at(1, 1) = 0;
  M.at(1, 2) = 1;
  Matrix X(1, 3), Y;
  X.fill(1);
  M.matmulInto(X, Y);
  ASSERT_EQ(Y.rows(), 1);
  ASSERT_EQ(Y.cols(), 2);
  EXPECT_FLOAT_EQ(Y.at(0, 0), 6);
  EXPECT_FLOAT_EQ(Y.at(0, 1), 0);
  Matrix XT(1, 2), Z;
  XT.at(0, 0) = 1;
  XT.at(0, 1) = 2;
  M.matmulTransposedInto(XT, Z);
  ASSERT_EQ(Z.rows(), 1);
  ASSERT_EQ(Z.cols(), 3);
  EXPECT_FLOAT_EQ(Z.at(0, 0), -1);
  EXPECT_FLOAT_EQ(Z.at(0, 1), 2);
  EXPECT_FLOAT_EQ(Z.at(0, 2), 5);
}

TEST(Matrix, AddOuter) {
  Matrix M(2, 2), A(1, 2), B(1, 2);
  A.at(0, 0) = 1;
  A.at(0, 1) = 2;
  B.at(0, 0) = 3;
  B.at(0, 1) = 4;
  M.addOuterBatch(A, B, 0.5f);
  EXPECT_FLOAT_EQ(M.at(0, 0), 1.5);
  EXPECT_FLOAT_EQ(M.at(1, 1), 4.0);
}

TEST(Matrix, MatmulMatchesMatvecBitwise) {
  // The GEMM determinism contract (DESIGN.md §5): every output row of
  // matmulInto is bit-for-bit the scalar matvec of the corresponding
  // input row — same per-element accumulation order, so batch size never
  // changes a result. Exercise odd shapes that straddle tile edges, into
  // an output of the wrong shape with stale contents.
  std::mt19937 Rng(21);
  for (auto [R, C, B] : {std::tuple{5, 7, 3}, {8, 4, 9}, {3, 3, 1},
                         {16, 13, 6}, {1, 9, 5}}) {
    Matrix W = Matrix::glorot(R, C, Rng);
    Matrix X = uniformMatrix(B, C, 2, Rng);
    Matrix Y(2, 2);
    Y.fill(7.0f);
    W.matmulInto(X, Y);
    ASSERT_EQ(Y.rows(), B);
    ASSERT_EQ(Y.cols(), R);
    for (int Bi = 0; Bi < B; ++Bi) {
      std::vector<float> Ref =
          matvec(W, X.data() + static_cast<size_t>(Bi) * C);
      for (int I = 0; I < R; ++I)
        EXPECT_EQ(Y.at(Bi, I), Ref[I])
            << R << "x" << C << " batch " << B << " row " << Bi;
    }
  }
}

TEST(Matrix, MatmulTransposedMatchesMatvecTransposedBitwise) {
  std::mt19937 Rng(22);
  for (auto [R, C, B] : {std::tuple{5, 7, 3}, {8, 4, 9}, {16, 13, 1}}) {
    Matrix W = Matrix::glorot(R, C, Rng);
    Matrix X = uniformMatrix(B, R, 2, Rng);
    Matrix Y;
    W.matmulTransposedInto(X, Y);
    ASSERT_EQ(Y.rows(), B);
    ASSERT_EQ(Y.cols(), C);
    for (int Bi = 0; Bi < B; ++Bi) {
      std::vector<float> Ref =
          matvecTransposed(W, X.data() + static_cast<size_t>(Bi) * R);
      for (int J = 0; J < C; ++J)
        EXPECT_EQ(Y.at(Bi, J), Ref[J]) << "row " << Bi << " col " << J;
    }
  }
}

TEST(Matrix, AddOuterBatchMatchesSequentialAddOuter) {
  // Batched gradient accumulation must be the same += sequence as one
  // scalar outer product per example in batch order — bit-identical, not
  // just close.
  std::mt19937 Rng(23);
  const int R = 6, C = 5, B = 4;
  Matrix A = uniformMatrix(B, R, 1, Rng), X = uniformMatrix(B, C, 1, Rng);
  Matrix Batched(R, C), Sequential(R, C);
  Batched.addOuterBatch(A, X, 0.25f);
  for (int Bi = 0; Bi < B; ++Bi)
    addOuter(Sequential, A.data() + static_cast<size_t>(Bi) * R,
             X.data() + static_cast<size_t>(Bi) * C, 0.25f);
  for (size_t I = 0; I < Batched.size(); ++I)
    EXPECT_EQ(Batched.data()[I], Sequential.data()[I]) << "element " << I;
}

TEST(Matrix, SparseMatmulTransposedMatchesMatvecTransposedBitwise) {
  // matmulTransposedInto skips the zero entries of X; every element must
  // still equal the dense scalar loop bit for bit, sign of zero included.
  std::mt19937 Rng(24);
  for (auto [B, R, C] : SparseShapes) {
    Matrix W = sparseMatrix(R, C, Rng);
    W.at(R - 1, 0) = 0.5f; // W may have zeros of its own
    Matrix X = sparseMatrix(B, R, Rng);
    Matrix Y(3, 2); // wrong shape, stale contents
    Y.fill(7.0f);
    W.matmulTransposedInto(X, Y);
    ASSERT_EQ(Y.rows(), B);
    ASSERT_EQ(Y.cols(), C);
    for (int Bi = 0; Bi < B; ++Bi) {
      std::vector<float> Ref =
          matvecTransposed(W, X.data() + static_cast<size_t>(Bi) * R);
      for (int J = 0; J < C; ++J)
        EXPECT_EQ(bitsOf(Y.at(Bi, J)), bitsOf(Ref[J]))
            << B << "x" << R << "x" << C << " row " << Bi << " col " << J;
    }
  }
}

TEST(Matrix, SparseAddOuterBatchMatchesSequentialAddOuterBitwise) {
  // addOuterBatch skips each (example, row) whose scaled A entry is
  // zero; the accumulated matrix must still equal one dense scalar outer
  // product per example in batch order, bit for bit.
  std::mt19937 Rng(25);
  for (auto [B, R, C] : SparseShapes)
    for (float Scale : {1.0f, 0.125f}) {
      Matrix A = sparseMatrix(B, R, Rng);
      Matrix X = sparseMatrix(B, C, Rng);
      Matrix Batched(R, C), Sequential(R, C);
      Batched.addOuterBatch(A, X, Scale);
      for (int Bi = 0; Bi < B; ++Bi)
        addOuter(Sequential, A.data() + static_cast<size_t>(Bi) * R,
                 X.data() + static_cast<size_t>(Bi) * C, Scale);
      for (size_t I = 0; I < Batched.size(); ++I)
        EXPECT_EQ(bitsOf(Batched.data()[I]), bitsOf(Sequential.data()[I]))
            << B << "x" << R << "x" << C << " scale " << Scale
            << " element " << I;
    }
}

TEST(Matrix, AddColumnSumsAccumulateInRowOrder) {
  Matrix M(3, 2);
  M.at(0, 0) = 1.0f;
  M.at(1, 0) = 2.0f;
  M.at(2, 0) = 4.0f;
  M.at(0, 1) = -1.0f;
  M.at(2, 1) = 0.5f;
  std::vector<float> Y = {10.0f, 20.0f}; // accumulates, never clears
  M.addColumnSumsTo(Y);
  EXPECT_EQ(Y[0], ((10.0f + 1.0f) + 2.0f) + 4.0f);
  EXPECT_EQ(Y[1], ((20.0f + -1.0f) + 0.0f) + 0.5f);

  // The same order as a scalar loop, on a batch with zero rows.
  std::mt19937 Rng(26);
  for (auto [B, R, C] : SparseShapes) {
    (void)R;
    Matrix S = sparseMatrix(B, C, Rng);
    std::vector<float> Got(C), Want(C);
    for (int J = 0; J < C; ++J)
      Got[J] = Want[J] = 0.5f * static_cast<float>(J);
    S.addColumnSumsTo(Got);
    for (int Bi = 0; Bi < B; ++Bi)
      for (int J = 0; J < C; ++J)
        Want[J] += S.at(Bi, J);
    for (int J = 0; J < C; ++J)
      EXPECT_EQ(bitsOf(Got[J]), bitsOf(Want[J])) << "column " << J;
  }
}

TEST(Matrix, GlorotInitializationBounded) {
  std::mt19937 Rng(1);
  Matrix M = Matrix::glorot(16, 16, Rng);
  float Bound = std::sqrt(6.0f / 32.0f);
  for (size_t I = 0; I < M.size(); ++I) {
    EXPECT_LE(std::fabs(M.data()[I]), Bound + 1e-6);
  }
}

TEST(MaskedLogSoftmax, NormalizesOverActiveSet) {
  std::vector<float> Logits = {1.0f, 2.0f, 3.0f, 100.0f};
  std::vector<int> Active = {0, 1, 2};
  const float LogZ =
      maskedLogSumExp(Logits.data(), Active.data(), Active.size());
  double Total = 0;
  for (int I : Active)
    Total += std::exp(Logits[I] - LogZ);
  EXPECT_NEAR(Total, 1.0, 1e-5);
  EXPECT_LT(LogZ, 4.0f) << "masked entries stay out of the normalizer";
}

TEST(Linear, GradientMatchesFiniteDifference) {
  std::mt19937 Rng(3);
  Linear L(4, 3, Rng);
  Matrix X(1, 4);
  X.at(0, 0) = 0.5f;
  X.at(0, 1) = -1.0f;
  X.at(0, 2) = 2.0f;
  X.at(0, 3) = 0.1f;
  // Loss = sum of outputs; dL/dy = ones.
  Matrix Y;
  auto Loss = [&] {
    L.forwardBatch(X, Y);
    float S = 0;
    for (size_t I = 0; I < Y.size(); ++I)
      S += Y.data()[I];
    return S;
  };
  Linear Grad(4, 3);
  Matrix DY(1, 3), DX;
  DY.fill(1.0f);
  L.backwardBatch(DY, X, Grad, DX);
  const float H = 1e-3f;
  float W0 = L.W.at(1, 2);
  float Before = Loss();
  L.W.at(1, 2) = W0 + H;
  float After = Loss();
  L.W.at(1, 2) = W0;
  float Numeric = (After - Before) / H;
  EXPECT_NEAR(Grad.W.at(1, 2), Numeric, 1e-2);
  EXPECT_FLOAT_EQ(Grad.B[1], 1.0f);
  ASSERT_EQ(DX.rows(), 1);
  ASSERT_EQ(DX.cols(), 4);
  for (int J = 0; J < 4; ++J) // dL/dx_j = Σ_i W[i][j]
    EXPECT_FLOAT_EQ(DX.at(0, J), L.W.at(0, J) + L.W.at(1, J) + L.W.at(2, J));
}

TEST(Mlp, GradientMatchesFiniteDifference) {
  std::mt19937 Rng(5);
  Mlp Net(3, 8, 2, Rng);
  const std::vector<std::vector<float>> X = {{0.2f, -0.7f, 1.1f}};
  Workspace WS;
  auto Loss = [&] {
    const Matrix &Y = Net.forwardBatch(X, WS);
    return Y.at(0, 0) * Y.at(0, 0) + 0.5f * Y.at(0, 1);
  };
  const Matrix &Y = Net.forwardBatch(X, WS);
  Matrix DLogits(1, 2);
  DLogits.at(0, 0) = 2 * Y.at(0, 0);
  DLogits.at(0, 1) = 0.5f;
  Gradients G(Net);
  Net.backwardBatch(DLogits, WS, G);

  float P0 = Net.L1.W.at(2, 1);
  const float H = 1e-3f;
  float Before = Loss();
  Net.L1.W.at(2, 1) = P0 + H;
  float After = Loss();
  Net.L1.W.at(2, 1) = P0;
  float Numeric = (After - Before) / H;
  EXPECT_NEAR(G.D.L1.W.at(2, 1), Numeric, 5e-2);
}

TEST(Mlp, WorkspaceReuseAcrossShapes) {
  // One workspace driven through two differently-shaped nets and batch
  // sizes: every buffer must be fully overwritten per call, so the
  // small-net pass after the large-net pass sees no stale activations.
  std::mt19937 Rng(11);
  Mlp Big(6, 16, 4, Rng);
  Mlp Small(2, 4, 3, Rng);
  Workspace Shared, Fresh;
  Matrix BigX = uniformMatrix(5, 6, 1, Rng);
  const std::vector<std::vector<float>> SmallX = {{0.3f, -0.9f}};

  Big.forwardBatch(examplesOf(BigX), Shared); // pollute with larger shapes
  Gradients GBig(Big);
  Matrix BigDLogits(5, 4);
  BigDLogits.fill(1.0f);
  Big.backwardBatch(BigDLogits, Shared, GBig);

  const std::vector<float> Reused =
      rowOf(Small.forwardBatch(SmallX, Shared), 0);
  const std::vector<float> Clean = rowOf(Small.forwardBatch(SmallX, Fresh), 0);
  ASSERT_EQ(Reused.size(), 3u);
  for (size_t I = 0; I < Reused.size(); ++I)
    EXPECT_EQ(bitsOf(Reused[I]), bitsOf(Clean[I]))
        << "stale activation at " << I;

  Small.forwardBatch(SmallX, Shared);
  Gradients GReused(Small), GFresh(Small);
  Matrix DLogits(1, 3);
  DLogits.at(0, 0) = 1;
  DLogits.at(0, 1) = -2;
  DLogits.at(0, 2) = 0.5f;
  Small.backwardBatch(DLogits, Shared, GReused);
  Small.backwardBatch(DLogits, Fresh, GFresh);
  std::vector<Mlp::ParamSegment> R = GReused.D.parameterSegments();
  std::vector<Mlp::ParamSegment> F = GFresh.D.parameterSegments();
  for (size_t S = 0; S < F.size(); ++S)
    for (size_t I = 0; I < F[S].Size; ++I)
      EXPECT_EQ(bitsOf(R[S].Param[I]), bitsOf(F[S].Param[I]))
          << "segment " << S << " param " << I;
}

TEST(Mlp, ForwardIsConstAndRepeatable) {
  std::mt19937 Rng(13);
  const Mlp Net(3, 8, 2, Rng); // const: forward must not touch the net
  Workspace A, B;
  const std::vector<std::vector<float>> X = {{0.1f, 0.2f, 0.3f}};
  std::vector<float> First = rowOf(Net.forwardBatch(X, A), 0);
  Net.forwardBatch({{-5, -5, -5}, {1, 2, 3}}, A); // same WS, other batch
  std::vector<float> Second = rowOf(Net.forwardBatch(X, A), 0);
  std::vector<float> Third = rowOf(Net.forwardBatch(X, B), 0);
  for (size_t I = 0; I < First.size(); ++I) {
    EXPECT_EQ(First[I], Second[I]);
    EXPECT_EQ(First[I], Third[I]);
  }
}

TEST(Mlp, ForwardBatchMatchesForwardBitwise) {
  // Each row of a batched forward must be bit-identical to the scalar
  // forward of that row, and to a batch of one holding just that row —
  // the property that lets prediction run the kernels training runs.
  std::mt19937 Rng(31);
  Mlp Net(5, 12, 4, Rng);
  for (Linear *L : {&Net.L1, &Net.L2, &Net.L3}) // nonzero biases too
    L->B = rowOf(uniformMatrix(1, L->outDim(), 1, Rng), 0);
  const std::vector<std::vector<float>> X =
      examplesOf(uniformMatrix(7, 5, 1, Rng));
  Workspace BatchWS, OneWS;
  const Matrix &Y = Net.forwardBatch(X, BatchWS);
  ASSERT_EQ(Y.rows(), 7);
  ASSERT_EQ(Y.cols(), 4);
  for (int B = 0; B < 7; ++B) {
    const std::vector<float> Ref = forward(Net, X[B]);
    const Matrix &One = Net.forwardBatch({X[B]}, OneWS);
    for (int I = 0; I < 4; ++I) {
      EXPECT_EQ(bitsOf(Y.at(B, I)), bitsOf(Ref[I]))
          << "row " << B << " logit " << I;
      EXPECT_EQ(bitsOf(One.at(0, I)), bitsOf(Ref[I]))
          << "batch of one, row " << B << " logit " << I;
    }
  }
}

TEST(Mlp, BackwardBatchMatchesPerExampleBitwise) {
  // backwardBatch on a batch must equal its examples fed one batch of
  // one at a time into one Gradients, bit for bit: per element the
  // kernels add the examples' contributions in ascending example order,
  // which is the order the one-at-a-time feed adds them in.
  std::mt19937 Rng(37);
  const Mlp Net(4, 10, 3, Rng);
  const int B = 5;
  const std::vector<std::vector<float>> X =
      examplesOf(uniformMatrix(B, 4, 1, Rng));
  Matrix DLogits = uniformMatrix(B, 3, 1, Rng);
  // Zero one example's upstream gradient entirely: out-of-support
  // examples in trainOnPairs feed exactly this shape, and they must not
  // perturb the batch bitwise.
  for (int I = 0; I < 3; ++I)
    DLogits.at(2, I) = 0.0f;

  Workspace BatchWS;
  Net.forwardBatch(X, BatchWS);
  Gradients Batched(Net);
  Net.backwardBatch(DLogits, BatchWS, Batched);

  Gradients OneAtATime(Net);
  Workspace OneWS;
  Matrix DY(1, 3);
  for (int Bi = 0; Bi < B; ++Bi) {
    Net.forwardBatch({X[Bi]}, OneWS);
    for (int I = 0; I < 3; ++I)
      DY.at(0, I) = DLogits.at(Bi, I);
    Net.backwardBatch(DY, OneWS, OneAtATime);
  }

  std::vector<Mlp::ParamSegment> BS = Batched.D.parameterSegments();
  std::vector<Mlp::ParamSegment> OS = OneAtATime.D.parameterSegments();
  ASSERT_EQ(BS.size(), OS.size());
  for (size_t S = 0; S < BS.size(); ++S) {
    ASSERT_EQ(BS[S].Size, OS[S].Size);
    for (size_t I = 0; I < BS[S].Size; ++I)
      EXPECT_EQ(bitsOf(BS[S].Param[I]), bitsOf(OS[S].Param[I]))
          << "segment " << S << " param " << I;
  }
}

TEST(Mlp, BatchedBackwardMatchesFiniteDifference) {
  // Independent check that the batched backward computes a correct
  // gradient at all (not merely a self-consistent one): central
  // differences on the summed-logits loss over a 3-example batch.
  std::mt19937 Rng(41);
  Mlp Net(3, 6, 2, Rng);
  std::vector<std::vector<float>> X = {
      {0.2f, -0.7f, 1.1f}, {-0.4f, 0.9f, 0.3f}, {1.5f, 0.1f, -0.8f}};
  Workspace WS;
  auto Loss = [&] {
    const Matrix &Y = Net.forwardBatch(X, WS);
    float S = 0;
    for (size_t I = 0; I < Y.size(); ++I)
      S += Y.data()[I];
    return S;
  };
  Net.forwardBatch(X, WS);
  Matrix DLogits(3, 2);
  DLogits.fill(1.0f);
  Gradients G(Net);
  Net.backwardBatch(DLogits, WS, G);

  const float H = 1e-3f;
  auto Check = [&](float &Param, float Analytic) {
    float P0 = Param;
    Param = P0 + H;
    float Up = Loss();
    Param = P0 - H;
    float Down = Loss();
    Param = P0;
    EXPECT_NEAR(Analytic, (Up - Down) / (2 * H), 5e-2);
  };
  Check(Net.L1.W.at(1, 2), G.D.L1.W.at(1, 2));
  Check(Net.L2.W.at(3, 4), G.D.L2.W.at(3, 4));
  Check(Net.L3.W.at(1, 5), G.D.L3.W.at(1, 5));
  Check(Net.L2.B[2], G.D.L2.B[2]);
}

TEST(MatrixDeathTest, DimensionMismatchAsserts) {
  // Asserts stay on in every build type here (the top-level CMake strips
  // -DNDEBUG), so shape bugs die loudly everywhere, not just in Debug:
  // each kernel checks its operands' widths once per call.
  Matrix W(2, 3);
  Matrix X(4, 2); // needs 4 × 3
  Matrix Out;
  EXPECT_DEATH(W.matmulInto(X, Out), "matmul dimension mismatch");
  Matrix XT(4, 3); // transposed path needs 4 × 2
  EXPECT_DEATH(W.matmulTransposedInto(XT, Out),
               "matmulTransposed dimension mismatch");
  Matrix A(4, 2), B(3, 3); // batch sizes differ
  EXPECT_DEATH(W.addOuterBatch(A, B), "outer-product batch sizes differ");
  Matrix B4(4, 2); // needs 4 × 3
  EXPECT_DEATH(W.addOuterBatch(A, B4), "outer-product dimension mismatch");
  std::vector<float> Sums(2); // needs 3
  EXPECT_DEATH(W.addColumnSumsTo(Sums), "column-sum dimension mismatch");
  std::mt19937 Rng(8);
  const Mlp Net(3, 4, 2, Rng);
  Workspace WS;
  EXPECT_DEATH(Net.forwardBatch({{1.0f, 2.0f, 3.0f}, {1.0f, 2.0f}}, WS),
               "forwardBatch input width mismatch");
}

TEST(Gradients, StartAtZeroInParameterOrder) {
  // A Gradients buffer is laid out by the net's parameterSegments(): the
  // same segment sizes in the same order, every element +0 when built and
  // again after zero().
  std::mt19937 Rng(7);
  Mlp Net(2, 4, 3, Rng);
  Gradients G(Net);
  auto ExpectZero = [&](const char *When) {
    std::vector<Mlp::ParamSegment> PS = Net.parameterSegments();
    std::vector<Mlp::ParamSegment> GS = G.D.parameterSegments();
    ASSERT_EQ(GS.size(), PS.size());
    for (size_t S = 0; S < GS.size(); ++S) {
      ASSERT_EQ(GS[S].Size, PS[S].Size) << "segment " << S;
      for (size_t I = 0; I < GS[S].Size; ++I)
        EXPECT_EQ(bitsOf(GS[S].Param[I]), bitsOf(0.0f))
            << When << ": segment " << S << " param " << I;
    }
  };
  ExpectZero("built");
  Workspace WS;
  Net.forwardBatch({{1.0f, -1.0f}}, WS);
  Matrix DLogits(1, 3);
  DLogits.fill(1.0f);
  Net.backwardBatch(DLogits, WS, G);
  EXPECT_NE(G.D.L3.B[0], 0.0f);
  G.zero();
  ExpectZero("zeroed");
}

TEST(Adam, LearnsALinearMap) {
  std::mt19937 Rng(9);
  Mlp Net(2, 16, 1, Rng);
  Adam Opt(Net, 1e-2f);
  Workspace WS;
  Gradients G(Net);
  // Target: y = 2a - b.
  std::uniform_real_distribution<float> U(-1, 1);
  double FinalLoss = 0;
  Matrix DY(1, 1);
  for (int Step = 0; Step < 3000; ++Step) {
    float A = U(Rng), B = U(Rng);
    float Target = 2 * A - B;
    float Err = Net.forwardBatch({{A, B}}, WS).at(0, 0) - Target;
    DY.at(0, 0) = 2 * Err;
    Net.backwardBatch(DY, WS, G);
    Opt.step(G); // applies the update and zeroes G
    FinalLoss = Err * Err;
  }
  EXPECT_LT(FinalLoss, 0.05);
}

TEST(Adam, StepMatchesScalarReferenceBitwise) {
  // Adam's SSE2 body and scalar tail must both give the scalar formula's
  // result bit for bit. The two nets have parameter segments of sizes
  // 67, 1, 1, 1, 3, 3 and 4, 1, 1, 1, 5, 5.
  const float Lr = 5e-3f, B1 = Adam::Beta1, B2 = Adam::Beta2,
              Eps = Adam::Epsilon;
  std::mt19937 Rng(43);
  std::uniform_real_distribution<float> U(-1, 1);
  for (auto [In, Out] : {std::pair{67, 3}, {4, 5}}) {
    Mlp Net(In, 1, Out, Rng);
    Adam Opt(Net, Lr);
    Gradients G(Net);
    std::vector<std::vector<float>> P, M, V;
    for (const Mlp::ParamSegment &Seg : Net.parameterSegments()) {
      P.emplace_back(Seg.Param, Seg.Param + Seg.Size);
      M.emplace_back(Seg.Size, 0.0f);
      V.emplace_back(Seg.Size, 0.0f);
    }
    for (int T = 1; T <= 5; ++T) {
      std::vector<Mlp::ParamSegment> GS = G.D.parameterSegments();
      for (const Mlp::ParamSegment &Seg : GS)
        for (size_t I = 0; I < Seg.Size; ++I)
          Seg.Param[I] = I % 3 == 1 ? 0.0f : U(Rng);
      const float C1 = 1.0f - std::pow(B1, static_cast<float>(T));
      const float C2 = 1.0f - std::pow(B2, static_cast<float>(T));
      for (size_t S = 0; S < GS.size(); ++S)
        for (size_t I = 0; I < GS[S].Size; ++I) {
          const float Gi = GS[S].Param[I];
          M[S][I] = B1 * M[S][I] + (1.0f - B1) * Gi;
          V[S][I] = B2 * V[S][I] + ((1.0f - B2) * Gi) * Gi;
          P[S][I] -=
              (Lr * (M[S][I] / C1)) / (std::sqrt(V[S][I] / C2) + Eps);
        }
      Opt.step(G);
      std::vector<Mlp::ParamSegment> PS = Net.parameterSegments();
      for (size_t S = 0; S < PS.size(); ++S)
        for (size_t I = 0; I < PS[S].Size; ++I) {
          EXPECT_EQ(bitsOf(PS[S].Param[I]), bitsOf(P[S][I]))
              << "step " << T << " segment " << S << " (size "
              << PS[S].Size << ") param " << I;
          EXPECT_EQ(GS[S].Param[I], 0.0f) << "step zeroes G";
        }
    }
  }
}

TEST(Mlp, ParameterSegmentsCoverEverything) {
  std::mt19937 Rng(2);
  Mlp Net(4, 8, 3, Rng);
  size_t Total = 0;
  for (const auto &Seg : Net.parameterSegments())
    Total += Seg.Size;
  EXPECT_EQ(Total, Net.parameterCount());
  EXPECT_EQ(Total, 4u * 8 + 8 + 8u * 8 + 8 + 8u * 3 + 3);
}
