//===- tests/nn/NnTest.cpp - Neural network substrate unit tests ----------===//

#include "nn/Layers.h"
#include "nn/Optimizer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <tuple>

using namespace dc::nn;

TEST(Matrix, MatvecBasics) {
  Matrix M(2, 3);
  M.at(0, 0) = 1;
  M.at(0, 1) = 2;
  M.at(0, 2) = 3;
  M.at(1, 0) = -1;
  M.at(1, 1) = 0;
  M.at(1, 2) = 1;
  std::vector<float> Y = M.matvec({1, 1, 1});
  ASSERT_EQ(Y.size(), 2u);
  EXPECT_FLOAT_EQ(Y[0], 6);
  EXPECT_FLOAT_EQ(Y[1], 0);
  std::vector<float> Z = M.matvecTransposed({1, 2});
  ASSERT_EQ(Z.size(), 3u);
  EXPECT_FLOAT_EQ(Z[0], -1);
  EXPECT_FLOAT_EQ(Z[1], 2);
  EXPECT_FLOAT_EQ(Z[2], 5);
}

TEST(Matrix, MatvecIntoReusesBuffer) {
  Matrix M(2, 3);
  M.at(0, 0) = 1;
  M.at(1, 2) = 4;
  std::vector<float> Y = {9, 9, 9, 9, 9}; // wrong size, stale contents
  M.matvecInto({1, 1, 1}, Y);
  ASSERT_EQ(Y.size(), 2u);
  EXPECT_FLOAT_EQ(Y[0], 1);
  EXPECT_FLOAT_EQ(Y[1], 4);
  std::vector<float> Z = {7}; // too small, must grow and zero
  M.matvecTransposedInto({1, 2}, Z);
  ASSERT_EQ(Z.size(), 3u);
  EXPECT_FLOAT_EQ(Z[0], 1);
  EXPECT_FLOAT_EQ(Z[1], 0);
  EXPECT_FLOAT_EQ(Z[2], 8);
}

TEST(Matrix, AddOuter) {
  Matrix M(2, 2);
  M.addOuter({1, 2}, {3, 4}, 0.5f);
  EXPECT_FLOAT_EQ(M.at(0, 0), 1.5);
  EXPECT_FLOAT_EQ(M.at(1, 1), 4.0);
}

TEST(Matrix, MatmulMatchesMatvecBitwise) {
  // The GEMM determinism contract (DESIGN.md §5): every output row of
  // matmulInto is bit-for-bit the matvec of the corresponding input
  // row — same per-element accumulation order, so batch size never
  // changes a result. Exercise odd shapes that straddle tile edges.
  std::mt19937 Rng(21);
  for (auto [R, C, B] : {std::tuple{5, 7, 3}, {8, 4, 9}, {3, 3, 1},
                         {16, 13, 6}, {1, 9, 5}}) {
    Matrix W = Matrix::glorot(R, C, Rng);
    Matrix X(B, C);
    std::uniform_real_distribution<float> U(-2, 2);
    for (size_t I = 0; I < X.size(); ++I)
      X.data()[I] = U(Rng);
    Matrix Y = W.matmul(X);
    ASSERT_EQ(Y.rows(), B);
    ASSERT_EQ(Y.cols(), R);
    for (int Bi = 0; Bi < B; ++Bi) {
      std::vector<float> Row(X.data() + static_cast<size_t>(Bi) * C,
                             X.data() + static_cast<size_t>(Bi + 1) * C);
      std::vector<float> Ref = W.matvec(Row);
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
    Matrix X(B, R);
    std::uniform_real_distribution<float> U(-2, 2);
    for (size_t I = 0; I < X.size(); ++I)
      X.data()[I] = U(Rng);
    Matrix Y;
    W.matmulTransposedInto(X, Y);
    ASSERT_EQ(Y.rows(), B);
    ASSERT_EQ(Y.cols(), C);
    for (int Bi = 0; Bi < B; ++Bi) {
      std::vector<float> Row(X.data() + static_cast<size_t>(Bi) * R,
                             X.data() + static_cast<size_t>(Bi + 1) * R);
      std::vector<float> Ref = W.matvecTransposed(Row);
      for (int J = 0; J < C; ++J)
        EXPECT_EQ(Y.at(Bi, J), Ref[J]) << "row " << Bi << " col " << J;
    }
  }
}

TEST(Matrix, AddOuterBatchMatchesSequentialAddOuter) {
  // Batched gradient accumulation must be the same += sequence as one
  // addOuter per example in batch order — bit-identical, not just close.
  std::mt19937 Rng(23);
  std::uniform_real_distribution<float> U(-1, 1);
  const int R = 6, C = 5, B = 4;
  Matrix A(B, R), X(B, C);
  for (size_t I = 0; I < A.size(); ++I)
    A.data()[I] = U(Rng);
  for (size_t I = 0; I < X.size(); ++I)
    X.data()[I] = U(Rng);
  Matrix Batched(R, C), Sequential(R, C);
  Batched.addOuterBatch(A, X, 0.25f);
  for (int Bi = 0; Bi < B; ++Bi) {
    std::vector<float> ARow(A.data() + static_cast<size_t>(Bi) * R,
                            A.data() + static_cast<size_t>(Bi + 1) * R);
    std::vector<float> XRow(X.data() + static_cast<size_t>(Bi) * C,
                            X.data() + static_cast<size_t>(Bi + 1) * C);
    Sequential.addOuter(ARow, XRow, 0.25f);
  }
  for (size_t I = 0; I < Batched.size(); ++I)
    EXPECT_EQ(Batched.data()[I], Sequential.data()[I]) << "element " << I;
}

namespace {

std::uint32_t bitsOf(float F) {
  std::uint32_t B;
  std::memcpy(&B, &F, sizeof(B));
  return B;
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

TEST(Matrix, SparseMatmulTransposedMatchesMatvecTransposedBitwise) {
  // matmulTransposedInto skips the zero entries of X; every element must
  // still equal the dense matvecTransposed bit for bit, sign of zero
  // included.
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
      std::vector<float> Row(X.data() + static_cast<size_t>(Bi) * R,
                             X.data() + static_cast<size_t>(Bi + 1) * R);
      std::vector<float> Ref = W.matvecTransposed(Row);
      for (int J = 0; J < C; ++J)
        EXPECT_EQ(bitsOf(Y.at(Bi, J)), bitsOf(Ref[J]))
            << B << "x" << R << "x" << C << " row " << Bi << " col " << J;
    }
  }
}

TEST(Matrix, SparseAddOuterBatchMatchesSequentialAddOuterBitwise) {
  // addOuterBatch skips each (example, row) whose scaled A entry is
  // zero; the accumulated matrix must still equal one addOuter per
  // example in batch order, bit for bit.
  std::mt19937 Rng(25);
  for (auto [B, R, C] : SparseShapes)
    for (float Scale : {1.0f, 0.125f}) {
      Matrix A = sparseMatrix(B, R, Rng);
      Matrix X = sparseMatrix(B, C, Rng);
      Matrix Batched(R, C), Sequential(R, C);
      Batched.addOuterBatch(A, X, Scale);
      for (int Bi = 0; Bi < B; ++Bi) {
        std::vector<float> ARow(A.data() + static_cast<size_t>(Bi) * R,
                                A.data() + static_cast<size_t>(Bi + 1) * R);
        std::vector<float> XRow(X.data() + static_cast<size_t>(Bi) * C,
                                X.data() + static_cast<size_t>(Bi + 1) * C);
        Sequential.addOuter(ARow, XRow, Scale);
      }
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
  std::vector<float> X = {0.5f, -1.0f, 2.0f, 0.1f};
  // Loss = sum of outputs; dL/dy = ones.
  auto Loss = [&] {
    std::vector<float> Y;
    L.forward(X, Y);
    float S = 0;
    for (float V : Y)
      S += V;
    return S;
  };
  Matrix DW(3, 4);
  std::vector<float> DB(3, 0.0f), DX;
  L.backward({1, 1, 1}, X, DW, DB, DX);
  const float H = 1e-3f;
  float W0 = L.W.at(1, 2);
  float Before = Loss();
  L.W.at(1, 2) = W0 + H;
  float After = Loss();
  L.W.at(1, 2) = W0;
  float Numeric = (After - Before) / H;
  EXPECT_NEAR(DW.at(1, 2), Numeric, 1e-2);
  EXPECT_FLOAT_EQ(DB[1], 1.0f);
  ASSERT_EQ(DX.size(), X.size());
}

TEST(Mlp, GradientMatchesFiniteDifference) {
  std::mt19937 Rng(5);
  Mlp Net(3, 8, 2, Rng);
  std::vector<float> X = {0.2f, -0.7f, 1.1f};
  Workspace WS;
  auto Loss = [&] {
    const std::vector<float> &Y = Net.forward(X, WS);
    return Y[0] * Y[0] + 0.5f * Y[1];
  };
  const std::vector<float> &Y = Net.forward(X, WS);
  Gradients G(Net);
  Net.backward({2 * Y[0], 0.5f}, WS, G);

  float P0 = Net.L1.W.at(2, 1);
  const float H = 1e-3f;
  float Before = Loss();
  Net.L1.W.at(2, 1) = P0 + H;
  float After = Loss();
  Net.L1.W.at(2, 1) = P0;
  float Numeric = (After - Before) / H;
  EXPECT_NEAR(G.DW1.at(2, 1), Numeric, 5e-2);
}

TEST(Mlp, WorkspaceReuseAcrossShapes) {
  // One workspace driven through two differently-shaped nets: every
  // buffer must be fully overwritten per call, so the small-net pass
  // after the large-net pass sees no stale activations.
  std::mt19937 Rng(11);
  Mlp Big(6, 16, 4, Rng);
  Mlp Small(2, 4, 3, Rng);
  Workspace Shared, Fresh;
  std::vector<float> BigX = {1, -1, 0.5f, 2, -0.25f, 0.75f};
  std::vector<float> SmallX = {0.3f, -0.9f};

  Big.forward(BigX, Shared); // pollute with the larger shapes
  Gradients GBig(Big);
  Big.backward({1, 1, 1, 1}, Shared, GBig);

  const std::vector<float> &Reused = Small.forward(SmallX, Shared);
  const std::vector<float> &Clean = Small.forward(SmallX, Fresh);
  ASSERT_EQ(Reused.size(), Clean.size());
  for (size_t I = 0; I < Reused.size(); ++I)
    EXPECT_FLOAT_EQ(Reused[I], Clean[I]) << "stale activation at " << I;

  Gradients GReused(Small), GFresh(Small);
  Small.backward({1, -2, 0.5f}, Shared, GReused);
  Small.backward({1, -2, 0.5f}, Fresh, GFresh);
  ASSERT_EQ(GReused.DW1.size(), GFresh.DW1.size());
  for (size_t I = 0; I < GFresh.DW1.size(); ++I)
    EXPECT_FLOAT_EQ(GReused.DW1.data()[I], GFresh.DW1.data()[I]);
  for (size_t I = 0; I < GFresh.DB3.size(); ++I)
    EXPECT_FLOAT_EQ(GReused.DB3[I], GFresh.DB3[I]);
}

TEST(Mlp, ForwardIsConstAndRepeatable) {
  std::mt19937 Rng(13);
  const Mlp Net(3, 8, 2, Rng); // const: forward must not touch the net
  Workspace A, B;
  std::vector<float> X = {0.1f, 0.2f, 0.3f};
  std::vector<float> First = Net.forward(X, A);
  Net.forward({-5, -5, -5}, A); // unrelated call through the same WS
  std::vector<float> Second = Net.forward(X, A);
  std::vector<float> Third = Net.forward(X, B);
  for (size_t I = 0; I < First.size(); ++I) {
    EXPECT_FLOAT_EQ(First[I], Second[I]);
    EXPECT_FLOAT_EQ(First[I], Third[I]);
  }
}

TEST(Mlp, ForwardBatchMatchesForwardBitwise) {
  // Each row of a batched forward must be bit-identical to the serial
  // forward of that row — the property the recognition trainOnPairs
  // determinism contract is built on.
  std::mt19937 Rng(31);
  const Mlp Net(5, 12, 4, Rng);
  std::uniform_real_distribution<float> U(-1, 1);
  std::vector<std::vector<float>> X;
  for (int B = 0; B < 7; ++B) {
    std::vector<float> Row(5);
    for (float &V : Row)
      V = U(Rng);
    X.push_back(Row);
  }
  Workspace BatchWS, SerialWS;
  const Matrix &Y = Net.forwardBatch(X, BatchWS);
  ASSERT_EQ(Y.rows(), 7);
  ASSERT_EQ(Y.cols(), 4);
  for (int B = 0; B < 7; ++B) {
    const std::vector<float> &Ref = Net.forward(X[B], SerialWS);
    for (int I = 0; I < 4; ++I)
      EXPECT_EQ(Y.at(B, I), Ref[I]) << "row " << B << " logit " << I;
  }
  // Batch of one through the same (polluted) workspace: still exact.
  Workspace WS1;
  const Matrix &Y1 = Net.forwardBatch({X[3]}, WS1);
  const std::vector<float> &Ref = Net.forward(X[3], SerialWS);
  for (int I = 0; I < 4; ++I)
    EXPECT_EQ(Y1.at(0, I), Ref[I]);
}

TEST(Mlp, BackwardBatchMatchesPerExampleBitwise) {
  // backwardBatch must reproduce the old path exactly: one backward per
  // example into a fresh Gradients, then a fixed-order reduce. The GEMM
  // kernels accumulate in that same per-element order, so the batched
  // gradient is bit-identical, not merely close.
  std::mt19937 Rng(37);
  const Mlp Net(4, 10, 3, Rng);
  std::uniform_real_distribution<float> U(-1, 1);
  const int B = 5;
  std::vector<std::vector<float>> X;
  Matrix DLogits(B, 3);
  for (int Bi = 0; Bi < B; ++Bi) {
    std::vector<float> Row(4);
    for (float &V : Row)
      V = U(Rng);
    X.push_back(Row);
    for (int I = 0; I < 3; ++I)
      DLogits.at(Bi, I) = U(Rng);
  }
  // Zero one example's upstream gradient entirely: out-of-support
  // examples in trainOnPairs feed exactly this shape, and they must not
  // perturb the batch bitwise.
  for (int I = 0; I < 3; ++I)
    DLogits.at(2, I) = 0.0f;

  Workspace BatchWS;
  Net.forwardBatch(X, BatchWS);
  Gradients Batched(Net);
  Net.backwardBatch(DLogits, BatchWS, Batched);

  Gradients Reduced(Net);
  Workspace SerialWS;
  for (int Bi = 0; Bi < B; ++Bi) {
    Net.forward(X[Bi], SerialWS);
    Gradients One(Net);
    std::vector<float> DY(3);
    for (int I = 0; I < 3; ++I)
      DY[I] = DLogits.at(Bi, I);
    Net.backward(DY, SerialWS, One);
    Reduced.add(One);
  }

  auto BS = Batched.segments();
  auto RS = Reduced.segments();
  ASSERT_EQ(BS.size(), RS.size());
  for (size_t S = 0; S < BS.size(); ++S) {
    ASSERT_EQ(BS[S].Size, RS[S].Size);
    for (size_t I = 0; I < BS[S].Size; ++I)
      EXPECT_EQ(BS[S].Grad[I], RS[S].Grad[I])
          << "segment " << S << " param " << I;
  }
}

TEST(Mlp, BatchedBackwardMatchesFiniteDifference) {
  // Independent check that the batched backward computes a correct
  // gradient at all (not merely the same one as backward()): central
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
  Check(Net.L1.W.at(1, 2), G.DW1.at(1, 2));
  Check(Net.L2.W.at(3, 4), G.DW2.at(3, 4));
  Check(Net.L3.W.at(1, 5), G.DW3.at(1, 5));
  Check(Net.L2.B[2], G.DB2[2]);
}

TEST(MatrixDeathTest, DimensionMismatchAsserts) {
  // Asserts stay on in every build type here (the top-level CMake strips
  // -DNDEBUG), so shape bugs die loudly everywhere, not just in Debug.
  // Shape bugs must die loudly in debug builds: the Into kernels hoist
  // their input-width checks to one assert per call.
  Matrix W(2, 3);
  std::vector<float> Wrong = {1.0f, 2.0f}; // needs 3
  std::vector<float> Y;
  EXPECT_DEATH(W.matvecInto(Wrong, Y), "matvec dimension mismatch");
  Matrix X(4, 2); // needs 4 × 3
  Matrix Out;
  EXPECT_DEATH(W.matmulInto(X, Out), "matmul dimension mismatch");
  Matrix XT(4, 3); // transposed path needs 4 × 2
  EXPECT_DEATH(W.matmulTransposedInto(XT, Out),
               "matmulTransposed dimension mismatch");
}

TEST(Gradients, AccumulateAndReduce) {
  std::mt19937 Rng(7);
  Mlp Net(2, 4, 2, Rng);
  Workspace WS;
  Net.forward({1.0f, -1.0f}, WS);
  Gradients A(Net), B(Net);
  Net.backward({1.0f, 0.0f}, WS, A);
  Net.forward({0.5f, 2.0f}, WS);
  Net.backward({0.0f, 1.0f}, WS, B);

  Gradients Sum(Net);
  Sum.add(A);
  Sum.add(B);
  for (size_t I = 0; I < Sum.DW1.size(); ++I)
    EXPECT_FLOAT_EQ(Sum.DW1.data()[I],
                    A.DW1.data()[I] + B.DW1.data()[I]);
  Sum.zero();
  for (size_t I = 0; I < Sum.DW1.size(); ++I)
    EXPECT_FLOAT_EQ(Sum.DW1.data()[I], 0.0f);

  size_t Total = 0;
  for (const Gradients::Segment &Seg : A.segments())
    Total += Seg.Size;
  EXPECT_EQ(Total, Net.parameterCount())
      << "gradient segments must mirror the parameter layout";
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
  for (int Step = 0; Step < 3000; ++Step) {
    float A = U(Rng), B = U(Rng);
    float Target = 2 * A - B;
    const std::vector<float> &Y = Net.forward({A, B}, WS);
    float Err = Y[0] - Target;
    Net.backward({2 * Err}, WS, G);
    Opt.step(G); // applies the update and zeroes G
    FinalLoss = Err * Err;
  }
  EXPECT_LT(FinalLoss, 0.05);
}

TEST(Adam, StepMatchesScalarReferenceBitwise) {
  // Adam's SSE2 body and scalar tail must both give the scalar formula's
  // result bit for bit. The two nets have parameter segments of sizes
  // 67, 1, 1, 1, 3, 3 and 4, 1, 1, 1, 5, 5.
  const float Lr = 5e-3f, B1 = 0.9f, B2 = 0.999f, Eps = 1e-8f;
  std::mt19937 Rng(43);
  std::uniform_real_distribution<float> U(-1, 1);
  for (auto [In, Out] : {std::pair{67, 3}, {4, 5}}) {
    Mlp Net(In, 1, Out, Rng);
    Adam Opt(Net, Lr, B1, B2, Eps);
    Gradients G(Net);
    std::vector<std::vector<float>> P, M, V;
    for (const Mlp::ParamSegment &Seg : Net.parameterSegments()) {
      P.emplace_back(Seg.Param, Seg.Param + Seg.Size);
      M.emplace_back(Seg.Size, 0.0f);
      V.emplace_back(Seg.Size, 0.0f);
    }
    for (int T = 1; T <= 5; ++T) {
      std::vector<Gradients::Segment> GS = G.segments();
      for (const Gradients::Segment &Seg : GS)
        for (size_t I = 0; I < Seg.Size; ++I)
          Seg.Grad[I] = I % 3 == 1 ? 0.0f : U(Rng);
      const float C1 = 1.0f - std::pow(B1, static_cast<float>(T));
      const float C2 = 1.0f - std::pow(B2, static_cast<float>(T));
      for (size_t S = 0; S < GS.size(); ++S)
        for (size_t I = 0; I < GS[S].Size; ++I) {
          const float Gi = GS[S].Grad[I];
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
          EXPECT_EQ(G.segments()[S].Grad[I], 0.0f) << "step zeroes G";
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
