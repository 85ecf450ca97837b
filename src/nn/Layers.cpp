//===- nn/Layers.cpp - Reentrant MLP layers with manual backprop ----------===//

#include "nn/Layers.h"

#include <cmath>

using namespace dc;
using namespace dc::nn;

namespace {

/// In-place tanh over every element of a batch matrix.
void tanhBatchInPlace(Matrix &M) {
  float *D = M.data();
  for (size_t I = 0, N = M.size(); I < N; ++I)
    D[I] = std::tanh(D[I]);
}

/// In-place batched tanh backward: M ⊙= (1 - A²), elementwise.
void tanhBackwardBatchInPlace(Matrix &M, const Matrix &A) {
  assert(M.rows() == A.rows() && M.cols() == A.cols() &&
         "tanh backward shape mismatch");
  float *D = M.data();
  const float *AV = A.data();
  for (size_t I = 0, N = M.size(); I < N; ++I)
    D[I] = D[I] * (1.0f - AV[I] * AV[I]);
}

/// The one parameter order, W1 B1 W2 B2 W3 B3, for a net of either
/// constness.
template <typename Segment, typename Net>
std::vector<Segment> segmentsOf(Net &N) {
  std::vector<Segment> Out;
  for (auto *L : {&N.L1, &N.L2, &N.L3}) {
    Out.push_back({L->W.data(), L->W.size()});
    Out.push_back({L->B.data(), L->B.size()});
  }
  return Out;
}

} // namespace

void Linear::forwardBatch(const Matrix &X, Matrix &Y) const {
  W.matmulInto(X, Y);
  const int Out = static_cast<int>(B.size());
  for (int Bi = 0; Bi < Y.rows(); ++Bi) {
    float *Row = Y.data() + static_cast<size_t>(Bi) * Out;
    for (int I = 0; I < Out; ++I)
      Row[I] += B[I];
  }
}

void Linear::backwardBatch(const Matrix &DY, const Matrix &X, Linear &Grad,
                           Matrix &DX) const {
  Grad.W.addOuterBatch(DY, X);
  DY.addColumnSumsTo(Grad.B);
  W.matmulTransposedInto(DY, DX);
}

const Matrix &Mlp::forwardBatch(const std::vector<std::vector<float>> &X,
                                Workspace &WS) const {
  const int B = static_cast<int>(X.size());
  const int In = L1.inDim();
  WS.BIn.resize(B, In);
  for (int Bi = 0; Bi < B; ++Bi) {
    assert(static_cast<int>(X[Bi].size()) == In &&
           "forwardBatch input width mismatch");
    std::copy(X[Bi].begin(), X[Bi].end(),
              WS.BIn.data() + static_cast<size_t>(Bi) * In);
  }
  L1.forwardBatch(WS.BIn, WS.BA1);
  tanhBatchInPlace(WS.BA1);
  L2.forwardBatch(WS.BA1, WS.BA2);
  tanhBatchInPlace(WS.BA2);
  L3.forwardBatch(WS.BA2, WS.BLogits);
  return WS.BLogits;
}

void Mlp::backwardBatch(const Matrix &DLogits, Workspace &WS,
                        Gradients &G) const {
  L3.backwardBatch(DLogits, WS.BA2, G.D.L3, WS.BD2);
  tanhBackwardBatchInPlace(WS.BD2, WS.BA2);
  L2.backwardBatch(WS.BD2, WS.BA1, G.D.L2, WS.BD1);
  tanhBackwardBatchInPlace(WS.BD1, WS.BA1);
  // First layer: nothing consumes dL/dinput, so skip the transposed
  // GEMM a full backwardBatch would spend on it.
  G.D.L1.W.addOuterBatch(WS.BD1, WS.BIn);
  WS.BD1.addColumnSumsTo(G.D.L1.B);
}

std::vector<Mlp::ParamSegment> Mlp::parameterSegments() {
  return segmentsOf<ParamSegment>(*this);
}

std::vector<Mlp::ConstParamSegment> Mlp::parameterSegments() const {
  return segmentsOf<ConstParamSegment>(*this);
}

size_t Mlp::parameterCount() const {
  size_t N = 0;
  for (const ConstParamSegment &Seg : parameterSegments())
    N += Seg.Size;
  return N;
}

void Gradients::zero() {
  for (const Mlp::ParamSegment &Seg : D.parameterSegments())
    std::fill(Seg.Param, Seg.Param + Seg.Size, 0.0f);
}
