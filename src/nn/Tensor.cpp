//===- nn/Tensor.cpp - Minimal dense linear algebra ------------------------===//

#include "nn/Tensor.h"

#include <algorithm>
#include <cmath>

#ifdef __SSE2__
#include <emmintrin.h>
#endif

using namespace dc;
using namespace dc::nn;

Matrix Matrix::glorot(int Rows, int Cols, std::mt19937 &Rng) {
  Matrix M(Rows, Cols);
  float Scale = std::sqrt(6.0f / static_cast<float>(Rows + Cols));
  std::uniform_real_distribution<float> Dist(-Scale, Scale);
  for (float &V : M.Data)
    V = Dist(Rng);
  return M;
}

namespace {

/// Tile edge for the blocked GEMM: 4 output rows × 4 batch lanes per
/// register tile, compile-time trip counts so the 16 accumulators stay
/// in registers (runtime `min()` edge bounds make gcc spill the Acc
/// array to the stack, turning every FMA into load/fma/store — slower
/// than the one-accumulator dot-product chain the tiling is meant to
/// beat).
constexpr int GemmTile = 4;

/// One full 4×4 tile against a lane-packed X panel: \p XPanel holds the
/// tile's four batch rows interleaved per J (XPanel[J*4 + lane] =
/// X[B0+lane][J]), so the inner statement is a contiguous 4-lane load,
/// a broadcast of W[I][J], and one mul/add per lane — the compiler
/// vectorizes it without the strict-FP shuffle dance it needs on
/// row-major X. Acc[T][lane] is the (output row I0+T, batch B0+lane)
/// element; each sums ascending J from +0 with its own accumulator.
#ifdef __SSE2__
/// SSE2 form of the tile (x86-64 baseline, so every CI target has it).
/// Spelled in intrinsics because gcc's auto-vectorizer re-tiles the
/// strict-FP reduction along J with a shuffle/transpose dance that eats
/// the tiling win; the intrinsic form is the minimal loop. mul/add are
/// exact per-lane IEEE single ops, so lane (T, L) is still one
/// accumulator summing ascending J — bitwise the scalar loop's result.
inline void gemmTile4x4(const float *const WRow[GemmTile],
                        const float *XPanel, int C,
                        float Acc[GemmTile][GemmTile]) {
  __m128 A0 = _mm_setzero_ps(), A1 = _mm_setzero_ps();
  __m128 A2 = _mm_setzero_ps(), A3 = _mm_setzero_ps();
  for (int J = 0; J < C; ++J) {
    const __m128 Xv = _mm_loadu_ps(XPanel + static_cast<size_t>(J) * GemmTile);
    A0 = _mm_add_ps(A0, _mm_mul_ps(_mm_set1_ps(WRow[0][J]), Xv));
    A1 = _mm_add_ps(A1, _mm_mul_ps(_mm_set1_ps(WRow[1][J]), Xv));
    A2 = _mm_add_ps(A2, _mm_mul_ps(_mm_set1_ps(WRow[2][J]), Xv));
    A3 = _mm_add_ps(A3, _mm_mul_ps(_mm_set1_ps(WRow[3][J]), Xv));
  }
  _mm_storeu_ps(Acc[0], A0);
  _mm_storeu_ps(Acc[1], A1);
  _mm_storeu_ps(Acc[2], A2);
  _mm_storeu_ps(Acc[3], A3);
}
#else
inline void gemmTile4x4(const float *const WRow[GemmTile],
                        const float *XPanel, int C,
                        float Acc[GemmTile][GemmTile]) {
  for (int J = 0; J < C; ++J) {
    const float *Xv = XPanel + static_cast<size_t>(J) * GemmTile;
    for (int T = 0; T < GemmTile; ++T) {
      const float Wj = WRow[T][J];
      for (int L = 0; L < GemmTile; ++L)
        Acc[T][L] += Wj * Xv[L];
    }
  }
}
#endif

/// Y[j] += X[j] · A for j in [0, N): one exact IEEE multiply and add per
/// element, so every Y[j] gets the value of that scalar statement. SSE2
/// over 4-lane blocks; the scalar tail finishes the row and is the whole
/// loop without SSE2.
inline void axpy(float A, const float *X, float *Y, int N) {
  int J = 0;
#ifdef __SSE2__
  const __m128 Av = _mm_set1_ps(A);
  for (; J + 4 <= N; J += 4)
    _mm_storeu_ps(Y + J, _mm_add_ps(_mm_loadu_ps(Y + J),
                                    _mm_mul_ps(_mm_loadu_ps(X + J), Av)));
#endif
  for (; J < N; ++J)
    Y[J] += X[J] * A;
}

} // namespace

void Matrix::matmulInto(const Matrix &X, Matrix &Y) const {
  assert(X.C == C && "matmul dimension mismatch");
  assert(&X != &Y && this != &Y && "matmulInto buffers must not alias");
  // One size check per batch, not per row.
  if (Y.R != X.R || Y.C != R)
    Y.resize(X.R, R);
  const int B = X.R;
  // Edge elements (batch or row count not a multiple of the tile) fall
  // back to a plain dot product — same single accumulator, same
  // ascending-J order, so every element has the same bits whichever
  // path computes it.
  auto DotInto = [&](int Bi, int I) {
    const float *Row = Data.data() + static_cast<size_t>(I) * C;
    const float *Xr = X.Data.data() + static_cast<size_t>(Bi) * C;
    float Acc = 0;
    for (int J = 0; J < C; ++J)
      Acc += Row[J] * Xr[J];
    Y.Data[static_cast<size_t>(Bi) * R + I] = Acc;
  };
  const int BFull = B - B % GemmTile, IFull = R - R % GemmTile;
  // Lane-packed copy of the full-tile part of X (see gemmTile4x4). One
  // pass over X, reused by every row tile — noise next to the R×B×C
  // multiply work it unlocks.
  std::vector<float> XPack(static_cast<size_t>(BFull) * C);
  for (int B0 = 0; B0 < BFull; B0 += GemmTile) {
    float *Panel = XPack.data() + static_cast<size_t>(B0) * C;
    for (int L = 0; L < GemmTile; ++L) {
      const float *Xr = X.Data.data() + static_cast<size_t>(B0 + L) * C;
      for (int J = 0; J < C; ++J)
        Panel[static_cast<size_t>(J) * GemmTile + L] = Xr[J];
    }
  }
  for (int B0 = 0; B0 < BFull; B0 += GemmTile) {
    const float *Panel = XPack.data() + static_cast<size_t>(B0) * C;
    for (int I0 = 0; I0 < IFull; I0 += GemmTile) {
      const float *WRow[GemmTile];
      for (int T = 0; T < GemmTile; ++T)
        WRow[T] = Data.data() + static_cast<size_t>(I0 + T) * C;
      float Acc[GemmTile][GemmTile] = {};
      gemmTile4x4(WRow, Panel, C, Acc);
      for (int L = 0; L < GemmTile; ++L)
        for (int T = 0; T < GemmTile; ++T)
          Y.Data[static_cast<size_t>(B0 + L) * R + I0 + T] = Acc[T][L];
    }
    for (int I = IFull; I < R; ++I)
      for (int Bi = B0; Bi < B0 + GemmTile; ++Bi)
        DotInto(Bi, I);
  }
  for (int Bi = BFull; Bi < B; ++Bi)
    for (int I = 0; I < R; ++I)
      DotInto(Bi, I);
}

void Matrix::matmulTransposedInto(const Matrix &X, Matrix &Y) const {
  assert(X.C == R && "matmulTransposed dimension mismatch");
  assert(&X != &Y && this != &Y &&
         "matmulTransposedInto buffers must not alias");
  if (Y.R != X.R || Y.C != C)
    Y.resize(X.R, C);
  // Row b of Y is Σ_i X[b][i] · W[i][:], built by one axpy per non-zero
  // X[b][i] in ascending i: each element still has one accumulator
  // starting at +0 and adding in ascending i. A skipped term is an exact
  // ±0 (W finite), and adding ±0 to an accumulator that started at +0
  // never changes it, so the skip is bitwise free. It is what makes L3's
  // backward cheap: a training example's dL/dlogits row is zero outside
  // the candidate sets of its own decisions.
  for (int Bi = 0; Bi < X.R; ++Bi) {
    const float *Xr = X.Data.data() + static_cast<size_t>(Bi) * R;
    float *Yr = Y.Data.data() + static_cast<size_t>(Bi) * C;
    std::fill(Yr, Yr + C, 0.0f);
    for (int I = 0; I < R; ++I)
      if (Xr[I] != 0.0f)
        axpy(Xr[I], Data.data() + static_cast<size_t>(I) * C, Yr, C);
  }
}

void Matrix::addOuterBatch(const Matrix &A, const Matrix &B, float Scale) {
  assert(A.R == B.R && "outer-product batch sizes differ");
  assert(A.C == R && B.C == C && "outer-product dimension mismatch");
  // Example index stays outermost: per element the contributions land in
  // ascending batch order, so a batch accumulates exactly as its examples
  // fed one at a time would. A (b, i) whose scaled A[b][i] is zero adds
  // an exact ±0 to every element of row i and is skipped (same argument
  // as matmulTransposedInto; gradient buffers start at +0).
  for (int Bi = 0; Bi < A.R; ++Bi) {
    const float *ARow = A.Data.data() + static_cast<size_t>(Bi) * A.C;
    const float *BRow = B.Data.data() + static_cast<size_t>(Bi) * B.C;
    for (int I = 0; I < R; ++I) {
      const float Ai = ARow[I] * Scale;
      if (Ai != 0.0f)
        axpy(Ai, BRow, Data.data() + static_cast<size_t>(I) * C, C);
    }
  }
}

void Matrix::addColumnSumsTo(std::vector<float> &Y) const {
  assert(static_cast<int>(Y.size()) == C &&
         "column-sum dimension mismatch");
  for (int I = 0; I < R; ++I) {
    const float *Row = Data.data() + static_cast<size_t>(I) * C;
    for (int J = 0; J < C; ++J)
      Y[J] += Row[J];
  }
}

float dc::nn::maskedLogSumExp(const float *Logits, const int *Active,
                             size_t N) {
  assert(N > 0 && "log-sum-exp over an empty set");
  float M = -1e30f;
  for (size_t K = 0; K < N; ++K)
    M = std::max(M, Logits[Active[K]]);
  float Z = 0;
  for (size_t K = 0; K < N; ++K)
    Z += std::exp(Logits[Active[K]] - M);
  return M + std::log(Z);
}
