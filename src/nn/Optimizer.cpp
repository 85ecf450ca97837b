//===- nn/Optimizer.cpp - Adam optimizer -----------------------------------===//

#include "nn/Optimizer.h"

#include <cassert>
#include <cmath>

#ifdef __SSE2__
#include <emmintrin.h>
#endif

using namespace dc;
using namespace dc::nn;

Adam::Adam(Mlp &Net, float LearningRate) : Net(Net), Lr(LearningRate) {
  for (const Mlp::ParamSegment &Seg : Net.parameterSegments()) {
    M.emplace_back(Seg.Size, 0.0f);
    V.emplace_back(Seg.Size, 0.0f);
  }
}

void Adam::step(Gradients &G) {
  ++T;
  const float Correction1 = 1.0f - std::pow(Beta1, static_cast<float>(T));
  const float Correction2 = 1.0f - std::pow(Beta2, static_cast<float>(T));
  const float OneMinusB1 = 1.0f - Beta1, OneMinusB2 = 1.0f - Beta2;
  auto Segments = Net.parameterSegments();
  auto GradSegments = G.D.parameterSegments();
  assert(Segments.size() == GradSegments.size() &&
         "gradient buffer shape mismatch");
  // Per element: M = Beta1·M + (1−Beta1)·g, V = Beta2·V + ((1−Beta2)·g)·g,
  // P −= (Lr·(M/C1)) / (sqrt(V/C2) + Epsilon). The SSE2 body evaluates that
  // exact association with correctly rounded per-lane mul/add/div/sqrt,
  // so it is bit-identical to the scalar tail, which finishes each
  // segment (and is the whole loop without SSE2).
  for (size_t S = 0; S < Segments.size(); ++S) {
    assert(Segments[S].Size == GradSegments[S].Size &&
           "gradient segment size mismatch");
    const size_t N = Segments[S].Size;
    float *P = Segments[S].Param;
    const float *Grad = GradSegments[S].Param;
    float *Ms = M[S].data(), *Vs = V[S].data();
    size_t I = 0;
#ifdef __SSE2__
    const __m128 B1v = _mm_set1_ps(Beta1), B2v = _mm_set1_ps(Beta2);
    const __m128 OneMinusB1v = _mm_set1_ps(OneMinusB1);
    const __m128 OneMinusB2v = _mm_set1_ps(OneMinusB2);
    const __m128 C1v = _mm_set1_ps(Correction1);
    const __m128 C2v = _mm_set1_ps(Correction2);
    const __m128 Lrv = _mm_set1_ps(Lr), Epsv = _mm_set1_ps(Epsilon);
    for (; I + 4 <= N; I += 4) {
      const __m128 Gv = _mm_loadu_ps(Grad + I);
      const __m128 Mv = _mm_add_ps(_mm_mul_ps(B1v, _mm_loadu_ps(Ms + I)),
                                   _mm_mul_ps(OneMinusB1v, Gv));
      const __m128 Vv =
          _mm_add_ps(_mm_mul_ps(B2v, _mm_loadu_ps(Vs + I)),
                     _mm_mul_ps(_mm_mul_ps(OneMinusB2v, Gv), Gv));
      _mm_storeu_ps(Ms + I, Mv);
      _mm_storeu_ps(Vs + I, Vv);
      const __m128 Step = _mm_div_ps(
          _mm_mul_ps(Lrv, _mm_div_ps(Mv, C1v)),
          _mm_add_ps(_mm_sqrt_ps(_mm_div_ps(Vv, C2v)), Epsv));
      _mm_storeu_ps(P + I, _mm_sub_ps(_mm_loadu_ps(P + I), Step));
    }
#endif
    for (; I < N; ++I) {
      const float Gi = Grad[I];
      Ms[I] = Beta1 * Ms[I] + OneMinusB1 * Gi;
      Vs[I] = Beta2 * Vs[I] + OneMinusB2 * Gi * Gi;
      P[I] -= Lr * (Ms[I] / Correction1) /
              (std::sqrt(Vs[I] / Correction2) + Epsilon);
    }
  }
  G.zero();
}
