//===- nn/Optimizer.h - Adam optimizer -------------------------------------===//
//
// Part of the DreamCoder C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Adam (Kingma & Ba 2014), the optimizer the paper uses for recognition
/// model training (Appendix I), with Kingma & Ba's suggested β1, β2 and ε.
/// Applies updates from an external Gradients buffer (nn/Layers.h), walked
/// in the net's parameter order, so a caller can accumulate a whole batch
/// before one serial, order-defining step.
///
//===----------------------------------------------------------------------===//

#ifndef DC_NN_OPTIMIZER_H
#define DC_NN_OPTIMIZER_H

#include "nn/Layers.h"

namespace dc {
namespace nn {

/// Adam with bias-corrected first/second moment estimates.
class Adam {
public:
  static constexpr float Beta1 = 0.9f, Beta2 = 0.999f, Epsilon = 1e-8f;

  Adam(Mlp &Net, float LearningRate);

  /// Applies one update from the gradients accumulated in \p G, then
  /// zeroes \p G. \p G must be shaped like the net this Adam was built
  /// for.
  void step(Gradients &G);

private:
  Mlp &Net;
  float Lr;
  long T = 0;
  std::vector<std::vector<float>> M, V; ///< per-segment moment buffers
};

} // namespace nn
} // namespace dc

#endif // DC_NN_OPTIMIZER_H
