//===- nn/Layers.h - Reentrant MLP layers with manual backprop ------------===//
//
// Part of the DreamCoder C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A two-hidden-layer perceptron with tanh activations — the recognition
/// model's trunk. The net itself holds only parameters; all per-call state
/// (layer activations, backward scratch) lives in an explicit Workspace and
/// all gradient accumulation in an explicit Gradients buffer, both owned by
/// the caller. forwardBatch() and backwardBatch() are therefore const and
/// reentrant: any number of threads may drive one shared net concurrently
/// as long as each brings its own Workspace/Gradients (see DESIGN.md,
/// threading model). They are the net's only forward and backward, one
/// blocked GEMM per layer: a training minibatch runs them on its B
/// examples, and a prediction or a gradient check on a batch of one. Each
/// row of a batch has the bits that row gets alone (DESIGN.md §5), so
/// batching is a throughput optimization, never a numerics change.
///
//===----------------------------------------------------------------------===//

#ifndef DC_NN_LAYERS_H
#define DC_NN_LAYERS_H

#include "nn/Tensor.h"

namespace dc {
namespace nn {

class Gradients;

/// Per-call activation record and backward scratch for one Mlp
/// forwardBatch/backwardBatch pair, one example per matrix row. Buffers
/// are sized on first use and reused across calls — including calls
/// against differently-shaped nets and batch sizes; every forwardBatch()
/// overwrites the full record, so no stale activations can leak between
/// calls (tested in NnTest.WorkspaceReuse*). One Workspace must never be
/// shared by two threads at once.
class Workspace {
public:
  /// Caller-owned scratch for the loss gradient dL/dlogits, one row per
  /// example (B × outDim), filled by the loss code and fed to
  /// backwardBatch. Lives here so training loops allocate it once, not
  /// per step.
  Matrix BatchScratch;

private:
  friend class Mlp;
  Matrix BIn;        ///< forward inputs, one example per row
  Matrix BA1, BA2;   ///< tanh activations after L1 / L2
  Matrix BLogits;    ///< L3 output
  Matrix BD2, BD1;   ///< backward dL/d(activation) scratch
};

/// Fully connected layer y = Wx + b. Holds parameters only; the forward
/// writes into a caller buffer and the backward accumulates into a
/// caller-owned gradient layer.
class Linear {
public:
  Linear() = default;
  Linear(int InDim, int OutDim, std::mt19937 &Rng)
      : W(Matrix::glorot(OutDim, InDim, Rng)), B(OutDim, 0.0f) {}
  /// All parameters zero, for a caller that overwrites every one or
  /// accumulates gradients into them.
  Linear(int InDim, int OutDim) : W(OutDim, InDim), B(OutDim, 0.0f) {}

  int inDim() const { return W.cols(); }
  int outDim() const { return W.rows(); }

  /// Row b of \p Y = W·(row b of \p X) + B: the GEMM's product sum, then
  /// the bias added to it.
  void forwardBatch(const Matrix &X, Matrix &Y) const;
  /// Given \p DY = dL/dY and the \p X this layer saw in forwardBatch,
  /// accumulates the batch's dL/dW into \p Grad.W and dL/dB into
  /// \p Grad.B (ascending example order per element), and writes per-row
  /// dL/dX into \p DX.
  void backwardBatch(const Matrix &DY, const Matrix &X, Linear &Grad,
                     Matrix &DX) const;

  Matrix W;
  std::vector<float> B;
};

/// Input → Linear → tanh → Linear → tanh → Linear → logits.
class Mlp {
public:
  Mlp() = default;
  Mlp(int InDim, int Hidden, int OutDim, std::mt19937 &Rng)
      : L1(InDim, Hidden, Rng), L2(Hidden, Hidden, Rng),
        L3(Hidden, OutDim, Rng) {}
  /// All parameters zero, for a caller that overwrites every one (a
  /// checkpoint load) or accumulates gradients into them (Gradients).
  Mlp(int InDim, int Hidden, int OutDim)
      : L1(InDim, Hidden), L2(Hidden, Hidden), L3(Hidden, OutDim) {}

  int outDim() const { return L3.outDim(); }

  /// One GEMM per layer over \p X (one example per entry, all of width
  /// inDim). Records the activations in \p WS and returns the
  /// B × outDim logit matrix (valid until the next forwardBatch through
  /// the same Workspace). Row b does not depend on the other rows or on
  /// B — see DESIGN.md §5. Reentrant: safe to call concurrently with
  /// distinct Workspaces.
  const Matrix &forwardBatch(const std::vector<std::vector<float>> &X,
                             Workspace &WS) const;
  /// Backpropagates \p DLogits (one row per example) through the
  /// activations the immediately preceding forwardBatch left in \p WS,
  /// accumulating the whole batch's gradients into \p G, per element in
  /// ascending example order — the sum that feeding the examples one
  /// batch of one at a time into the same \p G gives, bit for bit. Skips
  /// the never-consumed dL/dinput of the first layer.
  void backwardBatch(const Matrix &DLogits, Workspace &WS,
                     Gradients &G) const;

  /// One contiguous parameter block.
  struct ParamSegment {
    float *Param;
    size_t Size;
  };
  struct ConstParamSegment {
    const float *Param;
    size_t Size;
  };

  /// Flat views over the parameters in their one order, W1 B1 W2 B2 W3
  /// B3: the optimizer, the checkpoint format and the weight fingerprint
  /// walk them, and a Gradients buffer is laid out by them.
  std::vector<ParamSegment> parameterSegments();
  std::vector<ConstParamSegment> parameterSegments() const;
  size_t parameterCount() const;

  Linear L1, L2, L3;
};

/// Parameter-shaped gradient accumulator, detached from the net so a
/// caller can sum a batch's gradients and apply one update. It holds a
/// net of the same shape, all zero at construction, whose every parameter
/// accumulates the gradient of the net's same parameter (D.L1.W is
/// dL/dW1); D.parameterSegments() walks the gradients in the net's
/// parameter order.
class Gradients {
public:
  /// Zero gradients shaped like \p Net's parameters.
  explicit Gradients(const Mlp &Net)
      : D(Net.L1.inDim(), Net.L1.outDim(), Net.outDim()) {}

  void zero();

  Mlp D;
};

} // namespace nn
} // namespace dc

#endif // DC_NN_LAYERS_H
