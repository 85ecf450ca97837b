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
/// the caller. forward() and backward() are therefore const and reentrant:
/// any number of threads may drive one shared net concurrently as long as
/// each brings its own Workspace/Gradients (see DESIGN.md, threading
/// model). Alongside the batch-of-1 forward()/backward(), the net offers
/// forwardBatch()/backwardBatch() — one blocked GEMM per layer — whose
/// per-row results and accumulated gradients are bit-identical to the
/// serial path (DESIGN.md §5): batching is a throughput optimization,
/// never a numerics change.
///
//===----------------------------------------------------------------------===//

#ifndef DC_NN_LAYERS_H
#define DC_NN_LAYERS_H

#include "nn/Tensor.h"

namespace dc {
namespace nn {

class Mlp;

/// Per-call activation record and backward scratch for one Mlp
/// forward/backward pair. Buffers are sized lazily on first use and reused
/// across calls — including calls against differently-shaped nets; every
/// forward() overwrites the full record, so no stale activations can leak
/// between calls (tested in NnTest.WorkspaceReuse*). One Workspace must
/// never be shared by two threads at once.
class Workspace {
public:
  /// Caller-owned scratch for the loss gradient dL/dlogits (sized and
  /// filled by the loss code, consumed by Mlp::backward callers). Lives
  /// here so per-thread training loops allocate it once, not per example.
  std::vector<float> Scratch;

  /// Batched counterpart of Scratch: one dL/dlogits row per example
  /// (B × outDim), filled by the loss code and fed to backwardBatch.
  Matrix BatchScratch;

private:
  friend class Mlp;
  std::vector<float> In;     ///< copy of the forward input (L1's x)
  std::vector<float> A1, A2; ///< tanh activations after L1 / L2
  std::vector<float> Logits; ///< L3 output
  std::vector<float> D2, D1, D0; ///< backward dL/d(activation) scratch
  Matrix BIn;        ///< batched forward inputs, one example per row
  Matrix BA1, BA2;   ///< batched tanh activations after L1 / L2
  Matrix BLogits;    ///< batched L3 output
  Matrix BD2, BD1;   ///< batched backward dL/d(activation) scratch
};

/// Parameter-shaped gradient accumulator, detached from the net so many
/// workers can accumulate privately and be reduced in a deterministic
/// order. Segment layout mirrors Mlp::parameterSegments().
class Gradients {
public:
  Gradients() = default;
  /// Zero gradients shaped like \p Net's parameters.
  explicit Gradients(const Mlp &Net);

  void zero();
  /// this += Other, elementwise. Reductions over a minibatch must add
  /// buffers in a fixed slice order so results are bit-identical at every
  /// thread count.
  void add(const Gradients &Other);

  /// One contiguous gradient block; order matches
  /// Mlp::parameterSegments().
  struct Segment {
    float *Grad;
    size_t Size;
  };
  std::vector<Segment> segments();

  Matrix DW1, DW2, DW3;
  std::vector<float> DB1, DB2, DB3;
};

/// Fully connected layer y = Wx + b. Holds parameters only; forward writes
/// into a caller buffer and backward accumulates into caller-owned DW/DB.
class Linear {
public:
  Linear() = default;
  Linear(int InDim, int OutDim, std::mt19937 &Rng)
      : W(Matrix::glorot(OutDim, InDim, Rng)), B(OutDim, 0.0f) {}
  /// All parameters zero, for a caller that overwrites every one.
  Linear(int InDim, int OutDim) : W(OutDim, InDim), B(OutDim, 0.0f) {}

  int inDim() const { return W.cols(); }
  int outDim() const { return W.rows(); }

  /// Y = Wx + b. \p Y must not alias \p X.
  void forward(const std::vector<float> &X, std::vector<float> &Y) const;
  /// Accumulates dL/dW into \p DW, dL/dB into \p DB, and writes dL/dX
  /// into \p DX, given \p DY = dL/dY and the \p X this layer saw in
  /// forward. \p DX must not alias \p DY.
  void backward(const std::vector<float> &DY, const std::vector<float> &X,
                Matrix &DW, std::vector<float> &DB,
                std::vector<float> &DX) const;

  /// Batched forward: row b of \p Y = W·(row b of \p X) + B. Each row is
  /// bit-identical to forward() on that row (GEMM accumulation order,
  /// bias added after the full dot product).
  void forwardBatch(const Matrix &X, Matrix &Y) const;
  /// Batched backward: accumulates the batch's dL/dW into \p DW and
  /// dL/dB into \p DB (ascending example order per element — the order
  /// a per-example reduce used), and writes per-row dL/dX into \p DX.
  void backwardBatch(const Matrix &DY, const Matrix &X, Matrix &DW,
                     std::vector<float> &DB, Matrix &DX) const;

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
  /// checkpoint load).
  Mlp(int InDim, int Hidden, int OutDim)
      : L1(InDim, Hidden), L2(Hidden, Hidden), L3(Hidden, OutDim) {}

  int outDim() const { return L3.outDim(); }

  /// Records activations in \p WS and returns a view of the logits (valid
  /// until the next forward through the same Workspace). Reentrant: safe
  /// to call concurrently with distinct Workspaces.
  const std::vector<float> &forward(const std::vector<float> &X,
                                    Workspace &WS) const;
  /// Backpropagates \p DLogits through the activations the immediately
  /// preceding forward() left in \p WS, accumulating into \p G.
  void backward(const std::vector<float> &DLogits, Workspace &WS,
                Gradients &G) const;

  /// Batched forward: one GEMM per layer over \p X (one example per
  /// entry, all of width inDim). Returns the B × outDim logit matrix
  /// (valid until the next forwardBatch through the same Workspace);
  /// row b is bit-identical to forward(X[b]) — see DESIGN.md §5.
  const Matrix &forwardBatch(const std::vector<std::vector<float>> &X,
                             Workspace &WS) const;
  /// Batched backward through the activations forwardBatch left in
  /// \p WS: accumulates the whole batch's gradients into \p G, per
  /// element in ascending example order (bit-identical to running
  /// backward() per example and reducing in example order). Skips the
  /// never-consumed dL/dinput of the first layer.
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

  /// Flat views over the parameters, for the optimizer (order: W1 B1 W2
  /// B2 W3 B3, matching Gradients::segments()).
  std::vector<ParamSegment> parameterSegments();
  std::vector<ConstParamSegment> parameterSegments() const;
  size_t parameterCount() const;

  Linear L1, L2, L3;
};

} // namespace nn
} // namespace dc

#endif // DC_NN_LAYERS_H
