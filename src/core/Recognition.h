//===- core/Recognition.h - Neural recognition model Q(ρ|x) ---------------===//
//
// Part of the DreamCoder C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dream-sleep recognition model (paper §4): a task-conditioned
/// distribution over programs used to guide wake-phase search. A small MLP
/// maps task features to a bigram transition tensor Q[parent, argIndex,
/// child] (3-index, as in Fig 6 top); enumerating under the resulting
/// ContextualGrammar breaks syntactic symmetries that a unigram model
/// cannot (don't add zero, fix associativity, ...).
///
/// Supported training regimes (for the Fig 6 ablation grid):
///   * objective: L^MAP (collapse observation-equivalent dreams to their
///     highest-prior member) or L^post (every sample is a target)
///   * parameterization: bigram (per-slot heads) or unigram (single head,
///     as in EC2)
///
/// Training data is replays (solved frontiers) plus fantasies (programs
/// sampled from the generative model, executed to produce tasks). Each
/// pair's decisions are walked once per training call; training is then
/// minibatched: each optimizer step runs the batch through one GEMM per
/// layer, accumulating gradients in fixed example order, and applies one
/// Adam update on the batch mean. predict() is const and thread-safe —
/// the MLP's activations live in per-call workspaces, never in the net.
///
//===----------------------------------------------------------------------===//

#ifndef DC_CORE_RECOGNITION_H
#define DC_CORE_RECOGNITION_H

#include "core/ContextualGrammar.h"
#include "core/Featurizer.h"
#include "core/Sampling.h"
#include "nn/Layers.h"
#include "nn/Optimizer.h"

#include <cstdint>
#include <iosfwd>
#include <memory>

namespace dc {

/// Dream-phase training configuration.
struct RecognitionParams {
  int HiddenDim = 64;
  /// Total example presentations per train() call, taken in minibatches
  /// of 8 (one Adam step on each batch-mean gradient).
  int TrainingSteps = 3000;
  int FantasyCount = 150;       ///< dreams per training cycle
  bool Bigram = true;           ///< bigram vs unigram parameterization
  bool MapObjective = true;     ///< L^MAP vs L^post
  float LogitClamp = 6.0f;      ///< predicted weights live in ±clamp
  unsigned Seed = 0;
  /// Worker threads for the dream phase: fantasy sampling and the
  /// per-pair featurization and decision walks fan out over the shared
  /// pool (0 = per-core, 1 = serial, N = at most N); the minibatch steps
  /// run on the calling thread. Trained weights, lastLoss(), and the
  /// fantasy set are bit-identical at every setting: every fanned-out
  /// result is index-addressed.
  int NumThreads = 1;
};

/// The neural search policy: predicts task-conditioned grammar weights.
class RecognitionModel {
public:
  /// \p G fixes the library (productions and slot structure); \p F the
  /// task encoder. The network is freshly initialized — the paper retrains
  /// the recognition model each dream phase because the library changed.
  RecognitionModel(const Grammar &G, const TaskFeaturizer &F,
                   const RecognitionParams &Params = {});
  /// The model keeps references to both: temporaries would dangle.
  RecognitionModel(const Grammar &&, const TaskFeaturizer &,
                   const RecognitionParams & = {}) = delete;
  RecognitionModel(const Grammar &, const TaskFeaturizer &&,
                   const RecognitionParams & = {}) = delete;

  /// Trains on replays + fantasies. Fantasies are drawn internally from
  /// \p G using the seeds of \p ReplayTasks (paper: inputs are sampled
  /// from the empirical distribution of training inputs); a custom
  /// \p Hook adapts fantasy construction for non-I/O domains.
  void train(const std::vector<Frontier> &Replays,
             const std::vector<TaskPtr> &ReplayTasks,
             const FantasyHook &Hook = defaultFantasyTask);

  /// Trains from explicit (task, program) pairs (tests, Fig 6).
  void trainOnPairs(const std::vector<Fantasy> &Pairs);

  /// Task-conditioned bigram grammar for enumeration. Thread-safe: any
  /// number of threads may predict concurrently (forward runs against a
  /// local workspace, the net is read-only here).
  ContextualGrammar predict(const Task &T) const;

  /// Unigram variant (only meaningful with Bigram = false, but always
  /// available: it reads the start slot). Thread-safe like predict().
  Grammar predictUnigram(const Task &T) const;

  /// Cross-entropy loss + gradient for one (task, program) pair against
  /// the current weights: accumulates parameter gradients scaled by
  /// \p GradScale into \p G and returns the (unscaled) loss. Reentrant,
  /// one (Workspace, Gradients) per concurrent caller. It walks the
  /// pair's decisions, then runs a training step on a batch of one: the
  /// forwardBatch → lossAndDLogits → backwardBatch that trainOnPairs runs
  /// on each minibatch. Public for gradient checks.
  double exampleLossAndGrad(const std::vector<float> &Features,
                            const TypePtr &Request, ExprPtr Program,
                            nn::Workspace &WS, nn::Gradients &G,
                            float GradScale = 1.0f) const;

  /// Average training loss of the most recent train() call (diagnostics).
  double lastLoss() const { return LastLoss; }

  int slotCount() const { return NumSlots; }
  int childCount() const { return NumChildren; }

  /// FNV-1a hash over the raw parameter bytes — the bit-identity gate
  /// used by determinism tests and bench_recognition_parallel.
  std::uint64_t weightFingerprint() const;

  /// The underlying net (tests and benchmarks: gradient checks, weight
  /// perturbation). Mutating weights invalidates nothing — predictions
  /// simply reflect the new parameters.
  nn::Mlp &net() { return Net; }
  const nn::Mlp &net() const { return Net; }

  /// Network parameterization as loadRecognitionModel needs it
  /// (HiddenDim / Bigram / LogitClamp fix the net's shape and the
  /// prediction mapping).
  const RecognitionParams &params() const { return Params; }

private:
  /// A model around an already trained \p Trained net (its shape checked
  /// by the caller): a checkpoint load, which skips initializing weights
  /// it would overwrite.
  RecognitionModel(const Grammar &G, const TaskFeaturizer &F,
                   const RecognitionParams &Params, nn::Mlp Trained);
  friend std::unique_ptr<RecognitionModel>
  loadRecognitionModel(const Grammar &G, const TaskFeaturizer &F,
                       std::istream &In, std::string *ErrorOut);

  /// The head row trained and read at a slot of Prior: the slot itself
  /// (bigram) or the single row (unigram).
  int headRow(int Slot) const { return Params.Bigram ? Slot : 0; }
  struct Decisions;
  /// Walks \p Program's decisions at \p Request into \p Out, which
  /// stays empty when the program falls outside the grammar's support.
  void walkDecisions(const TypePtr &Request, ExprPtr Program,
                     Decisions &Out) const;
  /// Cross-entropy loss over \p D against one logit row, and that row's
  /// dL/dlogits times \p Scale, written over the whole \p DLogits row
  /// (all zero, loss 0, when \p D is empty). The one loss body of
  /// trainOnPairs and exampleLossAndGrad.
  double lossAndDLogits(const float *Logits, const Decisions &D,
                        float Scale, float *DLogits) const;

  const Grammar &Base;
  /// Every slot at the generative weights: the head's slot layout, and
  /// the grammar each prediction adds its logits to.
  ContextualGrammar Prior;
  const TaskFeaturizer &Featurizer;
  RecognitionParams Params;
  int NumSlots = 0;    ///< head rows: Prior's slots, or 1 when unigram
  int NumChildren = 0; ///< productions + 1 (variable pseudo-child)
  nn::Mlp Net;
  std::mt19937 Rng;
  double LastLoss = 0;
};

/// Serializes a trained recognition model in the checkpoint family's
/// line-oriented text format: a header fixing the parameterization
/// (hidden width, bigram vs unigram, logit clamp) and the net shape,
/// followed by the raw parameter bits (floats as 8-hex-digit bit
/// patterns), so a load is bit-exact — predict() on the loaded model
/// produces bit-identical grammars (SerializationTest round-trip). The
/// grammar and featurizer themselves are not stored; a model checkpoint
/// is only meaningful next to the grammar checkpoint it was trained
/// against.
void saveRecognitionModel(const RecognitionModel &M, std::ostream &Out);

/// Restores a model saved by saveRecognitionModel against \p G and \p F,
/// which must match the training-time library (production count fixes the
/// output head) and featurizer (input width). Returns null and sets
/// \p ErrorOut on malformed input or shape mismatch. Reads \p In to its
/// end once the header checks pass. \p G and \p F must outlive the
/// returned model (same borrow contract as the constructor).
std::unique_ptr<RecognitionModel>
loadRecognitionModel(const Grammar &G, const TaskFeaturizer &F,
                     std::istream &In, std::string *ErrorOut = nullptr);
std::unique_ptr<RecognitionModel>
loadRecognitionModel(const Grammar &&, const TaskFeaturizer &, std::istream &,
                     std::string * = nullptr) = delete;
std::unique_ptr<RecognitionModel>
loadRecognitionModel(const Grammar &, const TaskFeaturizer &&, std::istream &,
                     std::string * = nullptr) = delete;

} // namespace dc

#endif // DC_CORE_RECOGNITION_H
