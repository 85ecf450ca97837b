//===- core/Recognition.cpp - Neural recognition model Q(ρ|x) -------------===//

#include "core/Recognition.h"

#include "core/ThreadPool.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string_view>

using namespace dc;

namespace {

/// Examples per optimizer step (EC2-style minibatch accumulation); the
/// update uses the batch-mean gradient, and a train() call takes
/// ceil(TrainingSteps / TrainBatchSize) Adam steps.
constexpr int TrainBatchSize = 8;
constexpr float AdamLearningRate = 5e-3f;

} // namespace

RecognitionModel::RecognitionModel(const Grammar &G, const TaskFeaturizer &F,
                                   const RecognitionParams &P)
    : Base(G), Prior(G), Featurizer(F), Params(P), Rng(P.Seed) {
  NumChildren = Prior.childCount();
  NumSlots = Params.Bigram ? Prior.slotCount() : 1;
  Net = nn::Mlp(Featurizer.dimension(), Params.HiddenDim,
                NumSlots * NumChildren, Rng);
}

RecognitionModel::RecognitionModel(const Grammar &G, const TaskFeaturizer &F,
                                   const RecognitionParams &P,
                                   nn::Mlp Trained)
    : Base(G), Prior(G), Featurizer(F), Params(P), Net(std::move(Trained)),
      Rng(P.Seed) {
  NumChildren = Prior.childCount();
  NumSlots = Params.Bigram ? Prior.slotCount() : 1;
}

/// The decisions one (task, program) pair makes under Prior, in walk
/// order, as head indices into the net's output row.
struct RecognitionModel::Decisions {
  std::vector<int> Target; ///< each decision's chosen child
  /// Each decision's sorted, distinct candidates, back to back: decision
  /// d's run ends at ActiveEnd[d] and starts where d − 1's ends.
  std::vector<int> ActiveEnd;
  std::vector<int> Active;
};

void RecognitionModel::walkDecisions(const TypePtr &Request, ExprPtr Program,
                                     Decisions &Out) const {
  Out = {};
  bool Ok = walkProgramDecisions(
      Base, Request, Program,
      [&](int ParentIdx, int ArgIdx, const GrammarCandidate &Chosen,
          std::span<const GrammarCandidate>All) {
        const int BaseIdx =
            headRow(Prior.slotIndex(ParentIdx, ArgIdx)) * NumChildren;
        // Candidate child classes at this hole (variable = last index).
        const auto Begin = static_cast<std::ptrdiff_t>(Out.Active.size());
        bool VarActive = false;
        for (const GrammarCandidate &C : All) {
          if (C.ProductionIdx < 0)
            VarActive = true;
          else
            Out.Active.push_back(BaseIdx + C.ProductionIdx);
        }
        if (VarActive)
          Out.Active.push_back(BaseIdx + NumChildren - 1);
        std::sort(Out.Active.begin() + Begin, Out.Active.end());
        Out.Active.erase(
            std::unique(Out.Active.begin() + Begin, Out.Active.end()),
            Out.Active.end());
        Out.ActiveEnd.push_back(static_cast<int>(Out.Active.size()));
        Out.Target.push_back(Chosen.ProductionIdx < 0
                                 ? BaseIdx + NumChildren - 1
                                 : BaseIdx + Chosen.ProductionIdx);
      });
  if (!Ok)
    Out = {}; // outside support: drop any prefix the walk reported
}

double RecognitionModel::lossAndDLogits(const float *Logits,
                                        const Decisions &D, float Scale,
                                        float *DLogits) const {
  const size_t Width = static_cast<size_t>(NumSlots) * NumChildren;
  std::fill(DLogits, DLogits + Width, 0.0f);
  double Loss = 0;
  int Begin = 0;
  for (size_t K = 0; K < D.Target.size(); ++K) {
    const int *Active = D.Active.data() + Begin;
    const size_t N = static_cast<size_t>(D.ActiveEnd[K] - Begin);
    Begin = D.ActiveEnd[K];
    const float LogZ = nn::maskedLogSumExp(Logits, Active, N);
    Loss -= Logits[D.Target[K]] - LogZ;
    // dL/dlogit = softmax - onehot over the active set.
    for (size_t I = 0; I < N; ++I)
      DLogits[Active[I]] += std::exp(Logits[Active[I]] - LogZ);
    DLogits[D.Target[K]] -= 1.0f;
  }
  if (Scale != 1.0f)
    for (size_t I = 0; I < Width; ++I)
      DLogits[I] *= Scale;
  return Loss; // total cross-entropy over this program's decisions
}

double RecognitionModel::exampleLossAndGrad(const std::vector<float> &Features,
                                            const TypePtr &Request,
                                            ExprPtr Program,
                                            nn::Workspace &WS,
                                            nn::Gradients &G,
                                            float GradScale) const {
  Decisions D;
  walkDecisions(Request, Program, D);
  if (D.Target.empty())
    return 0.0; // outside support: no backward, no gradient
  // A training step on a batch of one: the same forward, loss body and
  // backward trainOnPairs runs on its minibatches.
  const nn::Matrix &Logits = Net.forwardBatch({Features}, WS);
  WS.BatchScratch.resize(1, Logits.cols());
  double Loss = lossAndDLogits(Logits.data(), D, GradScale,
                               WS.BatchScratch.data());
  Net.backwardBatch(WS.BatchScratch, WS, G);
  return Loss;
}

void RecognitionModel::trainOnPairs(const std::vector<Fantasy> &Pairs) {
  if (Pairs.empty())
    return;
  obs::ScopedSpan Span("recognition.sgd");
  // Featurize every pair and walk its decisions (type inference and
  // Grammar::candidates at every hole) once; every presentation below
  // reuses both. Each is a pure function of its pair, so the fan-out is
  // index-addressed and order-free.
  std::vector<std::vector<float>> Features(Pairs.size());
  std::vector<Decisions> Walks(Pairs.size());
  {
    obs::ScopedSpan PrepassSpan("recognition.prepass");
    parallelFor(Params.NumThreads, Pairs.size(), [&](size_t I) {
      Features[I] = Featurizer.featurize(*Pairs[I].T);
      walkDecisions(Pairs[I].T->request(), Pairs[I].Program, Walks[I]);
    });
  }

  nn::Adam Optimizer(Net, AdamLearningRate);
  std::uniform_int_distribution<size_t> Pick(0, Pairs.size() - 1);
  const int Batch = TrainBatchSize;
  const int Steps = (std::max(1, Params.TrainingSteps) + Batch - 1) / Batch;
  const float Scale = 1.0f / static_cast<float>(Batch);

  // One workspace carries the whole minibatch: forward is one GEMM per
  // layer over the B feature rows, backward one GEMM per layer straight
  // into BatchGrad. Per output element the GEMM accumulates in ascending
  // example order, so the summed gradient (and hence every weight) stays
  // a pure function of the seed, never of the thread count (DESIGN.md §5).
  nn::Workspace WS;
  nn::Gradients BatchGrad(Net);
  std::vector<size_t> Picked(Batch);
  std::vector<std::vector<float>> Inputs(Batch);

  double RunningLoss = 0;
  long Counted = 0;
  // Telemetry is write-only: step timings feed histograms, never the
  // training loop itself.
  const bool TimeSteps = obs::Telemetry::enabled();
  const int64_t TrainStart =
      TimeSteps ? obs::Tracer::global().nowMicros() : 0;
  for (int Step = 0; Step < Steps; ++Step) {
    obs::ScopedSpan StepSpan("recognition.train.step");
    // The example draws stay on the caller's RNG stream, in step order.
    for (int J = 0; J < Batch; ++J)
      Picked[J] = Pick(Rng);
    for (int J = 0; J < Batch; ++J)
      Inputs[J] = Features[Picked[J]];

    // One GEMM per layer for the whole minibatch's forward.
    const nn::Matrix &Logits = Net.forwardBatch(Inputs, WS);
    const size_t OutDim = static_cast<size_t>(Logits.cols());

    // Each example's loss and batch-mean dL/dlogits row, from its walked
    // decisions. An out-of-support example's row is all zero and
    // contributes exactly nothing.
    WS.BatchScratch.resize(Batch, Logits.cols());
    for (int J = 0; J < Batch; ++J) {
      RunningLoss += lossAndDLogits(Logits.data() + J * OutDim,
                                    Walks[Picked[J]], Scale,
                                    WS.BatchScratch.data() + J * OutDim);
      ++Counted;
    }
    const int64_t ReduceStart =
        TimeSteps ? obs::Tracer::global().nowMicros() : 0;
    // One GEMM per layer accumulates the whole batch into BatchGrad
    // (ascending example order per element — the deterministic
    // reduction, inside the kernel).
    Net.backwardBatch(WS.BatchScratch, WS, BatchGrad);
    Optimizer.step(BatchGrad); // applies the update and zeroes BatchGrad
    if (TimeSteps)
      obs::observe("recognition.reduce_micros",
                   static_cast<double>(obs::Tracer::global().nowMicros() -
                                       ReduceStart));
  }
  LastLoss = Counted ? RunningLoss / static_cast<double>(Counted) : 0;
  if (obs::Telemetry::enabled()) {
    obs::countAdd("recognition.gradient_steps", Steps);
    obs::countAdd("recognition.examples_presented", Counted);
    obs::countAdd("recognition.training_pairs",
                  static_cast<long>(Pairs.size()));
    obs::countAdd("recognition.train_micros",
                  obs::Tracer::global().nowMicros() - TrainStart);
    obs::gaugeSet("recognition.batch_size", Batch);
    obs::gaugeSet("recognition.threads",
                  ThreadPool::resolveThreadCount(Params.NumThreads));
    obs::gaugeSet("recognition.last_loss", LastLoss);
  }
}

void RecognitionModel::train(const std::vector<Frontier> &Replays,
                             const std::vector<TaskPtr> &ReplayTasks,
                             const FantasyHook &Hook) {
  obs::ScopedSpan Span("recognition.train");
  std::vector<Fantasy> Pairs;

  // Replays: the best program for every solved task (L^MAP), or every beam
  // member (L^post).
  for (const Frontier &F : Replays) {
    if (F.empty())
      continue;
    if (Params.MapObjective) {
      Pairs.push_back({F.task(), F.best()->Program, F.best()->LogPrior});
    } else {
      for (const FrontierEntry &E : F.entries())
        Pairs.push_back({F.task(), E.Program, E.LogPrior});
    }
  }

  if (obs::Telemetry::enabled())
    obs::countAdd("recognition.replays", static_cast<long>(Pairs.size()));

  // Fantasies: dreams from the generative model.
  std::vector<Fantasy> Dreams =
      sampleFantasies(Base, ReplayTasks, Params.FantasyCount, Rng,
                      Params.MapObjective, Hook, Params.NumThreads);
  if (obs::Telemetry::enabled())
    obs::countAdd("recognition.fantasies",
                  static_cast<long>(Dreams.size()));
  for (Fantasy &D : Dreams)
    Pairs.push_back(std::move(D));

  trainOnPairs(Pairs);
}

ContextualGrammar RecognitionModel::predict(const Task &T) const {
  nn::Workspace WS; // per-call activations: concurrent predicts never share
  const nn::Matrix &Logits = Net.forwardBatch({Featurizer.featurize(T)}, WS);
  // The network predicts residual corrections to the generative weights:
  // an untrained Q (logits near zero) then guides search exactly like the
  // generative model, and training only ever adds information. (The paper
  // parameterizes Q absolutely but trains it to convergence on much more
  // dream data; the residual form keeps reduced-scale runs stable.)
  ContextualGrammar CG = Prior;
  for (int S = 0; S < CG.slotCount(); ++S) {
    const float *Head = Logits.data() + headRow(S) * NumChildren;
    double *Row = CG.row(S);
    for (int C = 0; C < NumChildren; ++C)
      Row[C] += std::clamp(Head[C], -Params.LogitClamp, Params.LogitClamp);
  }
  return CG;
}

Grammar RecognitionModel::predictUnigram(const Task &T) const {
  nn::Workspace WS;
  const nn::Matrix &Logits = Net.forwardBatch({Featurizer.featurize(T)}, WS);
  Grammar G = Base;
  const float *Head =
      Logits.data() + headRow(Prior.slotIndex(ParentStart, 0)) * NumChildren;
  for (size_t I = 0; I < G.productions().size(); ++I)
    G.productions()[I].LogWeight +=
        std::clamp(Head[I], -Params.LogitClamp, Params.LogitClamp);
  G.setLogVariable(G.logVariable() +
                   std::clamp(Head[NumChildren - 1], -Params.LogitClamp,
                              Params.LogitClamp));
  return G;
}

std::uint64_t RecognitionModel::weightFingerprint() const {
  std::uint64_t H = 1469598103934665603ULL; // FNV offset basis
  for (const nn::Mlp::ConstParamSegment &Seg : Net.parameterSegments()) {
    const unsigned char *Bytes =
        reinterpret_cast<const unsigned char *>(Seg.Param);
    for (size_t I = 0; I < Seg.Size * sizeof(float); ++I) {
      H ^= Bytes[I];
      H *= 1099511628211ULL; // FNV prime
    }
  }
  return H;
}

//===----------------------------------------------------------------------===//
// Model checkpointing (see core/Serialization.h for the format family)
//===----------------------------------------------------------------------===//

namespace {

/// Floats travel as their IEEE-754 bit patterns in fixed-width hex: text
/// that round-trips exactly (istream hexfloat parsing is unreliable and
/// decimal printing is lossy), and greppable next to the grammar text.
std::uint32_t floatBits(float F) {
  std::uint32_t Bits;
  static_assert(sizeof(Bits) == sizeof(F));
  std::memcpy(&Bits, &F, sizeof(Bits));
  return Bits;
}

float bitsToFloat(std::uint32_t Bits) {
  float F;
  std::memcpy(&F, &Bits, sizeof(F));
  return F;
}

/// Parses a word of exactly eight hex digits (no sign, no 0x prefix).
/// A table lookup per digit and no branch: letters and digits mix at
/// random in parameter words, so a branch per digit mispredicts.
bool parseHexWord(std::string_view Word, std::uint32_t &Bits) {
  static constexpr std::array<std::int8_t, 256> Digits = [] {
    std::array<std::int8_t, 256> D{};
    D.fill(-1);
    for (int I = 0; I < 10; ++I)
      D['0' + I] = static_cast<std::int8_t>(I);
    for (int I = 0; I < 6; ++I)
      D['a' + I] = D['A' + I] = static_cast<std::int8_t>(10 + I);
    return D;
  }();
  if (Word.size() != 8)
    return false;
  std::uint32_t Out = 0;
  int Invalid = 0;
  for (char C : Word) {
    const int Digit = Digits[static_cast<unsigned char>(C)];
    Invalid |= Digit; // negative once any digit is not hex
    Out = Out << 4 | static_cast<std::uint32_t>(Digit & 15);
  }
  Bits = Out;
  return Invalid >= 0;
}

/// Takes the next whitespace-separated word of \p Text into \p Word;
/// false at its end.
bool nextWord(std::string_view &Text, std::string_view &Word) {
  // The "C" locale's whitespace, without a call per character.
  auto IsSpace = [](char C) { return C == ' ' || (C >= '\t' && C <= '\r'); };
  size_t Start = 0;
  while (Start < Text.size() && IsSpace(Text[Start]))
    ++Start;
  size_t End = Start;
  while (End < Text.size() && !IsSpace(Text[End]))
    ++End;
  Word = Text.substr(Start, End - Start);
  Text.remove_prefix(End);
  return !Word.empty();
}

bool loadFail(std::string *ErrorOut, const std::string &Msg) {
  if (ErrorOut && ErrorOut->empty())
    *ErrorOut = "recognition model: " + Msg;
  return false;
}

} // namespace

void dc::saveRecognitionModel(const RecognitionModel &M, std::ostream &Out) {
  const RecognitionParams &P = M.params();
  Out << "recognition v1\n";
  Out << "hidden " << P.HiddenDim << "\n";
  Out << "bigram " << (P.Bigram ? 1 : 0) << "\n";
  char Hex[16];
  std::snprintf(Hex, sizeof(Hex), "%08x", floatBits(P.LogitClamp));
  Out << "logitClamp " << Hex << "\n";
  size_t ParamCount = M.net().parameterCount();
  Out << "shape " << M.slotCount() << " " << M.childCount() << " "
      << ParamCount << "\n";
  Out << "params";
  size_t Col = 0;
  for (const nn::Mlp::ConstParamSegment &Seg :
       M.net().parameterSegments())
    for (size_t I = 0; I < Seg.Size; ++I) {
      // 16 words per line keeps lines short without a per-word tag.
      Out << ((Col++ % 16 == 0) ? "\n" : " ");
      std::snprintf(Hex, sizeof(Hex), "%08x", floatBits(Seg.Param[I]));
      Out << Hex;
    }
  Out << "\nend\n";
}

std::unique_ptr<RecognitionModel>
dc::loadRecognitionModel(const Grammar &G, const TaskFeaturizer &F,
                         std::istream &In, std::string *ErrorOut) {
  std::string Line, Tag;
  if (!std::getline(In, Line) || Line != "recognition v1") {
    loadFail(ErrorOut, "missing 'recognition v1' header");
    return nullptr;
  }
  RecognitionParams P;
  int Bigram = 1;
  std::string ClampHex;
  std::uint32_t ClampBits = 0;
  int Slots = 0, Children = 0;
  size_t ParamCount = 0;
  for (const char *Expect : {"hidden", "bigram", "logitClamp", "shape"}) {
    if (!std::getline(In, Line)) {
      loadFail(ErrorOut, std::string("truncated before '") + Expect + "'");
      return nullptr;
    }
    std::istringstream LS(Line);
    LS >> Tag;
    bool Ok = Tag == Expect;
    if (Ok && Tag == "hidden")
      Ok = static_cast<bool>(LS >> P.HiddenDim) && P.HiddenDim > 0;
    else if (Ok && Tag == "bigram")
      Ok = static_cast<bool>(LS >> Bigram);
    else if (Ok && Tag == "logitClamp")
      Ok = static_cast<bool>(LS >> ClampHex) &&
           parseHexWord(ClampHex, ClampBits);
    else if (Ok && Tag == "shape")
      Ok = static_cast<bool>(LS >> Slots >> Children >> ParamCount);
    if (!Ok) {
      loadFail(ErrorOut, "malformed '" + std::string(Expect) + "' line");
      return nullptr;
    }
  }
  P.Bigram = Bigram != 0;
  P.LogitClamp = bitsToFloat(ClampBits);

  // Check the header against the library and the featurizer before
  // building anything: the net's size comes from the file's hidden width.
  const ContextualGrammar Layout(G);
  const int WantSlots = P.Bigram ? Layout.slotCount() : 1;
  if (WantSlots != Slots || Layout.childCount() != Children) {
    loadFail(ErrorOut,
             "shape mismatch: checkpoint has " + std::to_string(Slots) +
                 "x" + std::to_string(Children) + " slots/children, the "
                 "supplied grammar yields " +
                 std::to_string(WantSlots) + "x" +
                 std::to_string(Layout.childCount()) +
                 " (library changed since the model was trained?)");
    return nullptr;
  }
  // Mlp(In, Hidden, Out) holds Hidden·In + Hidden + Hidden² + Hidden +
  // Out·Hidden + Out parameters; in size_t none of these terms overflows.
  const size_t InDim = static_cast<size_t>(F.dimension());
  const size_t Hidden = static_cast<size_t>(P.HiddenDim);
  const size_t OutDim = static_cast<size_t>(Slots) * Children;
  const size_t WantCount =
      Hidden * InDim + Hidden + Hidden * Hidden + Hidden + OutDim * Hidden +
      OutDim;
  if (WantCount != ParamCount) {
    loadFail(ErrorOut, "parameter count mismatch: checkpoint has " +
                           std::to_string(ParamCount) + ", its shape needs " +
                           std::to_string(WantCount));
    return nullptr;
  }

  In >> Tag;
  if (Tag != "params") {
    loadFail(ErrorOut, "missing 'params' section");
    return nullptr;
  }
  // Read the rest of the stream in one bulk copy and scan the block from
  // that buffer, before building the net: a header that claims a huge net
  // costs only the words the stream actually holds.
  std::ostringstream Rest;
  Rest << In.rdbuf();
  const std::string Block = std::move(Rest).str();
  std::string_view Text = Block, Word;
  std::vector<float> Params;
  Params.reserve(std::min(ParamCount, Block.size() / 9));
  while (Params.size() < ParamCount) {
    std::uint32_t Bits = 0;
    if (!nextWord(Text, Word) || Word.size() != 8) {
      loadFail(ErrorOut, "truncated parameter block");
      return nullptr;
    }
    if (!parseHexWord(Word, Bits)) {
      loadFail(ErrorOut,
               "malformed parameter word '" + std::string(Word) + "'");
      return nullptr;
    }
    Params.push_back(bitsToFloat(Bits));
  }
  if (!nextWord(Text, Word) || Word != "end") {
    loadFail(ErrorOut, "parameter block missing 'end'");
    return nullptr;
  }

  nn::Mlp Net(F.dimension(), P.HiddenDim, Slots * Children);
  assert(Net.parameterCount() == ParamCount &&
         "loader and Mlp disagree on the parameter count");
  const float *Next = Params.data();
  for (nn::Mlp::ParamSegment &Seg : Net.parameterSegments()) {
    std::copy(Next, Next + Seg.Size, Seg.Param);
    Next += Seg.Size;
  }
  return std::unique_ptr<RecognitionModel>(
      new RecognitionModel(G, F, P, std::move(Net)));
}
