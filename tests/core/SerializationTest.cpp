//===- tests/core/SerializationTest.cpp - Checkpoint round-trip tests -----===//

#include "core/Serialization.h"

#include "core/Primitives.h"
#include "core/Recognition.h"
#include "core/ProgramParser.h"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <stdlib.h>
#include <sys/resource.h>

using namespace dc;

namespace {

class SerializationTest : public ::testing::Test {
protected:
  void SetUp() override {
    std::vector<ExprPtr> Prims = prims::functionalCore();
    G = Grammar::uniform(Prims);
    G.setLogVariable(-1.25);
    G.productions()[0].LogWeight = 0.5;
    G.addProduction(Expr::invented(parseProgram("(lambda (+ $0 1))")));
  }

  Grammar G;
};

} // namespace

TEST_F(SerializationTest, GrammarRoundTrip) {
  std::stringstream SS;
  serializeGrammar(G, SS);
  std::string Err;
  auto G2 = deserializeGrammar(SS, &Err);
  ASSERT_TRUE(G2.has_value()) << Err;
  ASSERT_EQ(G2->productions().size(), G.productions().size());
  EXPECT_DOUBLE_EQ(G2->logVariable(), G.logVariable());
  for (size_t I = 0; I < G.productions().size(); ++I) {
    EXPECT_EQ(G2->productions()[I].Program, G.productions()[I].Program)
        << "hash-consing must make reparsed programs identical";
    EXPECT_DOUBLE_EQ(G2->productions()[I].LogWeight,
                     G.productions()[I].LogWeight);
  }
  // Inventions survive with their types.
  EXPECT_EQ(G2->inventionCount(), 1);
}

TEST_F(SerializationTest, GrammarRejectsGarbage) {
  std::string Err;
  {
    std::stringstream SS("not a grammar\n");
    EXPECT_FALSE(deserializeGrammar(SS, &Err).has_value());
    EXPECT_FALSE(Err.empty());
  }
  {
    std::stringstream SS("grammar v1\nproduction oops\nend\n");
    EXPECT_FALSE(deserializeGrammar(SS).has_value());
  }
  {
    std::stringstream SS("grammar v1\nlogVariable -1\n"); // no end
    EXPECT_FALSE(deserializeGrammar(SS).has_value());
  }
  {
    std::stringstream SS(
        "grammar v1\nproduction 0.0 (unknown-prim-xyz)\nend\n");
    EXPECT_FALSE(deserializeGrammar(SS).has_value());
  }
}

TEST_F(SerializationTest, FrontierRoundTripByTaskName) {
  TypePtr Req = Type::arrow(tInt(), tInt());
  auto T1 = std::make_shared<Task>("task one", Req, std::vector<Example>{});
  auto T2 = std::make_shared<Task>("task two", Req, std::vector<Example>{});
  std::vector<Frontier> Fs = {Frontier(T1), Frontier(T2)};
  Fs[0].record({parseProgram("(lambda (+ $0 1))"), -3.5, 0.0});
  Fs[0].record({parseProgram("(lambda (+ 1 $0))"), -4.0, 0.0});
  Fs[1].record({parseProgram("(lambda $0)"), -1.0, -0.5});

  std::stringstream SS;
  serializeFrontiers(Fs, SS);

  std::vector<Frontier> Restored = {Frontier(T1), Frontier(T2)};
  std::string Err;
  int N = deserializeFrontiers(Restored, SS, &Err);
  EXPECT_EQ(N, 3) << Err;
  ASSERT_EQ(Restored[0].entries().size(), 2u);
  EXPECT_EQ(Restored[0].best()->Program, Fs[0].best()->Program);
  EXPECT_DOUBLE_EQ(Restored[0].best()->LogPrior, -3.5);
  ASSERT_EQ(Restored[1].entries().size(), 1u);
  EXPECT_DOUBLE_EQ(Restored[1].best()->LogLikelihood, -0.5);
}

TEST_F(SerializationTest, FrontiersForUnknownTasksAreSkipped) {
  TypePtr Req = Type::arrow(tInt(), tInt());
  auto Known = std::make_shared<Task>("known", Req, std::vector<Example>{});
  auto Gone = std::make_shared<Task>("gone", Req, std::vector<Example>{});
  std::vector<Frontier> Fs = {Frontier(Known), Frontier(Gone)};
  Fs[0].record({parseProgram("(lambda $0)"), -1, 0});
  Fs[1].record({parseProgram("(lambda (+ $0 1))"), -2, 0});
  std::stringstream SS;
  serializeFrontiers(Fs, SS);

  std::vector<Frontier> Restored = {Frontier(Known)};
  int N = deserializeFrontiers(Restored, SS);
  EXPECT_EQ(N, 1);
  EXPECT_EQ(Restored[0].entries().size(), 1u);
}

TEST_F(SerializationTest, GoldenGrammarTextIsStable) {
  // The checkpoint format is an interchange format: files written by old
  // builds must keep loading. This pins the exact serialized text, so a
  // formatting change that would orphan existing checkpoints fails here.
  Grammar Golden;
  Golden.setLogVariable(-1.5);
  int I0 = Golden.addProduction(parseProgram("+"));
  Golden.productions()[I0].LogWeight = 0.5;
  int I1 = Golden.addProduction(parseProgram("1"));
  Golden.productions()[I1].LogWeight = -2;
  std::stringstream SS;
  serializeGrammar(Golden, SS);
  EXPECT_EQ(SS.str(), "grammar v1\n"
                      "logVariable -1.5\n"
                      "production 0.5 +\n"
                      "production -2 1\n"
                      "end\n");
}

TEST_F(SerializationTest, GoldenCheckpointTextLoads) {
  // The reverse direction: a checkpoint fixed in the v1 format (as an old
  // build would have written it) must keep deserializing.
  const char *GoldenText = "grammar v1\n"
                           "logVariable -0.25\n"
                           "production 0 #(lambda (+ $0 1))\n"
                           "production -1.5 +\n"
                           "end\n"
                           "frontiers v1\n"
                           "frontier golden task\n"
                           "request int -> int\n"
                           "entry -3.5 0 (lambda (+ $0 1))\n"
                           "entry -4 -0.5 (lambda $0)\n"
                           "end\n";
  std::stringstream SS(GoldenText);
  std::string Err;
  auto G2 = deserializeGrammar(SS, &Err);
  ASSERT_TRUE(G2.has_value()) << Err;
  EXPECT_DOUBLE_EQ(G2->logVariable(), -0.25);
  ASSERT_EQ(G2->productions().size(), 2u);
  EXPECT_EQ(G2->productions()[0].Program,
            Expr::invented(parseProgram("(lambda (+ $0 1))")));
  EXPECT_DOUBLE_EQ(G2->productions()[1].LogWeight, -1.5);

  TypePtr Req = Type::arrow(tInt(), tInt());
  auto T =
      std::make_shared<Task>("golden task", Req, std::vector<Example>{});
  std::vector<Frontier> Fs = {Frontier(T)};
  int N = deserializeFrontiers(Fs, SS, &Err);
  EXPECT_EQ(N, 2) << Err;
  ASSERT_EQ(Fs[0].entries().size(), 2u);
  EXPECT_EQ(Fs[0].best()->Program, parseProgram("(lambda (+ $0 1))"));
  EXPECT_DOUBLE_EQ(Fs[0].best()->LogPrior, -3.5);
}

TEST_F(SerializationTest, FrontierEntriesWithUnknownPrimitivesAreSkipped) {
  // A library shrink between save and load must not poison the whole
  // checkpoint: the unparseable entry is dropped, its neighbors survive.
  const char *Text = "frontiers v1\n"
                     "frontier mixed\n"
                     "entry -1 0 (lambda (vanished-prim $0))\n"
                     "entry -2 0 (lambda (+ $0 1))\n"
                     "end\n";
  TypePtr Req = Type::arrow(tInt(), tInt());
  auto T = std::make_shared<Task>("mixed", Req, std::vector<Example>{});
  std::vector<Frontier> Fs = {Frontier(T)};
  std::stringstream SS(Text);
  std::string Err;
  int N = deserializeFrontiers(Fs, SS, &Err);
  EXPECT_EQ(N, 1) << Err;
  ASSERT_EQ(Fs[0].entries().size(), 1u);
  EXPECT_EQ(Fs[0].best()->Program, parseProgram("(lambda (+ $0 1))"));
}

TEST_F(SerializationTest, FileCheckpointRoundTrip) {
  TypePtr Req = Type::arrow(tInt(), tInt());
  auto T = std::make_shared<Task>("ckpt-task", Req, std::vector<Example>{});
  std::vector<Frontier> Fs = {Frontier(T)};
  Fs[0].record({parseProgram("(lambda (+ $0 1))"), -3.0, 0.0});

  std::string Path = testing::TempDir() + "/dc_checkpoint_test.txt";
  ASSERT_TRUE(saveCheckpoint(Path, G, Fs));

  Grammar G2;
  std::vector<Frontier> Fs2 = {Frontier(T)};
  std::string Err;
  ASSERT_TRUE(loadCheckpoint(Path, G2, Fs2, &Err)) << Err;
  EXPECT_EQ(G2.productions().size(), G.productions().size());
  ASSERT_FALSE(Fs2[0].empty());
  EXPECT_EQ(Fs2[0].best()->Program, Fs[0].best()->Program);
  std::remove(Path.c_str());
}

using SerializationDeathTest = SerializationTest;

TEST_F(SerializationDeathTest, FailedCheckpointWriteKeepsTheOldFile) {
  // A checkpoint write that fails part-way must report failure and leave
  // the previous file whole: dc_serve may reload it at any moment. The
  // child process may write at most 1 KB per file, so saving a larger
  // checkpoint fails (EFBIG once SIGXFSZ is ignored).
  std::string Dir = testing::TempDir() + "/dc_ckpt_atomic_XXXXXX";
  ASSERT_NE(mkdtemp(Dir.data()), nullptr);
  const std::string Path = Dir + "/library.ckpt";
  ASSERT_TRUE(saveCheckpoint(Path, G, {}));
  auto ReadAll = [](const std::string &P) {
    std::ifstream In(P);
    std::stringstream SS;
    SS << In.rdbuf();
    return SS.str();
  };
  const std::string Old = ReadAll(Path);
  ASSERT_FALSE(Old.empty());

  std::vector<Frontier> Big;
  for (int I = 0; I < 100; ++I) {
    auto T = std::make_shared<Task>("task-" + std::to_string(I),
                                    Type::arrow(tInt(), tInt()),
                                    std::vector<Example>{});
    Big.emplace_back(T);
    Big.back().record({parseProgram("(lambda (+ $0 1))"), -3.0, 0.0});
  }
  std::ostringstream BigText;
  serializeFrontiers(Big, BigText);
  ASSERT_GT(BigText.str().size(), 2048u);

  auto SaveUnderLimit = [&] {
    std::signal(SIGXFSZ, SIG_IGN);
    rlimit Limit;
    Limit.rlim_cur = Limit.rlim_max = 1024;
    setrlimit(RLIMIT_FSIZE, &Limit);
    std::_Exit(saveCheckpoint(Path, G, Big) ? 1 : 0);
  };
  EXPECT_EXIT(SaveUnderLimit(), testing::ExitedWithCode(0), "");

  EXPECT_EQ(ReadAll(Path), Old) << "the old checkpoint must stay intact";
  std::vector<std::string> Left;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    Left.push_back(Entry.path().filename().string());
  EXPECT_EQ(Left, std::vector<std::string>{"library.ckpt"})
      << "no temporary file may remain";
  std::filesystem::remove_all(Dir);
}

TEST_F(SerializationTest, LoadRejectsMissingFile) {
  Grammar G2;
  std::vector<Frontier> Fs;
  std::string Err;
  EXPECT_FALSE(loadCheckpoint("/nonexistent/path/ckpt", G2, Fs, &Err));
  EXPECT_FALSE(Err.empty());
}

//===----------------------------------------------------------------------===//
// Recognition model round-trip (the dc_serve --model load path)
//===----------------------------------------------------------------------===//

TEST_F(SerializationTest, RecognitionModelRoundTrip) {
  // Train a small model, save it, load it against the same grammar and
  // featurizer, and require bit-exact restoration: identical parameter
  // fingerprint and bit-identical predict() grammars. Anything weaker
  // would make served answers depend on whether the model came from
  // training or from a checkpoint.
  Grammar Base = Grammar::uniform(prims::functionalCore());
  IoFeaturizer Featurizer;
  RecognitionParams RP;
  RP.HiddenDim = 16;
  RP.TrainingSteps = 120;
  RP.Seed = 3;
  RecognitionModel Model(Base, Featurizer, RP);

  std::vector<Example> Ex;
  for (long X : {1, 2, 3, 5, 8})
    Ex.push_back({{Value::makeInt(X)}, Value::makeInt(X + 1)});
  auto T = std::make_shared<Task>("inc", Type::arrow(tInt(), tInt()), Ex);
  Model.trainOnPairs({{T, parseProgram("(lambda (+ $0 1))"), -3.0}});

  std::stringstream SS;
  saveRecognitionModel(Model, SS);
  std::string Err;
  std::unique_ptr<RecognitionModel> Loaded =
      loadRecognitionModel(Base, Featurizer, SS, &Err);
  ASSERT_TRUE(Loaded) << Err;

  EXPECT_EQ(Loaded->weightFingerprint(), Model.weightFingerprint());
  EXPECT_EQ(Loaded->slotCount(), Model.slotCount());
  EXPECT_EQ(Loaded->childCount(), Model.childCount());

  ContextualGrammar Want = Model.predict(*T);
  ContextualGrammar Got = Loaded->predict(*T);
  ASSERT_EQ(Got.slotCount(), Want.slotCount());
  ASSERT_EQ(Got.childCount(), Want.childCount());
  for (int S = 0; S < Want.slotCount(); ++S)
    for (int C = 0; C < Want.childCount(); ++C)
      EXPECT_EQ(Want.row(S)[C], Got.row(S)[C]); // bit-identical
}

TEST_F(SerializationTest, RecognitionModelRejectsShapeMismatch) {
  Grammar Base = Grammar::uniform(prims::functionalCore());
  IoFeaturizer Featurizer;
  RecognitionParams RP;
  RP.HiddenDim = 16;
  RP.TrainingSteps = 10;
  RecognitionModel Model(Base, Featurizer, RP);

  std::stringstream SS;
  saveRecognitionModel(Model, SS);

  // A grammar with a different production count cannot host the saved
  // net: the output head's width no longer matches.
  Grammar Smaller = Grammar::uniform(
      {prims::functionalCore()[0], prims::functionalCore()[1]});
  std::string Err;
  EXPECT_EQ(loadRecognitionModel(Smaller, Featurizer, SS, &Err), nullptr);
  EXPECT_FALSE(Err.empty());
}

TEST_F(SerializationTest, RecognitionModelHeaderIsCheckedBeforeBuilding) {
  // The net's size comes from the file's hidden width, so the loader
  // checks the header and reads the parameter block before it builds a
  // net. A header claiming hidden 46341 (whose Hidden² overflows int)
  // with a consistent parameter count but a three-word block must be
  // rejected as truncated, without building that net.
  Grammar Base = Grammar::uniform(prims::functionalCore());
  IoFeaturizer Featurizer;
  RecognitionParams RP;
  RP.HiddenDim = 16;
  RecognitionModel Model(Base, Featurizer, RP);
  std::stringstream SS;
  saveRecognitionModel(Model, SS);
  std::string Header = SS.str().substr(0, SS.str().find("shape "));
  Header.replace(Header.find("hidden 16"), 9, "hidden 46341");
  const size_t In = static_cast<size_t>(Featurizer.dimension());
  const size_t H = 46341;
  const size_t Out = static_cast<size_t>(Model.slotCount()) *
                     static_cast<size_t>(Model.childCount());
  const size_t Count = H * In + H + H * H + H + Out * H + Out;
  auto LoadError = [&](size_t ClaimedCount) {
    std::istringstream In(Header + "shape " +
                          std::to_string(Model.slotCount()) + " " +
                          std::to_string(Model.childCount()) + " " +
                          std::to_string(ClaimedCount) +
                          "\nparams\n00000000 00000000 00000000\nend\n");
    std::string Err;
    if (loadRecognitionModel(Base, Featurizer, In, &Err))
      return std::string("loaded");
    return Err;
  };
  EXPECT_NE(LoadError(Count).find("truncated parameter block"),
            std::string::npos)
      << LoadError(Count);
  EXPECT_NE(LoadError(Model.net().parameterCount()).find(
                "parameter count mismatch"),
            std::string::npos);
}

TEST_F(SerializationTest, RecognitionModelRejectsGarbage) {
  Grammar Base = Grammar::uniform(prims::functionalCore());
  IoFeaturizer Featurizer;
  std::istringstream Bad("recognition v1\nhidden nope\n");
  std::string Err;
  EXPECT_EQ(loadRecognitionModel(Base, Featurizer, Bad, &Err), nullptr);
  EXPECT_FALSE(Err.empty());
}

TEST_F(SerializationTest, RecognitionModelRejectsMalformedWords) {
  // Every parameter is exactly eight hex digits: a sign or a 0x prefix
  // must not slip through as a different (or NaN) weight.
  Grammar Base = Grammar::uniform(prims::functionalCore());
  IoFeaturizer Featurizer;
  RecognitionParams RP;
  RP.HiddenDim = 16;
  std::stringstream SS;
  saveRecognitionModel(RecognitionModel(Base, Featurizer, RP), SS);
  const std::string Text = SS.str();
  const size_t First = Text.find("params\n") + 7; // the first word
  auto LoadError = [&](const std::string &Corrupt) {
    std::istringstream In(Corrupt);
    std::string Err;
    if (loadRecognitionModel(Base, Featurizer, In, &Err))
      return std::string("loaded");
    return Err;
  };
  ASSERT_EQ(LoadError(Text), "loaded");

  for (const char *Word : {"-0000001", "+3e7cbc0", "0x3e7cbc"}) {
    std::string Bad = Text;
    Bad.replace(First, 8, Word);
    EXPECT_EQ(LoadError(Bad),
              std::string("recognition model: malformed parameter word '") +
                  Word + "'");
  }
  std::string Short = Text;
  Short.replace(First, 8, "3e7cbc0");
  EXPECT_EQ(LoadError(Short), "recognition model: truncated parameter block");
  EXPECT_EQ(LoadError(Text.substr(0, Text.rfind(' '))),
            "recognition model: truncated parameter block");
  EXPECT_EQ(LoadError(Text.substr(0, Text.rfind("end"))),
            "recognition model: parameter block missing 'end'");

  // The logitClamp word follows the same rule (a non-hex one used to
  // throw out of the loader).
  const size_t Clamp = Text.find("logitClamp ") + 11;
  for (const char *Word : {"zzzzzzzz", "-0000001"}) {
    std::string Bad = Text;
    Bad.replace(Clamp, 8, Word);
    EXPECT_EQ(LoadError(Bad), "recognition model: malformed 'logitClamp' line");
  }
}
