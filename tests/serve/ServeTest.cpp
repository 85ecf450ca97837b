//===- tests/serve/ServeTest.cpp - Synthesis service unit tests -----------===//
//
// Covers the dc_serve stack bottom-up: the JSON codec, the protocol
// bridges (type strings, typed JSON<->Value), the bounded admission
// queue, the Service search semantics (deadlines, budgets, concurrent
// determinism), and an in-process end-to-end Server exercise over real
// sockets (also the TSan entry point for the serve threading model).
//
//===----------------------------------------------------------------------===//

#include "core/Primitives.h"
#include "core/Serialization.h"
#include "domains/ListDomain.h"
#include "serve/Json.h"
#include "serve/Protocol.h"
#include "serve/RequestQueue.h"
#include "serve/Server.h"
#include "serve/Service.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <fstream>
#include <initializer_list>
#include <thread>

using namespace dc;
using namespace dc::serve;

namespace {

/// The member of \p J at \p Path, a chain of object keys. A missing step
/// fails the current test and yields null, whose accessors read as 0,
/// false, "" and no items: an answer of an unexpected shape fails
/// assertions instead of crashing the test binary.
const Json &at(const Json &J, std::initializer_list<std::string_view> Path) {
  static const Json Null;
  const Json *Cur = &J;
  for (std::string_view Key : Path) {
    Cur = Cur->find(Key);
    if (!Cur) {
      ADD_FAILURE() << "no \"" << Key << "\" in " << J.dump();
      return Null;
    }
  }
  return *Cur;
}

} // namespace

//===----------------------------------------------------------------------===//
// Json
//===----------------------------------------------------------------------===//

TEST(ServeJsonTest, ParseDumpRoundTrip) {
  const std::string Text =
      R"({"id":7,"method":"solve","params":{"xs":[1,-2,3.5,true,false,null],"s":"a\nb\"c"}})";
  std::string Err;
  std::optional<Json> J = Json::parse(Text, &Err);
  ASSERT_TRUE(J) << Err;
  // dump() re-parses to the same dump (canonical fixed point).
  std::optional<Json> J2 = Json::parse(J->dump());
  ASSERT_TRUE(J2);
  EXPECT_EQ(J->dump(), J2->dump());
  EXPECT_EQ(at(*J, {"id"}).asInteger(), 7);
  ASSERT_EQ(at(*J, {"params", "xs"}).items().size(), 6u);
  EXPECT_TRUE(at(*J, {"params", "xs"}).items()[3].asBool());
  EXPECT_EQ(at(*J, {"params", "s"}).asString(), "a\nb\"c");
}

TEST(ServeJsonTest, IntegersStayExact) {
  std::optional<Json> J = Json::parse("[9007199254740993,2.5,-0]");
  ASSERT_TRUE(J);
  EXPECT_TRUE(J->items()[0].isInteger());
  EXPECT_EQ(J->items()[0].asInteger(), 9007199254740993LL); // > 2^53
  EXPECT_FALSE(J->items()[1].isInteger());
  EXPECT_EQ(J->dump(), "[9007199254740993,2.5,0]");
}

TEST(ServeJsonTest, ErrorsCarryOffsets) {
  std::string Err;
  EXPECT_FALSE(Json::parse("{\"a\":}", &Err));
  EXPECT_NE(Err.find("offset"), std::string::npos);
  Err.clear();
  EXPECT_FALSE(Json::parse("[1,2] trailing", &Err));
  EXPECT_NE(Err.find("trailing"), std::string::npos);
  Err.clear();
  EXPECT_FALSE(Json::parse("\"unterminated", &Err));
  EXPECT_FALSE(Err.empty());
}

TEST(ServeJsonTest, DepthLimitIsEnforced) {
  std::string Deep(Json::MaxDepth + 8, '[');
  std::string Err;
  EXPECT_FALSE(Json::parse(Deep, &Err));
  EXPECT_NE(Err.find("deep"), std::string::npos);
  // One level below the cap parses fine.
  std::string Ok;
  for (int I = 0; I < Json::MaxDepth - 1; ++I)
    Ok += "[";
  Ok += "1";
  for (int I = 0; I < Json::MaxDepth - 1; ++I)
    Ok += "]";
  EXPECT_TRUE(Json::parse(Ok));
}

TEST(ServeJsonTest, UnicodeEscapesDecodeToUtf8) {
  std::optional<Json> J = Json::parse(R"("é😀")");
  ASSERT_TRUE(J);
  EXPECT_EQ(J->asString(), "\xc3\xa9\xf0\x9f\x98\x80"); // é + 😀
}

//===----------------------------------------------------------------------===//
// Protocol: type strings
//===----------------------------------------------------------------------===//

TEST(ServeProtocolTest, TypeStringsRoundTripThroughShow) {
  for (const char *Src :
       {"int", "list(int)", "int -> int", "int -> list(int) -> bool",
        "(int -> int) -> list(int) -> list(int)", "list(list(char))",
        "list(t0) -> list(t0)"}) {
    std::string Err;
    TypePtr T = parseTypeString(Src, &Err);
    ASSERT_TRUE(T) << Src << ": " << Err;
    EXPECT_EQ(T->show(), Src);
  }
}

TEST(ServeProtocolTest, TypeStringErrors) {
  for (const char *Bad : {"", "->", "int ->", "(int", "list(", "list(int"}) {
    std::string Err;
    EXPECT_EQ(parseTypeString(Bad, &Err), nullptr) << Bad;
    EXPECT_FALSE(Err.empty()) << Bad;
  }
}

//===----------------------------------------------------------------------===//
// Protocol: typed JSON <-> Value
//===----------------------------------------------------------------------===//

TEST(ServeProtocolTest, JsonToValueFollowsTheType) {
  ValuePtr V = jsonToValue(*Json::parse("[1,2,3]"), tList(tInt()));
  ASSERT_TRUE(V);
  ASSERT_EQ(V->asList().size(), 3u);
  EXPECT_EQ(V->asList()[1]->asInt(), 2);

  // The same number becomes an int or a real depending on the type.
  EXPECT_TRUE(jsonToValue(*Json::parse("3"), tInt())->isInt());
  EXPECT_TRUE(jsonToValue(*Json::parse("3"), tReal())->isReal());
  // ...but a fractional number cannot be an int.
  std::string Err;
  EXPECT_EQ(jsonToValue(*Json::parse("3.5"), tInt(), &Err), nullptr);
  EXPECT_FALSE(Err.empty());

  // Strings become char lists; chars need exactly one character.
  ValuePtr S = jsonToValue(*Json::parse("\"hi\""), tString());
  ASSERT_TRUE(S);
  EXPECT_EQ(*Value::toString(S), "hi");
  EXPECT_EQ(jsonToValue(*Json::parse("\"hi\""), tChar()), nullptr);
  EXPECT_EQ(jsonToValue(*Json::parse("\"h\""), tChar())->asChar(), 'h');

  // Polymorphic types have no data representation.
  EXPECT_EQ(jsonToValue(*Json::parse("1"), t0()), nullptr);
}

TEST(ServeProtocolTest, ValueToJsonRendering) {
  EXPECT_EQ(valueToJson(Value::makeInt(-4)).dump(), "-4");
  EXPECT_EQ(valueToJson(Value::makeBool(true)).dump(), "true");
  EXPECT_EQ(valueToJson(Value::makeChar('x')).dump(), "\"x\"");
  EXPECT_EQ(valueToJson(Value::makeString("abc")).dump(), "\"abc\"");
  EXPECT_EQ(valueToJson(Value::makeList({Value::makeInt(1),
                                         Value::makeInt(2)}))
                .dump(),
            "[1,2]");
}

//===----------------------------------------------------------------------===//
// Protocol: envelopes
//===----------------------------------------------------------------------===//

TEST(ServeProtocolTest, RequestEnvelopeParses) {
  auto R = parseRequestLine(
      R"({"id":"a1","method":"solve","params":{"task":"t"}})");
  ASSERT_TRUE(R);
  EXPECT_EQ(R->Id.asString(), "a1");
  EXPECT_EQ(R->Method, "solve");
  EXPECT_EQ(at(R->Params, {"task"}).asString(), "t");

  std::string Err;
  EXPECT_FALSE(parseRequestLine(R"({"id":1})", &Err));
  EXPECT_NE(Err.find("method"), std::string::npos);
}

TEST(ServeProtocolTest, SolveParamsInlineTask) {
  auto P = Json::parse(
      R"json({"name":"idy","request":"list(int) -> list(int)",
          "examples":[{"inputs":[[1,2]],"output":[1,2]}],
          "timeout_ms":250,"node_budget":1000})json");
  ASSERT_TRUE(P);
  std::string Err;
  auto SP = parseSolveParams(*P, &Err);
  ASSERT_TRUE(SP) << Err;
  ASSERT_TRUE(SP->InlineTask);
  EXPECT_EQ(SP->InlineTask->name(), "idy");
  EXPECT_EQ(SP->InlineTask->request()->show(), "list(int) -> list(int)");
  EXPECT_EQ(SP->TimeoutMs, 250);
  EXPECT_EQ(SP->NodeBudget, 1000);
  // The built task scores programs: identity solves it.
  EXPECT_EQ(SP->InlineTask->examples().size(), 1u);
}

TEST(ServeProtocolTest, SolveParamsRejectsArityMismatch) {
  auto P = Json::parse(
      R"({"request":"int -> int -> int",
          "examples":[{"inputs":[1],"output":2}]})");
  ASSERT_TRUE(P);
  std::string Err;
  EXPECT_FALSE(parseSolveParams(*P, &Err));
  EXPECT_NE(Err.find("inputs"), std::string::npos);
}

TEST(ServeProtocolTest, ResponseBuilders) {
  Json Ok = makeOkResponse(Json::integer(3), Json::string("r"));
  EXPECT_EQ(Ok.dump(), R"({"id":3,"ok":true,"result":"r"})");
  Json Bad = makeErrorResponse(Json::null(), errc::Overloaded, "full");
  EXPECT_EQ(
      Bad.dump(),
      R"({"id":null,"ok":false,"error":{"code":"overloaded","message":"full"}})");
}

//===----------------------------------------------------------------------===//
// BoundedQueue
//===----------------------------------------------------------------------===//

TEST(ServeQueueTest, CapacityBoundsAdmission) {
  BoundedQueue<int> Q(2);
  EXPECT_EQ(Q.tryPush(1), PushResult::Ok);
  EXPECT_EQ(Q.tryPush(2), PushResult::Ok);
  EXPECT_EQ(Q.tryPush(3), PushResult::Full); // the `overloaded` signal
  EXPECT_EQ(Q.depth(), 2u);
  EXPECT_EQ(*Q.pop(), 1);
  EXPECT_EQ(Q.tryPush(3), PushResult::Ok); // space again
}

TEST(ServeQueueTest, CloseStopsAdmissionButDrains) {
  BoundedQueue<int> Q(4);
  ASSERT_EQ(Q.tryPush(1), PushResult::Ok);
  ASSERT_EQ(Q.tryPush(2), PushResult::Ok);
  Q.close();
  // Closed, not Full: the reason is decided under the queue lock, so
  // the server's `shutting_down` vs `overloaded` answer cannot race
  // with a concurrent close().
  EXPECT_EQ(Q.tryPush(3), PushResult::Closed);
  EXPECT_TRUE(Q.closed());
  EXPECT_EQ(*Q.pop(), 1); // admitted work is never dropped
  EXPECT_EQ(*Q.pop(), 2);
  EXPECT_FALSE(Q.pop().has_value()); // worker exit signal
}

TEST(ServeQueueTest, FullAndClosedAreDistinguishedUnderConcurrentClose) {
  // A producer hammering a full queue while another thread closes it
  // must see Full strictly before Closed — never Full again after the
  // first Closed, and never a Closed that a follow-up closed() probe
  // would contradict. (With the old bool API both cases collapsed to
  // `false` and the server's separate closed() check raced.)
  BoundedQueue<int> Q(1);
  ASSERT_EQ(Q.tryPush(0), PushResult::Ok); // keep it full
  std::atomic<bool> SawClosed{false};
  std::atomic<bool> Violation{false};
  std::thread Producer([&] {
    while (!SawClosed.load()) {
      PushResult R = Q.tryPush(1);
      if (R == PushResult::Ok)
        Violation.store(true); // queue stays full, nothing pops
      if (R == PushResult::Closed)
        SawClosed.store(true); // close() is guaranteed to arrive
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  Q.close();
  Producer.join();
  EXPECT_TRUE(SawClosed.load());
  EXPECT_FALSE(Violation.load());
  EXPECT_EQ(Q.tryPush(1), PushResult::Closed);
}

TEST(ServeQueueTest, ConcurrentProducersAndConsumers) {
  // 4 producers × 250 items through a tiny queue, drained by 3 consumers:
  // the consumed multiset must be exactly the produced one. Runs under
  // TSan in CI (the Serve suite is in the TSan job's regex).
  BoundedQueue<int> Q(8);
  constexpr int Producers = 4, PerProducer = 250;
  std::atomic<long> Sum{0};
  std::atomic<int> Count{0};

  std::vector<std::thread> Consumers;
  for (int I = 0; I < 3; ++I)
    Consumers.emplace_back([&] {
      while (std::optional<int> V = Q.pop()) {
        Sum.fetch_add(*V, std::memory_order_relaxed);
        Count.fetch_add(1, std::memory_order_relaxed);
      }
    });
  std::vector<std::thread> Prods;
  for (int P = 0; P < Producers; ++P)
    Prods.emplace_back([&Q, P] {
      for (int I = 0; I < PerProducer; ++I) {
        int V = P * PerProducer + I;
        while (Q.tryPush(V) != PushResult::Ok) // spin like a retrying client
          std::this_thread::yield();
      }
    });
  for (std::thread &T : Prods)
    T.join();
  Q.close();
  for (std::thread &T : Consumers)
    T.join();

  const long N = Producers * PerProducer;
  EXPECT_EQ(Count.load(), N);
  EXPECT_EQ(Sum.load(), N * (N - 1) / 2);
}

//===----------------------------------------------------------------------===//
// Service
//===----------------------------------------------------------------------===//

namespace {

TaskPtr identityTask() {
  std::vector<Example> Ex = {
      {{Value::makeList({Value::makeInt(1), Value::makeInt(2)})},
       Value::makeList({Value::makeInt(1), Value::makeInt(2)})},
      {{Value::makeList({Value::makeInt(7)})},
       Value::makeList({Value::makeInt(7)})},
  };
  return std::make_shared<Task>(
      "identity", Type::arrow(tList(tInt()), tList(tInt())), Ex);
}

TaskPtr unsolvableTask() {
  // The same input maps to two different outputs: no program satisfies
  // both examples, so only budgets or deadlines end the search.
  std::vector<Example> Ex = {
      {{Value::makeInt(1)}, Value::makeInt(2)},
      {{Value::makeInt(1)}, Value::makeInt(3)},
  };
  return std::make_shared<Task>("unsolvable", Type::arrow(tInt(), tInt()),
                                Ex);
}

/// A list-domain service with a 50000-node default budget. It serves
/// \p CheckpointPath's grammar (the uniform base grammar when empty) and
/// \p ModelPath's recognition model (none when empty).
std::unique_ptr<Service> makeListService(const std::string &ModelPath = "",
                                         const std::string &CheckpointPath = "") {
  ServiceConfig C;
  C.DomainName = "list";
  C.DefaultNodeBudget = 50000;
  C.ModelPath = ModelPath;
  C.CheckpointPath = CheckpointPath;
  std::string Err;
  std::unique_ptr<Service> S = Service::create(C, &Err);
  EXPECT_TRUE(S) << Err;
  return S;
}

/// Saves a fresh recognition model matched to \p G, by default the list
/// domain's uniform base grammar (deterministic seeded-glorot weights;
/// training is not needed for identity tests — only that every server
/// loading this file predicts identically).
std::string writeListModel(
    const std::string &FileName,
    const Grammar &G = Grammar::uniform(makeListDomain(1).BasePrimitives)) {
  DomainSpec D = makeListDomain(1);
  RecognitionParams RP;
  RP.HiddenDim = 16;
  RecognitionModel Model(G, *D.Featurizer, RP);
  std::string Path = testing::TempDir() + "/" + FileName;
  std::ofstream Out(Path);
  saveRecognitionModel(Model, Out);
  return Path;
}

std::string beamSignature(const Frontier &F) {
  std::string Sig;
  for (const FrontierEntry &E : F.entries()) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "|%.17g", E.LogPrior);
    Sig += E.Program->show() + Buf;
  }
  return Sig;
}

} // namespace

TEST(ServeServiceTest, UnknownDomainFails) {
  ServiceConfig C;
  C.DomainName = "no-such-domain";
  std::string Err;
  EXPECT_EQ(Service::create(C, &Err), nullptr);
  EXPECT_NE(Err.find("no-such-domain"), std::string::npos);
}

TEST(ServeServiceTest, MissingCheckpointFails) {
  ServiceConfig C;
  C.DomainName = "list";
  C.CheckpointPath = "/nonexistent/lib.ckpt";
  std::string Err;
  EXPECT_EQ(Service::create(C, &Err), nullptr);
  EXPECT_FALSE(Err.empty());
}

TEST(ServeServiceTest, ErrorBufferIsOverwrittenAcrossFailures) {
  // Regression: fail() used to write *ErrorOut only when it was empty,
  // so a caller reusing an error buffer across two create() attempts
  // saw the FIRST failure's message after the SECOND failure.
  std::string Err;
  ServiceConfig C1;
  C1.DomainName = "first-bogus-domain";
  EXPECT_EQ(Service::create(C1, &Err), nullptr);
  EXPECT_NE(Err.find("first-bogus-domain"), std::string::npos);

  ServiceConfig C2;
  C2.DomainName = "second-bogus-domain";
  EXPECT_EQ(Service::create(C2, &Err), nullptr); // same, non-cleared Err
  EXPECT_NE(Err.find("second-bogus-domain"), std::string::npos)
      << "stale error from the first failure: " << Err;
}

TEST(ServeServiceTest, SeedlessDomainsRejectNonzeroSeed) {
  // logo and tower have fixed ground-truth corpora: their generators
  // ignore the seed, so `--seed 9` used to silently serve a corpus that
  // didn't match what the operator asked for.
  for (const char *Domain : {"logo", "tower"}) {
    ServiceConfig C;
    C.DomainName = Domain;
    C.DomainSeed = 9;
    std::string Err;
    EXPECT_EQ(Service::create(C, &Err), nullptr) << Domain;
    EXPECT_NE(Err.find("seed"), std::string::npos) << Domain << ": " << Err;
    EXPECT_NE(Err.find(Domain), std::string::npos) << Err;

    // Seed 0 ("use the domain default") still loads.
    C.DomainSeed = 0;
    std::unique_ptr<Service> S = Service::create(C, &Err);
    EXPECT_TRUE(S) << Domain << ": " << Err;
  }
}

TEST(ServeServiceTest, TaskIndexRejectsDuplicateNames) {
  DomainSpec D;
  D.Name = "synthetic";
  std::vector<Example> Ex = {{{Value::makeInt(1)}, Value::makeInt(1)}};
  TypePtr Req = Type::arrow(tInt(), tInt());
  D.TrainTasks.push_back(std::make_shared<Task>("dup", Req, Ex));
  D.TestTasks.push_back(std::make_shared<Task>("dup", Req, Ex));

  std::unordered_map<std::string, TaskPtr> Index;
  std::string Err;
  EXPECT_FALSE(detail::buildTaskIndex(D, Index, &Err));
  EXPECT_NE(Err.find("dup"), std::string::npos);

  // Distinct names index fine, train looked up before test by name.
  D.TestTasks[0] = std::make_shared<Task>("other", Req, Ex);
  Err.clear();
  ASSERT_TRUE(detail::buildTaskIndex(D, Index, &Err)) << Err;
  EXPECT_EQ(Index.size(), 2u);
  EXPECT_EQ(Index.at("dup"), D.TrainTasks[0]);
  EXPECT_EQ(Index.at("other"), D.TestTasks[0]);
}

TEST(ServeServiceTest, SolvesIdentityInline) {
  std::unique_ptr<Service> S = makeListService();
  ASSERT_TRUE(S);
  Outcome O = S->solve(identityTask(), /*RemainingSeconds=*/60.0,
                       /*NodeBudget=*/0, /*FrontierSize=*/0);
  EXPECT_EQ(O.TheStatus, Outcome::Status::Solved);
  EXPECT_FALSE(O.DeadlineExpired);
  ASSERT_FALSE(O.Beam.empty());
  EXPECT_EQ(O.Beam.best()->Program->show(), "(lambda $0)");
  EXPECT_GT(O.NodesExpanded, 0);
}

TEST(ServeServiceTest, ExpiredDeadlineShortCircuits) {
  std::unique_ptr<Service> S = makeListService();
  ASSERT_TRUE(S);
  Outcome O = S->solve(identityTask(), /*RemainingSeconds=*/-1.0, 0, 0);
  EXPECT_EQ(O.TheStatus, Outcome::Status::Timeout);
  EXPECT_TRUE(O.DeadlineExpired);
  EXPECT_EQ(O.NodesExpanded, 0); // never searched
}

TEST(ServeServiceTest, DeadlineDuringSearchReportsTimeout) {
  std::unique_ptr<Service> S = makeListService();
  ASSERT_TRUE(S);
  Outcome O = S->solve(unsolvableTask(), /*RemainingSeconds=*/0.05,
                       /*NodeBudget=*/100000000, 0);
  EXPECT_EQ(O.TheStatus, Outcome::Status::Timeout);
  EXPECT_TRUE(O.DeadlineExpired);
  EXPECT_TRUE(O.Beam.empty());
}

TEST(ServeServiceTest, NodeBudgetIsClampedToConfiguredMax) {
  ServiceConfig C;
  C.DomainName = "list";
  C.MaxNodeBudget = 20000;
  std::string Err;
  std::unique_ptr<Service> S = Service::create(C, &Err);
  ASSERT_TRUE(S) << Err;
  Outcome O = S->solve(unsolvableTask(), 60.0,
                       /*NodeBudget=*/100000000, 0);
  EXPECT_EQ(O.TheStatus, Outcome::Status::NoSolution);
  EXPECT_LE(O.NodesExpanded, 20000 + 1024); // slack: batch granularity
}

TEST(ServeServiceTest, CorpusLookupFindsTrainTasks) {
  std::unique_ptr<Service> S = makeListService();
  ASSERT_TRUE(S);
  ASSERT_FALSE(S->domain().TrainTasks.empty());
  const std::string &Name = S->domain().TrainTasks.front()->name();
  EXPECT_EQ(S->taskByName(Name), S->domain().TrainTasks.front());
  EXPECT_EQ(S->taskByName("no such task"), nullptr);
}

TEST(ServeServiceTest, ConcurrentSolvesAreDeterministic) {
  // The acceptance bar: N threads solving the same request against one
  // shared Service get bit-identical beams. Runs under TSan in CI.
  std::unique_ptr<Service> S = makeListService();
  ASSERT_TRUE(S);
  constexpr int N = 4;
  std::vector<std::string> Sigs(N);
  std::vector<std::thread> Threads;
  for (int I = 0; I < N; ++I)
    Threads.emplace_back([&, I] {
      Outcome O = S->solve(identityTask(), 60.0, 50000, 0);
      Sigs[I] = O.TheStatus == Outcome::Status::Solved
                    ? beamSignature(O.Beam)
                    : "unsolved";
    });
  for (std::thread &T : Threads)
    T.join();
  for (int I = 1; I < N; ++I)
    EXPECT_EQ(Sigs[I], Sigs[0]) << "thread " << I;
  EXPECT_NE(Sigs[0], "unsolved");
}

TEST(ServeServiceTest, GuidedSolveIsBitIdenticalToUnguided) {
  // A caller that predicts the guide itself (to time prediction and
  // search apart) and hands it to solve() must get the exact beam the
  // internal predict() path produces.
  std::string ModelPath = writeListModel("guided_solve.model");
  std::unique_ptr<Service> S = makeListService(ModelPath);
  ASSERT_TRUE(S);
  ASSERT_TRUE(S->hasRecognitionModel());

  TaskPtr T = identityTask();
  ContextualGrammar Guide = S->recognitionModel()->predict(*T);

  Outcome Unguided = S->solve(T, 60.0, 0, 0);
  Outcome Guided = S->solve(T, 60.0, 0, 0, &Guide);
  ASSERT_EQ(Unguided.TheStatus, Outcome::Status::Solved);
  ASSERT_EQ(Guided.TheStatus, Outcome::Status::Solved);
  EXPECT_EQ(beamSignature(Guided.Beam), beamSignature(Unguided.Beam));
  EXPECT_EQ(Guided.NodesExpanded, Unguided.NodesExpanded);
}

//===----------------------------------------------------------------------===//
// ServiceRegistry
//===----------------------------------------------------------------------===//

namespace {

/// Writes a checkpoint whose grammar is the list domain's base library
/// with shifted weights: same support as the default uniform grammar,
/// different log-priors for every program — a detectable "new library
/// generation" for reload tests.
std::string writeShiftedListCheckpoint(const std::string &FileName) {
  DomainSpec D = makeListDomain(1);
  Grammar G = Grammar::uniform(D.BasePrimitives);
  G.setLogVariable(-2.5); // default is -1.0: every $0 reference rescores
  for (size_t I = 0; I < G.productions().size(); ++I)
    G.productions()[I].LogWeight = -0.1 * static_cast<double>(I % 7);
  std::string Path = testing::TempDir() + "/" + FileName;
  std::ofstream Out(Path);
  serializeGrammar(G, Out);
  return Path;
}

} // namespace

TEST(ServeRegistryTest, InstallLookupAndEpochNumbers) {
  ServiceRegistry Reg;
  EXPECT_EQ(Reg.defaultService(), nullptr);
  EXPECT_EQ(Reg.lookup("list"), nullptr);

  ServiceRegistry::Snapshot First = Reg.install(makeListService());
  ASSERT_TRUE(First);
  EXPECT_EQ(First->epoch(), 1u);
  EXPECT_EQ(Reg.lookup("list"), First);
  EXPECT_EQ(Reg.defaultService(), First); // first install = default
  EXPECT_EQ(Reg.size(), 1u);
  ASSERT_EQ(Reg.domainNames().size(), 1u);
  EXPECT_EQ(Reg.domainNames()[0], "list");

  // Installing again bumps the epoch and swaps the snapshot; the old
  // epoch stays alive as long as someone holds it.
  ServiceRegistry::Snapshot Second = Reg.install(makeListService());
  EXPECT_EQ(Second->epoch(), 2u);
  EXPECT_EQ(Reg.lookup("list"), Second);
  EXPECT_EQ(First->epoch(), 1u); // the held snapshot is untouched
  EXPECT_EQ(Reg.size(), 1u);
}

TEST(ServeRegistryTest, ReloadSwapsEpochAndFailureKeepsOldOne) {
  ServiceRegistry Reg;
  ServiceRegistry::Snapshot Old = Reg.install(makeListService());
  ASSERT_TRUE(Old);

  // Unknown domains cannot be reloaded (reload swaps, it never adds).
  std::string Err;
  EXPECT_EQ(Reg.reload("text", &Err), nullptr);
  EXPECT_NE(Err.find("text"), std::string::npos);

  // A config that fails to load publishes nothing.
  ServiceConfig Bad = Old->config();
  Bad.CheckpointPath = "/nonexistent/lib.ckpt";
  EXPECT_EQ(Reg.reload("list", Bad, &Err), nullptr);
  EXPECT_FALSE(Err.empty());
  EXPECT_EQ(Reg.lookup("list"), Old) << "failed reload must not publish";

  // A good config swaps to epoch 2 with the new grammar.
  ServiceConfig Good = Old->config();
  Good.CheckpointPath = writeShiftedListCheckpoint("reg_reload.ckpt");
  ServiceRegistry::Snapshot Fresh = Reg.reload("list", Good, &Err);
  ASSERT_TRUE(Fresh) << Err;
  EXPECT_EQ(Fresh->epoch(), 2u);
  EXPECT_EQ(Reg.lookup("list"), Fresh);
  EXPECT_NE(Fresh->grammar().logVariable(), Old->grammar().logVariable());

  // Old-epoch searches still run on the old grammar snapshot.
  Outcome OnOld = Old->solve(identityTask(), 60.0, 50000, 0);
  Outcome OnNew = Fresh->solve(identityTask(), 60.0, 50000, 0);
  ASSERT_EQ(OnOld.TheStatus, Outcome::Status::Solved);
  ASSERT_EQ(OnNew.TheStatus, Outcome::Status::Solved);
  EXPECT_EQ(OnOld.Beam.best()->Program->show(), "(lambda $0)");
  EXPECT_NE(beamSignature(OnOld.Beam), beamSignature(OnNew.Beam))
      << "shifted weights must change the scored beam";
}

TEST(ServeProtocolTest, ReloadParamsParse) {
  // Bare reload: default domain, keep every configured path.
  std::optional<ReloadParams> RP = parseReloadParams(Json::null());
  ASSERT_TRUE(RP);
  EXPECT_TRUE(RP->Domain.empty());
  EXPECT_FALSE(RP->Checkpoint || RP->Model || RP->Seed);

  auto P = Json::parse(
      R"({"domain":"text","checkpoint":"b.ckpt","model":"","seed":7})");
  ASSERT_TRUE(P);
  std::string Err;
  RP = parseReloadParams(*P, &Err);
  ASSERT_TRUE(RP) << Err;
  EXPECT_EQ(RP->Domain, "text");
  EXPECT_EQ(*RP->Checkpoint, "b.ckpt");
  EXPECT_EQ(*RP->Model, ""); // explicit "": clear the model
  EXPECT_EQ(*RP->Seed, 7u);

  for (const char *Bad :
       {R"({"domain":""})", R"({"domain":3})", R"({"checkpoint":1})",
        R"({"seed":-1})", R"({"seed":1.5})", R"([1,2])"}) {
    Err.clear();
    EXPECT_FALSE(parseReloadParams(*Json::parse(Bad), &Err)) << Bad;
    EXPECT_FALSE(Err.empty()) << Bad;
  }
}

TEST(ServeProtocolTest, SolveParamsDomainRouting) {
  auto P = Json::parse(R"({"task":"t","domain":"text"})");
  ASSERT_TRUE(P);
  std::string Err;
  auto SP = parseSolveParams(*P, &Err);
  ASSERT_TRUE(SP) << Err;
  EXPECT_EQ(SP->Domain, "text");

  // Absent domain = default route; empty/typed wrong = bad_request.
  SP = parseSolveParams(*Json::parse(R"({"task":"t"})"));
  ASSERT_TRUE(SP);
  EXPECT_TRUE(SP->Domain.empty());
  EXPECT_FALSE(parseSolveParams(*Json::parse(R"({"task":"t","domain":""})")));
  EXPECT_FALSE(parseSolveParams(*Json::parse(R"({"task":"t","domain":2})")));
}

//===----------------------------------------------------------------------===//
// Server end-to-end (sockets, workers, shutdown)
//===----------------------------------------------------------------------===//

namespace {

using Clock = std::chrono::steady_clock;

/// Minimal blocking client for the line protocol.
class TestClient {
public:
  explicit TestClient(int Port) {
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(static_cast<uint16_t>(Port));
    ::inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr);
    Connected = ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                          sizeof(Addr)) == 0;
  }
  ~TestClient() {
    if (Fd >= 0)
      ::close(Fd);
  }

  bool connected() const { return Connected; }

  void sendLine(const std::string &Body) {
    std::string Line = Body + "\n";
    ASSERT_EQ(::send(Fd, Line.data(), Line.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(Line.size()));
  }

  Json recvLine() {
    while (Buffer.find('\n') == std::string::npos) {
      char Chunk[4096];
      ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
      if (N <= 0)
        return Json::null();
      Buffer.append(Chunk, static_cast<size_t>(N));
    }
    size_t NL = Buffer.find('\n');
    std::string Line = Buffer.substr(0, NL);
    Buffer.erase(0, NL + 1);
    std::optional<Json> J = Json::parse(Line);
    return J ? *J : Json::null();
  }

  Json roundTrip(const std::string &Body) {
    sendLine(Body);
    return recvLine();
  }

private:
  int Fd = -1;
  bool Connected = false;
  std::string Buffer;
};

/// An unsolvable `int -> int` solve: no program maps 1 to both 2 and 3,
/// so only the deadline ends its search.
std::string unsolvableRequest(const char *Id, long TimeoutMs) {
  return std::string(R"({"id":")") + Id +
         R"(","method":"solve","params":{"request":"int -> int",)" +
         R"("examples":[{"inputs":[1],"output":2},{"inputs":[1],"output":3}],)" +
         R"("timeout_ms":)" + std::to_string(TimeoutMs) +
         R"(,"node_budget":100000000}})";
}

/// An identity solve with an explicit id and optional "domain" route.
std::string identityRequest(const char *Id, const char *Domain = nullptr) {
  std::string R = std::string(R"({"id":")") + Id +
                  R"(","method":"solve","params":{)";
  if (Domain)
    R += std::string(R"("domain":")") + Domain + R"(",)";
  R += R"json("request":"list(int) -> list(int)",)json"
       R"json("examples":[{"inputs":[[1,2,3]],"output":[1,2,3]},)json"
       R"json({"inputs":[[4]],"output":[4]}],)json"
       R"json("timeout_ms":60000,"node_budget":50000}})json";
  return R;
}

/// A head-of-list solve with an explicit id: a second, distinct solvable
/// task, so answers delivered to the wrong request are detectable.
std::string carRequest(const char *Id) {
  return std::string(R"({"id":")") + Id +
         R"(","method":"solve","params":{"request":"list(int) -> int",)" +
         R"("examples":[{"inputs":[[1,2]],"output":1},)" +
         R"({"inputs":[[7,8]],"output":7}],)" +
         R"("timeout_ms":60000,"node_budget":50000}})";
}

/// The full scored program list of a solve response — the bit-identity
/// fingerprint reload tests compare across epochs.
std::string programsSignature(const Json &Response) {
  const Json *Result = Response.find("result");
  if (!Result || !Result->find("programs"))
    return "<no-programs:" + Response.dump() + ">";
  return at(*Result, {"programs"}).dump();
}

/// beamSignature of a solve response's programs. The server writes
/// doubles with 17 significant digits, so the log priors round-trip
/// exactly and the result equals beamSignature of the served Frontier.
std::string responseBeamSignature(const Json &Response) {
  const Json *Result = Response.find("result");
  if (!Result || !Result->find("programs"))
    return "<no-programs:" + Response.dump() + ">";
  std::string Sig;
  for (const Json &E : at(*Result, {"programs"}).items()) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "|%.17g", at(E, {"log_prior"}).asNumber());
    Sig += at(E, {"program"}).asString() + Buf;
  }
  return Sig;
}

/// Polls the stats endpoint through \p Probe until `accepted` and
/// `queue_depth` read \p Accepted and \p Depth; false after about 4 s.
bool waitForOccupancy(TestClient &Probe, long Accepted, long Depth) {
  for (int I = 0; I < 400; ++I) {
    Json S = Probe.roundTrip(R"({"id":"p","method":"stats"})");
    if (at(S, {"result", "accepted"}).asInteger() == Accepted &&
        at(S, {"result", "queue_depth"}).asInteger() == Depth)
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

/// A stats result's totals must be the sums of its per-(domain, epoch)
/// rows.
void expectTotalsAreEpochSums(const Json &Stats) {
  for (const char *Field : {"accepted", "solved", "no_solution", "timeout"}) {
    long long Sum = 0;
    for (const auto &Domain : at(Stats, {"domains"}).members())
      for (const Json &Row : at(Domain.second, {"epochs"}).items())
        Sum += at(Row, {Field}).asInteger();
    EXPECT_EQ(at(Stats, {Field}).asInteger(), Sum)
        << Field << " in " << Stats.dump();
  }
}

/// The same contract for Server::stats() and Server::epochStats(), read
/// once the server has shut down.
void expectTotalsAreEpochSums(const Server &Srv) {
  ServerStats S = Srv.stats();
  for (const auto &[Key, C] : Srv.epochStats()) {
    S.Accepted -= C.Accepted;
    S.Solved -= C.Solved;
    S.NoSolution -= C.NoSolution;
    S.Timeout -= C.Timeout;
  }
  EXPECT_EQ(S.Accepted, 0);
  EXPECT_EQ(S.Solved, 0);
  EXPECT_EQ(S.NoSolution, 0);
  EXPECT_EQ(S.Timeout, 0);
}

/// Deadline of the requests a test holds at a HeldGate.
constexpr long HeldTimeoutMs = 1000;

/// Holds a serve worker without racing the search: while a HeldGate is
/// alive, evaluating the test-only primitive `test_hold` waits, so a
/// search occupies its worker for as long as the test needs, however fast
/// enumeration is. Declared after the Server, the gate opens before the
/// server's destructor drains the held worker, also when an assertion
/// ends the test early.
class HeldGate {
public:
  HeldGate() {
    std::lock_guard<std::mutex> Lock(M);
    Shut = true;
    Held = 0;
  }
  ~HeldGate() { open(); }
  HeldGate(const HeldGate &) = delete;
  HeldGate &operator=(const HeldGate &) = delete;

  /// test_hold's evaluation.
  static void pass() {
    std::unique_lock<std::mutex> Lock(M);
    ++Held;
    Cv.notify_all();
    Cv.wait(Lock, [] { return !Shut; });
  }

  /// True once an evaluation waits at the gate; false after 30 s.
  bool waitUntilHeld() {
    std::unique_lock<std::mutex> Lock(M);
    return Cv.wait_for(Lock, std::chrono::seconds(30),
                       [] { return Held > 0; });
  }

  /// Opens the gate once every request admitted by \p LastAdmission with
  /// deadline HeldTimeoutMs has expired: the held search, and everything
  /// queued behind it with that deadline, then answers `timeout`.
  void openAfterDeadlines(Clock::time_point LastAdmission) {
    std::this_thread::sleep_until(LastAdmission +
                                  std::chrono::milliseconds(HeldTimeoutMs));
    open();
  }

private:
  static void open() {
    std::lock_guard<std::mutex> Lock(M);
    Shut = false;
    Cv.notify_all();
  }

  static inline std::mutex M;
  static inline std::condition_variable Cv;
  static inline bool Shut = false;
  static inline int Held = 0; ///< evaluations since the gate was shut
};

/// The list domain's base grammar plus the test-only primitive
/// `test_hold : int -> int`: the identity, except that it waits at a
/// HeldGate. unsolvableRequest's search reaches `(lambda (test_hold $0))`
/// in its first window.
Grammar holdingListGrammar() {
  static const ExprPtr Hold = definePrimitive(
      "test_hold", Type::arrow(tInt(), tInt()),
      [](EvalState &, const std::vector<ValuePtr> &Args) -> ValuePtr {
        HeldGate::pass();
        return Args[0];
      });
  std::vector<ExprPtr> Prims = makeListDomain(1).BasePrimitives;
  Prims.push_back(Hold);
  return Grammar::uniform(Prims);
}

/// A checkpoint of holdingListGrammar(). The checkpoint parser resolves
/// test_hold through the primitive registry like any other primitive.
std::string writeHoldingListCheckpoint(const std::string &FileName) {
  std::string Path = testing::TempDir() + "/" + FileName;
  std::ofstream Out(Path);
  serializeGrammar(holdingListGrammar(), Out);
  return Path;
}

/// This process's address-space size in KiB (VmSize in /proc/self/status).
long vmSizeKb() {
  std::ifstream Status("/proc/self/status");
  for (std::string Line; std::getline(Status, Line);)
    if (Line.rfind("VmSize:", 0) == 0)
      return std::stol(Line.substr(7));
  return -1;
}

} // namespace

TEST(ServeServerTest, EndToEndSolveHealthStats) {
  ServiceRegistry Reg;
  ASSERT_TRUE(Reg.install(makeListService()));
  ServerConfig SC;
  SC.Workers = 2;
  std::string Err;
  std::unique_ptr<Server> Srv = Server::start(Reg, SC, &Err);
  ASSERT_TRUE(Srv) << Err;
  ASSERT_GT(Srv->port(), 0);

  TestClient C(Srv->port());
  ASSERT_TRUE(C.connected());

  Json Health = C.roundTrip(R"({"id":"h","method":"health"})");
  ASSERT_TRUE(Health.find("ok"));
  EXPECT_TRUE(at(Health, {"ok"}).asBool());
  EXPECT_EQ(at(Health, {"result", "domain"}).asString(), "list");
  ASSERT_TRUE(at(Health, {"result"}).find("domains"));
  EXPECT_EQ(at(Health, {"result", "domains", "list", "epoch"}).asInteger(),
            1);

  Json Solve = C.roundTrip(identityRequest("s"));
  ASSERT_TRUE(Solve.find("ok"));
  ASSERT_TRUE(at(Solve, {"ok"}).asBool()) << Solve.dump();
  const Json &Result = at(Solve, {"result"});
  EXPECT_EQ(at(Result, {"status"}).asString(), "solved");
  ASSERT_FALSE(at(Result, {"programs"}).items().empty());
  EXPECT_EQ(at(at(Result, {"programs"}).items()[0], {"program"}).asString(),
            "(lambda $0)");
  EXPECT_EQ(at(Result, {"domain"}).asString(), "list");
  EXPECT_EQ(at(Result, {"epoch"}).asInteger(), 1);

  // Explicit routing to the one loaded domain behaves like the default.
  Json Routed = C.roundTrip(identityRequest("r", "list"));
  ASSERT_TRUE(at(Routed, {"ok"}).asBool()) << Routed.dump();
  EXPECT_EQ(programsSignature(Routed), programsSignature(Solve));

  // Past-deadline request: structured timeout, not a hang or crash.
  Json Timeout = C.roundTrip(unsolvableRequest("t", 1));
  EXPECT_FALSE(at(Timeout, {"ok"}).asBool());
  EXPECT_EQ(at(Timeout, {"error", "code"}).asString(), "timeout");

  // Unknown things are structured errors too.
  Json Unknown =
      C.roundTrip(R"({"id":9,"method":"solve","params":{"task":"?"}})");
  EXPECT_EQ(at(Unknown, {"error", "code"}).asString(), "unknown_task");
  Json NoSuchDomain = C.roundTrip(identityRequest("nd", "text"));
  EXPECT_FALSE(at(NoSuchDomain, {"ok"}).asBool());
  EXPECT_EQ(at(NoSuchDomain, {"error", "code"}).asString(),
            "unknown_domain");
  Json BadMethod = C.roundTrip(R"({"id":10,"method":"frobnicate"})");
  EXPECT_EQ(at(BadMethod, {"error", "code"}).asString(), "unknown_method");
  Json NotJson = C.roundTrip("not json at all");
  EXPECT_EQ(at(NotJson, {"error", "code"}).asString(), "bad_request");

  // Every answer moves exactly one counter.
  Json Stats = C.roundTrip(R"({"id":"s","method":"stats"})");
  const Json &SR = at(Stats, {"result"});
  EXPECT_EQ(at(SR, {"solved"}).asInteger(), 2);
  EXPECT_EQ(at(SR, {"timeout"}).asInteger(), 1);
  EXPECT_EQ(at(SR, {"accepted"}).asInteger(), 3);
  EXPECT_EQ(at(SR, {"rejected"}).asInteger(), 2); // unknown task, domain
  EXPECT_EQ(at(SR, {"bad_request"}).asInteger(), 2); // method, not JSON
  const Json &ListEpochs = at(SR, {"domains", "list", "epochs"});
  ASSERT_EQ(ListEpochs.items().size(), 1u);
  EXPECT_EQ(at(ListEpochs.items()[0], {"epoch"}).asInteger(), 1);
  EXPECT_EQ(at(ListEpochs.items()[0], {"solved"}).asInteger(), 2);
  expectTotalsAreEpochSums(SR);

  Srv->requestShutdown();
  Srv->waitForShutdown();
  ServerStats Final = Srv->stats();
  EXPECT_EQ(Final.Solved, 2);
  EXPECT_EQ(Final.Timeout, 1);
  EXPECT_EQ(Final.Rejected, 2);
  EXPECT_EQ(Final.BadRequest, 2);
  auto ES = Srv->epochStats();
  ASSERT_EQ((ES.count({"list", 1ul})), 1u);
  EXPECT_EQ((ES[{"list", 1ul}].Solved), 2);
  EXPECT_EQ((ES[{"list", 1ul}].Timeout), 1);
  expectTotalsAreEpochSums(*Srv);
}

TEST(ServeServerTest, OverloadRejectionAndGracefulDrain) {
  ServiceRegistry Reg;
  ASSERT_TRUE(Reg.install(
      makeListService("", writeHoldingListCheckpoint("overload.ckpt"))));
  ServerConfig SC;
  SC.Workers = 1;
  SC.QueueCapacity = 1;
  std::string Err;
  std::unique_ptr<Server> Srv = Server::start(Reg, SC, &Err);
  ASSERT_TRUE(Srv) << Err;
  HeldGate Gate;

  // A is held at the worker, B fills the queue (poll the stats endpoint
  // to sequence deterministically), C must bounce off admission control.
  TestClient A(Srv->port()), B(Srv->port()), C(Srv->port()),
      Probe(Srv->port());
  ASSERT_TRUE(A.connected() && B.connected() && C.connected() &&
              Probe.connected());

  A.sendLine(unsolvableRequest("a", HeldTimeoutMs));
  ASSERT_TRUE(Gate.waitUntilHeld()) << "A never reached the worker";
  ASSERT_TRUE(waitForOccupancy(Probe, 1, 0)) << "A never reached the worker";
  B.sendLine(unsolvableRequest("b", HeldTimeoutMs));
  ASSERT_TRUE(waitForOccupancy(Probe, 2, 1)) << "B never queued";
  const Clock::time_point BQueued = Clock::now();

  Json Rejected = C.roundTrip(unsolvableRequest("c", HeldTimeoutMs));
  EXPECT_FALSE(at(Rejected, {"ok"}).asBool());
  EXPECT_EQ(at(Rejected, {"error", "code"}).asString(), "overloaded");

  // Shutdown with A held and B queued: both drain to answers (timeouts,
  // since the gate opens after their deadlines), post-shutdown work is
  // rejected as shutting_down, and teardown joins every thread.
  Srv->requestShutdown();
  Json Refused = Probe.roundTrip(unsolvableRequest("d", HeldTimeoutMs));
  EXPECT_EQ(at(Refused, {"error", "code"}).asString(), "shutting_down");
  Gate.openAfterDeadlines(BQueued);

  Json RespA = A.recvLine();
  EXPECT_EQ(at(RespA, {"id"}).asString(), "a");
  EXPECT_EQ(at(RespA, {"error", "code"}).asString(), "timeout");
  Json RespB = B.recvLine();
  EXPECT_EQ(at(RespB, {"id"}).asString(), "b");
  EXPECT_EQ(at(RespB, {"error", "code"}).asString(), "timeout");

  Srv->waitForShutdown();
  ServerStats Final = Srv->stats();
  EXPECT_EQ(Final.Accepted, 2);
  EXPECT_EQ(Final.Rejected, 2); // C overloaded + D shutting_down
  EXPECT_EQ(Final.Timeout, 2);
  expectTotalsAreEpochSums(*Srv);
}

TEST(ServeServerTest, HotReloadUnderLoad) {
  // One worker makes the service order deterministic: slow is held at the
  // worker, "pre" queues behind it on epoch 1, the reload publishes
  // epoch 2 while both are still pending, "post" admits on epoch 2.
  ServiceRegistry Reg;
  ASSERT_TRUE(Reg.install(
      makeListService("", writeHoldingListCheckpoint("hot_reload_a.ckpt"))));
  ServerConfig SC;
  SC.Workers = 1;
  SC.QueueCapacity = 8;
  std::string Err;
  std::unique_ptr<Server> Srv = Server::start(Reg, SC, &Err);
  ASSERT_TRUE(Srv) << Err;

  TestClient C(Srv->port()), Slow(Srv->port()), Probe(Srv->port());
  ASSERT_TRUE(C.connected() && Slow.connected() && Probe.connected());

  // Baseline answer on epoch 1.
  Json Baseline = C.roundTrip(identityRequest("base"));
  ASSERT_TRUE(at(Baseline, {"ok"}).asBool()) << Baseline.dump();
  EXPECT_EQ(at(Baseline, {"result", "epoch"}).asInteger(), 1);
  std::string SigA = programsSignature(Baseline);

  // Hold the worker, then pipeline "pre" behind it on epoch 1.
  HeldGate Gate;
  Slow.sendLine(unsolvableRequest("slow", HeldTimeoutMs));
  ASSERT_TRUE(Gate.waitUntilHeld()) << "slow never reached the worker";
  ASSERT_TRUE(waitForOccupancy(Probe, 2, 0))
      << "slow never reached the worker";
  const Clock::time_point SlowAdmitted = Clock::now();
  C.sendLine(identityRequest("pre"));
  ASSERT_TRUE(waitForOccupancy(Probe, 3, 1)) << "pre never queued";

  // Reload runs on the probe's reader thread while the worker is busy:
  // connections stay open, nothing admitted is dropped.
  std::string CkptB = writeShiftedListCheckpoint("hot_reload_b.ckpt");
  Json ReloadResp = Probe.roundTrip(
      R"({"id":"rl","method":"reload","params":{"checkpoint":")" + CkptB +
      R"("}})");
  ASSERT_TRUE(ReloadResp.find("ok")) << ReloadResp.dump();
  ASSERT_TRUE(at(ReloadResp, {"ok"}).asBool()) << ReloadResp.dump();
  EXPECT_EQ(at(ReloadResp, {"result", "epoch"}).asInteger(), 2);

  // Post-reload admission routes to epoch 2.
  C.sendLine(identityRequest("post"));
  ASSERT_TRUE(waitForOccupancy(Probe, 4, 2)) << "post never queued";
  Gate.openAfterDeadlines(SlowAdmitted);

  // slow drains first (its deadline passed while held -> timeout), then
  // pre, then post.
  Json SlowResp = Slow.recvLine();
  EXPECT_EQ(at(SlowResp, {"error", "code"}).asString(), "timeout");

  Json Pre = C.recvLine();
  EXPECT_EQ(at(Pre, {"id"}).asString(), "pre");
  ASSERT_TRUE(at(Pre, {"ok"}).asBool()) << Pre.dump();
  EXPECT_EQ(at(Pre, {"result", "epoch"}).asInteger(), 1)
      << "work admitted before the reload must finish on its epoch";
  EXPECT_EQ(programsSignature(Pre), SigA)
      << "pre-reload answer must be bit-identical to the baseline";

  Json Post = C.recvLine();
  EXPECT_EQ(at(Post, {"id"}).asString(), "post");
  ASSERT_TRUE(at(Post, {"ok"}).asBool()) << Post.dump();
  EXPECT_EQ(at(Post, {"result", "epoch"}).asInteger(), 2);
  EXPECT_NE(programsSignature(Post), SigA)
      << "the shifted checkpoint must change the scored beam";

  // The epoch history splits the outcomes across library generations.
  Json Stats = Probe.roundTrip(R"({"id":"s","method":"stats"})");
  const Json &SR = at(Stats, {"result"});
  EXPECT_EQ(at(SR, {"reloads"}).asInteger(), 1);
  EXPECT_EQ(at(SR, {"failed_reloads"}).asInteger(), 0);
  const Json &ListDomain = at(SR, {"domains", "list"});
  EXPECT_EQ(at(ListDomain, {"epoch"}).asInteger(), 2);
  ASSERT_EQ(at(ListDomain, {"epochs"}).items().size(), 2u);
  expectTotalsAreEpochSums(SR);

  Srv->requestShutdown();
  Srv->waitForShutdown();
  auto ES = Srv->epochStats();
  EXPECT_EQ((ES[{"list", 1ul}].Solved), 2);  // base + pre
  EXPECT_EQ((ES[{"list", 1ul}].Timeout), 1); // slow
  EXPECT_EQ((ES[{"list", 2ul}].Solved), 1);  // post
  ServerStats Final = Srv->stats();
  EXPECT_EQ(Final.Accepted, 4);
  EXPECT_EQ(Final.Rejected, 0) << "reload must drop no admitted work";
  expectTotalsAreEpochSums(*Srv);
}

TEST(ServeServerTest, ReloadFailedLeavesOldEpochServing) {
  ServiceRegistry Reg;
  ASSERT_TRUE(Reg.install(makeListService()));
  ServerConfig SC;
  std::string Err;
  std::unique_ptr<Server> Srv = Server::start(Reg, SC, &Err);
  ASSERT_TRUE(Srv) << Err;

  TestClient C(Srv->port());
  ASSERT_TRUE(C.connected());
  Json Baseline = C.roundTrip(identityRequest("base"));
  ASSERT_TRUE(at(Baseline, {"ok"}).asBool()) << Baseline.dump();
  std::string SigA = programsSignature(Baseline);

  // A checkpoint that cannot load publishes nothing.
  Json Failed = C.roundTrip(
      R"({"id":"rl","method":"reload","params":)"
      R"({"checkpoint":"/nonexistent/lib.ckpt"}})");
  EXPECT_FALSE(at(Failed, {"ok"}).asBool());
  EXPECT_EQ(at(Failed, {"error", "code"}).asString(), "reload_failed");

  // Reloading a domain that was never loaded is a routing error, and it
  // counts as a failed reload.
  Json NoDomain = C.roundTrip(
      R"({"id":"rd","method":"reload","params":{"domain":"text"}})");
  EXPECT_EQ(at(NoDomain, {"error", "code"}).asString(), "unknown_domain");
  Json Stats = C.roundTrip(R"({"id":"s","method":"stats"})");
  EXPECT_EQ(at(Stats, {"result", "reloads"}).asInteger(), 0);
  EXPECT_EQ(at(Stats, {"result", "failed_reloads"}).asInteger(), 2);

  // The old epoch keeps serving, bit-identically.
  Json After = C.roundTrip(identityRequest("after"));
  ASSERT_TRUE(at(After, {"ok"}).asBool()) << After.dump();
  EXPECT_EQ(at(After, {"result", "epoch"}).asInteger(), 1);
  EXPECT_EQ(programsSignature(After), SigA);

  Srv->requestShutdown();
  Srv->waitForShutdown();
  ServerStats Final = Srv->stats();
  EXPECT_EQ(Final.Reloads, 0);
  EXPECT_EQ(Final.FailedReloads, 2);
}

TEST(ServeServerTest, StartRejectsOutOfRangeConfig) {
  // Out-of-range knobs fail with a message instead of being wrapped or
  // clamped: cast to uint16_t, port 70000 would bind port 4464, and
  // cast to size_t, a queue bound of -1 would admit without limit.
  ServiceRegistry Reg;
  ASSERT_TRUE(Reg.install(makeListService()));
  // The message must name the offending field.
  auto ExpectRejected = [&](const ServerConfig &SC, const char *Field) {
    std::string Err;
    std::unique_ptr<Server> Srv = Server::start(Reg, SC, &Err);
    EXPECT_FALSE(Srv) << Field;
    EXPECT_NE(Err.find(Field), std::string::npos) << Err;
  };
  ServerConfig SC;
  SC.Port = 70000;
  ExpectRejected(SC, "port");
  SC.Port = -1;
  ExpectRejected(SC, "port");
  SC = ServerConfig();
  SC.QueueCapacity = -1;
  ExpectRejected(SC, "queue");
  SC.QueueCapacity = 0;
  ExpectRejected(SC, "queue");
  SC = ServerConfig();
  SC.Workers = 0;
  ExpectRejected(SC, "workers");
  SC = ServerConfig();
  SC.DefaultTimeoutMs = -1;
  ExpectRejected(SC, "timeout");

  // The low edge of every range still serves.
  SC = ServerConfig();
  SC.Workers = 1;
  SC.QueueCapacity = 1;
  SC.DefaultTimeoutMs = 0;
  std::string Err;
  std::unique_ptr<Server> Srv = Server::start(Reg, SC, &Err);
  ASSERT_TRUE(Srv) << Err;
  TestClient C(Srv->port());
  ASSERT_TRUE(C.connected());
  Json Stats = C.roundTrip(R"({"id":"s","method":"stats"})");
  EXPECT_EQ(at(Stats, {"result", "queue_capacity"}).asInteger(), 1);
  EXPECT_EQ(at(Stats, {"result", "workers"}).asInteger(), 1);
}

TEST(ServeServerTest, ClosedConnectionsReleaseTheirReaderThreads) {
  // Each connection gets a reader thread, and a thread that has exited
  // keeps its stack (8 MB of address space by default) until it is
  // joined. 64 connections opened and closed one after another must not
  // leave 64 stacks behind: the acceptor joins finished readers.
  //
  // glibc also gives each thread that allocates while the others hold
  // their malloc arenas a new arena of 64 MB of address space. Capping
  // arenas keeps that noise out of VmSize, which then tracks the stacks.
  mallopt(M_ARENA_MAX, 1);
  ServiceRegistry Reg;
  ASSERT_TRUE(Reg.install(makeListService()));
  std::string Err;
  std::unique_ptr<Server> Srv = Server::start(Reg, ServerConfig(), &Err);
  ASSERT_TRUE(Srv) << Err;
  auto OpenAndClose = [&](int Connections) {
    for (int I = 0; I < Connections; ++I) {
      TestClient C(Srv->port());
      ASSERT_TRUE(C.connected());
      Json Health = C.roundTrip(R"({"id":"h","method":"health"})");
      ASSERT_TRUE(at(Health, {"ok"}).asBool()) << Health.dump();
    }
  };

  // The first readers fill the stack cache that later readers reuse.
  OpenAndClose(8);
  const long BeforeKb = vmSizeKb();
  ASSERT_GT(BeforeKb, 0);
  OpenAndClose(64);
  const long GrowthKb = vmSizeKb() - BeforeKb;
  EXPECT_LT(GrowthKb, 128 * 1024)
      << "64 closed connections grew VmSize by " << GrowthKb / 1024
      << " MB";
}

TEST(ServeServerTest, PipelinedModelBackedAnswersMatchInProcessSolve) {
  // The model-backed TCP path: four solves of two kinds pipelined on one
  // connection through a single worker. Each answer must equal an
  // in-process Service::solve of the same request on the same loaded
  // service: the socket, the queue and the worker change no answer.
  std::string ModelPath = writeListModel("pipelined_solve.model");
  ServiceRegistry Reg;
  ServiceRegistry::Snapshot Svc = Reg.install(makeListService(ModelPath));
  ASSERT_TRUE(Svc && Svc->hasRecognitionModel());
  ServerConfig SC;
  SC.Workers = 1;
  std::string Err;
  std::unique_ptr<Server> Srv = Server::start(Reg, SC, &Err);
  ASSERT_TRUE(Srv) << Err;

  const char *Ids[] = {"q0", "q1", "q2", "q3"};
  std::vector<std::string> Lines;
  for (int I = 0; I < 4; ++I)
    Lines.push_back(I % 2 == 0 ? identityRequest(Ids[I])
                               : carRequest(Ids[I]));
  TestClient C(Srv->port());
  ASSERT_TRUE(C.connected());
  for (const std::string &Line : Lines)
    C.sendLine(Line);

  std::map<std::string, std::string> Expected;
  for (int I = 0; I < 4; ++I) {
    std::optional<Request> Req = parseRequestLine(Lines[I], &Err);
    ASSERT_TRUE(Req) << Err;
    std::optional<SolveParams> SP = parseSolveParams(Req->Params, &Err);
    ASSERT_TRUE(SP) << Err;
    Outcome O = Svc->solve(SP->InlineTask, 60.0, SP->NodeBudget,
                           SP->FrontierSize);
    ASSERT_EQ(O.TheStatus, Outcome::Status::Solved) << Ids[I];
    Expected[Ids[I]] = beamSignature(O.Beam);
  }
  EXPECT_NE(Expected.at("q0"), Expected.at("q1"))
      << "the two request kinds must have distinguishable answers";

  for (int I = 0; I < 4; ++I) {
    Json Resp = C.recvLine();
    ASSERT_TRUE(Resp.find("ok") && at(Resp, {"ok"}).asBool())
        << Resp.dump();
    std::string Id = at(Resp, {"id"}).asString();
    ASSERT_TRUE(Expected.count(Id)) << Id;
    EXPECT_EQ(responseBeamSignature(Resp), Expected.at(Id))
        << "the served answer differs from Service::solve for " << Id;
    Expected.erase(Id); // each id is answered exactly once
  }

  Srv->requestShutdown();
  Srv->waitForShutdown();
  EXPECT_EQ(Srv->stats().Solved, 4);
}

TEST(ServeServerTest, ModelBackedHotReloadNeverMixesEpochs) {
  // Epoch purity with a recognition model: a request admitted before a
  // reload keeps its epoch-1 snapshot (and that epoch's model) while it
  // waits in the queue and epoch 2 publishes; a request admitted after
  // routes to epoch 2.
  std::string ModelPath =
      writeListModel("model_reload.model", holdingListGrammar());
  ServiceRegistry Reg;
  ASSERT_TRUE(Reg.install(makeListService(
      ModelPath, writeHoldingListCheckpoint("model_reload.ckpt"))));
  ServerConfig SC;
  SC.Workers = 1;
  SC.QueueCapacity = 8;
  std::string Err;
  std::unique_ptr<Server> Srv = Server::start(Reg, SC, &Err);
  ASSERT_TRUE(Srv) << Err;

  TestClient C(Srv->port()), Slow(Srv->port()), Probe(Srv->port());
  ASSERT_TRUE(C.connected() && Slow.connected() && Probe.connected());

  Json Baseline = C.roundTrip(identityRequest("base"));
  ASSERT_TRUE(at(Baseline, {"ok"}).asBool()) << Baseline.dump();
  EXPECT_EQ(at(Baseline, {"result", "epoch"}).asInteger(), 1);
  std::string SigA = programsSignature(Baseline);

  // Hold the single worker, then pipeline "pre" behind it: both are
  // admitted — and snapshot their epoch — before the reload below.
  HeldGate Gate;
  Slow.sendLine(unsolvableRequest("slow", HeldTimeoutMs));
  ASSERT_TRUE(Gate.waitUntilHeld()) << "slow never reached the worker";
  ASSERT_TRUE(waitForOccupancy(Probe, 2, 0)) << "slow never admitted";
  const Clock::time_point SlowAdmitted = Clock::now();
  C.sendLine(identityRequest("pre"));
  ASSERT_TRUE(waitForOccupancy(Probe, 3, 1)) << "pre never admitted";

  Json ReloadResp = Probe.roundTrip(R"({"id":"rl","method":"reload"})");
  ASSERT_TRUE(at(ReloadResp, {"ok"}).asBool()) << ReloadResp.dump();
  EXPECT_EQ(at(ReloadResp, {"result", "epoch"}).asInteger(), 2);

  C.sendLine(identityRequest("post"));
  ASSERT_TRUE(waitForOccupancy(Probe, 4, 2)) << "post never admitted";
  Gate.openAfterDeadlines(SlowAdmitted);

  Json SlowResp = Slow.recvLine();
  EXPECT_EQ(at(SlowResp, {"error", "code"}).asString(), "timeout");
  Json Pre = C.recvLine();
  EXPECT_EQ(at(Pre, {"id"}).asString(), "pre");
  ASSERT_TRUE(at(Pre, {"ok"}).asBool()) << Pre.dump();
  EXPECT_EQ(at(Pre, {"result", "epoch"}).asInteger(), 1)
      << "work admitted before the reload must answer on its epoch";
  EXPECT_EQ(programsSignature(Pre), SigA);
  Json Post = C.recvLine();
  EXPECT_EQ(at(Post, {"id"}).asString(), "post");
  ASSERT_TRUE(at(Post, {"ok"}).asBool()) << Post.dump();
  EXPECT_EQ(at(Post, {"result", "epoch"}).asInteger(), 2);
  EXPECT_EQ(programsSignature(Post), SigA)
      << "same checkpoint and model reloaded: epoch 2 answers match";

  Srv->requestShutdown();
  Srv->waitForShutdown();
  auto ES = Srv->epochStats();
  EXPECT_EQ((ES[{"list", 1ul}].Solved), 2);  // base + pre
  EXPECT_EQ((ES[{"list", 1ul}].Timeout), 1); // slow
  EXPECT_EQ((ES[{"list", 2ul}].Solved), 1);  // post
  expectTotalsAreEpochSums(*Srv);
}
