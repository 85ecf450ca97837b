//===- perfbench/dc_perfbench.cpp - Repo benchmark processes -------------===//
//
// The process-level pieces of the repo benchmark; perfbench/run.py builds
// this binary, drives it and aggregates what it prints. Each subcommand
// prints one JSON object on stdout.
//
//   learn   one runWakeSleep run through the public API: the timed run,
//           libraryScore of the result, a re-check of every frontier program
//           against its task, a fingerprint of the final grammar and
//           frontiers, and optionally the deployable artifacts
//           (saveCheckpoint plus a RecognitionModel trained on the
//           frontiers).
//   client  one load-generating client against a running dc_serve. It
//           runs serving blocks when run.py asks on stdin: a closed loop
//           (after a warm-up) that keeps every connection busy, then a
//           slice of an open loop that sends on a given schedule. Every
//           returned program is parsed with parseProgram and checked
//           against its request's examples. After each block, while the
//           server is idle, it times set-ups of the whole user path: the
//           learner's (domain build + initial grammar) and the server's
//           (Service::create from the saved checkpoint and model).
//   replay  the open-loop request stream solved in-process through
//           Service::solve, timing predict and search apart, plus timed
//           checkpoint loads.
//
// Requests are list tasks sent inline by examples (from makeListDomain's
// hand-written reference functions) or, for fixed-corpus domains such as
// logo, corpus tasks sent by name. Which task each request carries is drawn
// with the seed, so one seed always gives the same request stream.
//
//===----------------------------------------------------------------------===//

#include "core/ProgramParser.h"
#include "core/Recognition.h"
#include "core/Serialization.h"
#include "core/WakeSleep.h"
#include "domains/ListDomain.h"
#include "domains/LogoDomain.h"
#include "obs/Metrics.h"
#include "obs/Telemetry.h"
#include "serve/Json.h"
#include "serve/Protocol.h"
#include "serve/Service.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace dc;
using dc::serve::Json;
using Clock = std::chrono::steady_clock;

namespace {

[[noreturn]] void die(const std::string &Msg) {
  std::fprintf(stderr, "dc_perfbench: %s\n", Msg.c_str());
  std::exit(1);
}

double secondsSince(Clock::time_point T0, Clock::time_point T1) {
  return std::chrono::duration<double>(T1 - T0).count();
}

/// --key value flags. Every flag given must be read by the subcommand, so a
/// misspelt flag fails the run instead of silently taking a default.
class Args {
public:
  Args(int Argc, char **Argv) {
    for (int I = 2; I < Argc; I += 2) {
      if (std::strncmp(Argv[I], "--", 2) != 0 || I + 1 >= Argc)
        die(std::string("bad argument '") + Argv[I] + "'");
      KV[Argv[I] + 2] = Argv[I + 1];
    }
  }
  std::string str(const std::string &K, const char *Def = nullptr) {
    auto It = KV.find(K);
    if (It == KV.end()) {
      if (!Def)
        die("missing --" + K);
      return Def;
    }
    Used.insert(K);
    return It->second;
  }
  long num(const std::string &K) {
    std::string S = str(K);
    char *End = nullptr;
    long V = std::strtol(S.c_str(), &End, 10);
    if (S.empty() || *End)
      die("--" + K + " expects an integer, got '" + S + "'");
    return V;
  }
  void finish() const {
    for (const auto &[K, V] : KV)
      if (!Used.count(K))
        die("unknown flag --" + K);
  }

private:
  std::map<std::string, std::string> KV;
  std::set<std::string> Used;
};

/// The benchmark's own spans around the public calls it makes, kept in
/// memory and printed once with the result (run.py writes them out as a
/// chrome trace).
class SpanLog {
public:
  class Scope {
  public:
    Scope(SpanLog &L, std::string Name) : L(L), Idx(L.open(std::move(Name))) {}
    ~Scope() { L.close(Idx); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanLog &L;
    size_t Idx;
  };

  Json toJson() const {
    Json Out = Json::array();
    for (const Span &S : Spans) {
      Json J = Json::object();
      J.set("name", Json::string(S.Name));
      J.set("start_us", Json::number(S.StartUs));
      J.set("dur_us", Json::number(S.DurUs));
      J.set("parent", Json::integer(S.Parent));
      Out.push(std::move(J));
    }
    return Out;
  }

private:
  struct Span {
    std::string Name;
    double StartUs = 0, DurUs = 0;
    long Parent = -1;
  };

  double nowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - Origin)
        .count();
  }
  size_t open(std::string Name) {
    long Parent = Open.empty() ? -1 : static_cast<long>(Open.back());
    Spans.push_back({std::move(Name), nowUs(), 0, Parent});
    Open.push_back(Spans.size() - 1);
    return Spans.size() - 1;
  }
  void close(size_t Idx) {
    Spans[Idx].DurUs = nowUs() - Spans[Idx].StartUs;
    Open.pop_back();
  }

  Clock::time_point Origin = Clock::now();
  std::vector<Span> Spans;
  std::vector<size_t> Open;
};

DomainSpec buildDomain(const std::string &Name, unsigned Seed) {
  if (Name == "list")
    return makeListDomain(Seed);
  if (Name == "logo")
    return makeLogoDomain(); // fixed corpus; the seed drives the loop only
  die("unsupported domain '" + Name + "'");
}

/// FNV-1a, the hash the repo's own determinism gates use.
uint64_t fnv1a(const std::string &S, uint64_t H = 1469598103934665603ull) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

std::string hex64(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

double cpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(U.ru_utime.tv_usec + U.ru_stime.tv_usec);
}

/// Peak resident set of this process's own address space (VmHWM), in MB.
/// getrusage's ru_maxrss would also count the parent's resident set from
/// before exec.
double peakRssMb() {
  std::ifstream In("/proc/self/status");
  for (std::string Line; std::getline(In, Line);)
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::atof(Line.c_str() + 6) / 1024.0;
  die("no VmHWM in /proc/self/status");
}

void printJson(const Json &J) {
  std::string S = J.dump();
  std::fwrite(S.data(), 1, S.size(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

//===----------------------------------------------------------------------===//
// learn
//===----------------------------------------------------------------------===//

/// Gradient steps of the RecognitionModel deployed with the library.
constexpr int ModelSteps = 3000;

int cmdLearn(Args &A) {
  const std::string DomainName = A.str("domain");
  const unsigned Seed = static_cast<unsigned>(A.num("seed"));
  const int Iterations = static_cast<int>(A.num("iterations"));
  const long NodeBudget = A.num("node-budget"); // 0: the domain's own
  const int Threads = static_cast<int>(A.num("threads"));
  const std::string Backend = A.str("backend");
  const std::string MetricsOut = A.str("metrics-out", ""); // traced if set
  const std::string CheckpointPath = A.str("checkpoint", "");
  const std::string ModelPath = A.str("model", "");
  A.finish();
  if (Backend != "vs" && Backend != "topdown")
    die("--backend must be vs or topdown");
  const bool Trace = !MetricsOut.empty();

  SpanLog Spans;
  DomainSpec D = buildDomain(DomainName, Seed);
  if (NodeBudget > 0)
    D.Search.NodeBudget = NodeBudget;
  WakeSleepConfig Config;
  Config.Variant = SystemVariant::Full;
  Config.Iterations = Iterations;
  Config.Seed = Seed;
  Config.NumThreads = Threads;
  Config.EvaluateTestEachCycle = false;
  Config.Compress.Backend = Backend == "vs" ? CompressionBackend::VersionSpace
                                            : CompressionBackend::TopDown;

  if (Trace) {
    obs::Telemetry::setEnabled(true);
    obs::MetricsRegistry::global().reset();
  }
  double Cpu0 = cpuSeconds();
  Clock::time_point T0 = Clock::now();
  WakeSleepResult R;
  {
    SpanLog::Scope S(Spans, "runWakeSleep");
    R = runWakeSleep(D, Config);
  }
  Clock::time_point T1 = Clock::now();
  double Cpu1 = cpuSeconds();
  double PeakRss = peakRssMb();
  obs::Telemetry::setEnabled(false);
  if (Trace) {
    std::ofstream Out(MetricsOut);
    if (!(Out << obs::MetricsRegistry::global().toJson()))
      die("cannot write " + MetricsOut);
  }

  // Output check: every frontier program must still reproduce its task
  // (after abstraction sleep rewrote it in terms of the new library).
  long Checked = 0, Failed = 0;
  std::vector<Frontier> Solved;
  {
    SpanLog::Scope S(Spans, "recheckFrontiers");
    for (const Frontier &F : R.TrainFrontiers) {
      for (const FrontierEntry &E : F.entries()) {
        ++Checked;
        double LL = F.task()->logLikelihood(E.Program);
        if (!(LL > -1e300) || LL != E.LogLikelihood) {
          ++Failed;
          std::fprintf(stderr, "frontier mismatch on %s: %s\n",
                       F.task()->name().c_str(), E.Program->show().c_str());
        }
      }
      if (!F.empty())
        Solved.push_back(F);
    }
  }
  double Score;
  {
    SpanLog::Scope S(Spans, "libraryScore");
    Grammar G = R.FinalGrammar;
    Score = libraryScore(G, Solved, Config.Compress);
  }

  std::ostringstream Ser;
  serializeGrammar(R.FinalGrammar, Ser);
  serializeFrontiers(R.TrainFrontiers, Ser);
  char ScoreBits[40];
  std::snprintf(ScoreBits, sizeof(ScoreBits), "%a", Score);
  Ser << R.trainSolved() << ' ' << R.FinalTestSolved << ' ' << ScoreBits;
  std::string Fingerprint = hex64(fnv1a(Ser.str()));

  if (!CheckpointPath.empty()) {
    SpanLog::Scope S(Spans, "saveCheckpoint");
    if (!saveCheckpoint(CheckpointPath, R.FinalGrammar, R.TrainFrontiers))
      die("cannot write " + CheckpointPath);
  }
  if (!ModelPath.empty()) {
    SpanLog::Scope S(Spans, "trainRecognitionModel");
    RecognitionParams RP;
    RP.Seed = Seed;
    RP.NumThreads = Threads;
    RP.TrainingSteps = ModelSteps;
    RecognitionModel Model(R.FinalGrammar, *D.Featurizer, RP);
    Model.train(R.TrainFrontiers, D.TrainTasks, D.Hook);
    std::ofstream Out(ModelPath);
    saveRecognitionModel(Model, Out);
    if (!Out)
      die("cannot write " + ModelPath);
  }

  Json Out = Json::object();
  Out.set("wakesleep_s", Json::number(secondsSince(T0, T1)));
  Out.set("cpu_s", Json::number(Cpu1 - Cpu0));
  Out.set("peak_rss_mb", Json::number(PeakRss));
  Out.set("solved_train", Json::integer(R.trainSolved()));
  Out.set("solved_test", Json::integer(R.FinalTestSolved));
  Out.set("library_score", Json::number(Score));
  Out.set("checked", Json::integer(Checked));
  Out.set("failed", Json::integer(Failed));
  Out.set("fingerprint", Json::string(Fingerprint));
  Out.set("spans", Spans.toJson());
  printJson(Out);
  return 0;
}

//===----------------------------------------------------------------------===//
// Request streams
//===----------------------------------------------------------------------===//

/// One synthesis request: the task the client checks answers against and
/// the `solve` params that carry it.
struct RequestSpec {
  TaskPtr Task;
  Json Params;
};

/// List corpora (makeListDomain seeds 1..ListCorpora) whose tasks make up
/// the list request pool: every family with this many example draws. The
/// pool is fixed; a run's seed only draws from it, so every seed sees the
/// same population of request costs.
constexpr unsigned ListCorpora = 4;

std::vector<RequestSpec> requestPool(const std::string &DomainName,
                                     long NodeBudget, long TimeoutMs) {
  std::vector<RequestSpec> Pool;
  auto Base = [&] {
    Json P = Json::object();
    P.set("node_budget", Json::integer(NodeBudget));
    P.set("timeout_ms", Json::integer(TimeoutMs));
    return P;
  };
  if (DomainName == "list") {
    for (unsigned K = 1; K <= ListCorpora; ++K) {
      DomainSpec D = makeListDomain(K);
      for (const std::vector<TaskPtr> *Split : {&D.TrainTasks, &D.TestTasks})
        for (const TaskPtr &T : *Split) {
          Json P = Base();
          P.set("name", Json::string(T->name()));
          P.set("request", Json::string(T->request()->show()));
          Json Examples = Json::array();
          for (const Example &E : T->examples()) {
            Json Ex = Json::object();
            Json Inputs = Json::array();
            for (const ValuePtr &V : E.Inputs)
              Inputs.push(serve::valueToJson(V));
            Ex.set("inputs", std::move(Inputs));
            Ex.set("output", serve::valueToJson(E.Output));
            Examples.push(std::move(Ex));
          }
          P.set("examples", std::move(Examples));
          Pool.push_back({T, std::move(P)});
        }
    }
  } else {
    DomainSpec D = buildDomain(DomainName, 0);
    for (const std::vector<TaskPtr> *Split : {&D.TrainTasks, &D.TestTasks})
      for (const TaskPtr &T : *Split) {
        Json P = Base();
        P.set("task", Json::string(T->name()));
        Pool.push_back({T, std::move(P)});
      }
  }
  if (Pool.empty())
    die("empty request pool");
  return Pool;
}

/// \p Count pool indices in an order drawn with a generator seeded by
/// (\p Seed, \p Stream): successive seeded permutations of the whole pool,
/// so every task is sent equally often and a seed changes the order, not
/// the mix. The same arguments always give the same stream.
std::vector<size_t> drawStream(size_t PoolSize, unsigned Seed, unsigned Stream,
                               size_t Count) {
  std::mt19937_64 Rng((static_cast<uint64_t>(Seed) << 32) ^ Stream);
  std::vector<size_t> Perm(PoolSize), Out;
  Out.reserve(Count);
  while (Out.size() < Count) {
    std::iota(Perm.begin(), Perm.end(), size_t{0});
    std::shuffle(Perm.begin(), Perm.end(), Rng);
    for (size_t I = 0; I < PoolSize && Out.size() < Count; ++I)
      Out.push_back(Perm[I]);
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// client
//===----------------------------------------------------------------------===//

class Connection {
public:
  explicit Connection(int Port) {
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(static_cast<uint16_t>(Port));
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (Fd < 0 ||
        ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0)
      die("cannot connect to port " + std::to_string(Port));
    int One = 1;
    ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  }
  ~Connection() { ::close(Fd); }
  Connection(const Connection &) = delete;
  Connection &operator=(const Connection &) = delete;

  void sendLine(const std::string &Line) {
    std::string Buf = Line + "\n";
    size_t Off = 0;
    while (Off < Buf.size()) {
      ssize_t N = ::send(Fd, Buf.data() + Off, Buf.size() - Off, MSG_NOSIGNAL);
      if (N <= 0)
        die("send failed");
      Off += static_cast<size_t>(N);
    }
  }
  /// False on EOF.
  bool readLine(std::string &Out) {
    for (;;) {
      size_t Nl = Pending.find('\n');
      if (Nl != std::string::npos) {
        Out = Pending.substr(0, Nl);
        Pending.erase(0, Nl + 1);
        return true;
      }
      char Buf[65536];
      ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
      if (N <= 0)
        return false;
      Pending.append(Buf, static_cast<size_t>(N));
    }
  }
  /// Lets a blocked readLine return (EOF) once no more replies are due.
  void shutdownRead() { ::shutdown(Fd, SHUT_RDWR); }

private:
  int Fd = -1;
  std::string Pending;
};

/// What happened to one request. Times are seconds on the client's clock
/// from the start of its phase.
struct Record {
  std::string Phase;
  size_t Index = 0;
  size_t Pool = 0; ///< index of the request in the pool
  std::string Task;
  double Sched = 0, Sent = 0, Recv = 0;
  std::string Status; ///< solved | no_solution | error:<code> | bad | lost
  double SolveMs = 0, QueueMs = 0;
  long Nodes = 0, Programs = 0;
  std::string Answer; ///< fingerprint of the returned programs
  bool DeadlineExpired = false;
};

/// Parses one response and checks every returned program against the
/// request's task; fills the outcome fields of \p R.
void judge(const std::string &Line, const RequestSpec &Req, Record &R) {
  std::optional<Json> J = Json::parse(Line);
  if (!J || !J->isObject()) {
    R.Status = "bad";
    return;
  }
  const Json *Ok = J->find("ok");
  if (!Ok || !Ok->isBool() || !Ok->asBool()) {
    const Json *Err = J->find("error");
    const Json *Code = Err ? Err->find("code") : nullptr;
    R.Status = std::string("error:") +
               (Code && Code->isString() ? Code->asString() : "unknown");
    return;
  }
  const Json *Res = J->find("result");
  const Json *Status = Res ? Res->find("status") : nullptr;
  const Json *Programs = Res ? Res->find("programs") : nullptr;
  const Json *Stats = Res ? Res->find("stats") : nullptr;
  if (!Status || !Status->isString() || !Programs || !Programs->isArray() ||
      !Stats) {
    R.Status = "bad";
    return;
  }
  auto Num = [&](const char *K) {
    const Json *V = Stats->find(K);
    return V && V->isNumber() ? V->asNumber() : -1.0;
  };
  R.SolveMs = Num("solve_ms");
  R.QueueMs = Num("queue_ms");
  R.Nodes = static_cast<long>(Num("nodes_expanded"));
  R.Programs = static_cast<long>(Num("programs_enumerated"));
  if (const Json *D = Res->find("deadline_expired"))
    R.DeadlineExpired = D->isBool() && D->asBool();
  const std::string &S = Status->asString();
  if ((S == "solved") == Programs->items().empty() ||
      (S != "solved" && S != "no_solution")) {
    R.Status = "bad";
    return;
  }
  R.Answer = hex64(fnv1a(Programs->dump()));
  for (const Json &P : Programs->items()) {
    const Json *Src = P.find("program");
    ExprPtr E = Src && Src->isString() ? parseProgram(Src->asString())
                                       : nullptr;
    if (!E || !(Req.Task->logLikelihood(E) > -1e300)) {
      std::fprintf(stderr, "wrong program for %s: %s\n",
                   Req.Task->name().c_str(),
                   Src && Src->isString() ? Src->asString().c_str() : "?");
      R.Status = "bad";
      return;
    }
  }
  R.Status = S;
}

std::string solveLine(size_t Id, const RequestSpec &Req) {
  Json Msg = Json::object();
  Msg.set("id", Json::integer(static_cast<long long>(Id)));
  Msg.set("method", Json::string("solve"));
  Msg.set("params", Req.Params);
  return Msg.dump();
}

Json recordJson(const Record &R) {
  Json J = Json::object();
  J.set("phase", Json::string(R.Phase));
  J.set("i", Json::integer(static_cast<long long>(R.Index)));
  J.set("pool", Json::integer(static_cast<long long>(R.Pool)));
  J.set("task", Json::string(R.Task));
  J.set("sched", Json::number(R.Sched));
  J.set("sent", Json::number(R.Sent));
  J.set("recv", Json::number(R.Recv));
  J.set("status", Json::string(R.Status));
  J.set("solve_ms", Json::number(R.SolveMs));
  J.set("queue_ms", Json::number(R.QueueMs));
  J.set("nodes", Json::integer(R.Nodes));
  J.set("programs", Json::integer(R.Programs));
  J.set("answer", Json::string(R.Answer));
  J.set("deadline_expired", Json::boolean(R.DeadlineExpired));
  return J;
}

/// Closed loop: each connection sends its next request as soon as the
/// previous reply arrives, until \p Warmup + \p Seconds have passed.
/// Requests sent during the warm-up (a fresh server fills its program
/// arena and caches) are recorded as phase "warmup". The requests continue
/// \p Stream from \p Next. Appends the records to \p Records and returns
/// the seconds from the end of the warm-up to the last reply.
double closedLoop(int Port, int Conns, double Warmup, double Seconds,
                  const std::vector<RequestSpec> &Pool,
                  const std::vector<size_t> &Stream, size_t &NextIndex,
                  std::vector<Record> &Records) {
  std::atomic<size_t> Next{NextIndex};
  std::mutex M;
  double Last = 0;
  Clock::time_point T0 = Clock::now();
  std::vector<std::thread> Threads;
  for (int C = 0; C < Conns; ++C)
    Threads.emplace_back([&] {
      Connection Conn(Port);
      std::string Line;
      for (;;) {
        double Now = secondsSince(T0, Clock::now()) - Warmup;
        if (Now >= Seconds)
          break;
        size_t I = Next.fetch_add(1);
        if (I >= Stream.size())
          die("closed-loop request stream exhausted");
        const RequestSpec &Req = Pool[Stream[I]];
        Record R;
        R.Phase = Now < 0 ? "warmup" : "closed";
        R.Index = I;
        R.Pool = Stream[I];
        R.Task = Req.Task->name();
        R.Sched = R.Sent = Now;
        Conn.sendLine(solveLine(I, Req));
        if (!Conn.readLine(Line))
          die("server closed the connection");
        R.Recv = secondsSince(T0, Clock::now()) - Warmup;
        judge(Line, Req, R);
        std::lock_guard<std::mutex> Lock(M);
        Last = std::max(Last, R.Recv);
        Records.push_back(std::move(R));
      }
    });
  for (std::thread &T : Threads)
    T.join();
  NextIndex = Next;
  return Last;
}

/// Open loop over requests [\p Lo, \p Hi) of the schedule: request K is
/// sent at Offsets[K] - Offsets[Lo - 1] after the start, whatever the state
/// of earlier requests, on an idle connection when there is one (else the
/// least busy), so replies are rarely pipelined behind each other. Appends
/// the records to \p Out.
void openLoop(int Port, int Conns, const std::vector<double> &Offsets,
              size_t Lo, size_t Hi, const std::vector<RequestSpec> &Pool,
              const std::vector<size_t> &Stream, std::vector<Record> &Out) {
  struct Slot {
    std::unique_ptr<Connection> Conn;
    std::thread Reader;
    long Outstanding = 0; ///< guarded by M
  };
  std::vector<Slot> Slots(static_cast<size_t>(Conns));
  std::vector<Record> Records(Hi - Lo); ///< guarded by M
  const double Base = Lo ? Offsets[Lo - 1] : 0.0;
  std::mutex M;
  std::condition_variable AllDone;
  size_t Done = 0;
  const Clock::time_point T0 = Clock::now();

  for (Slot &S : Slots)
    S.Conn = std::make_unique<Connection>(Port);
  for (Slot &S : Slots)
    S.Reader = std::thread([&, SP = &S] {
      std::string Line;
      while (SP->Conn->readLine(Line)) {
        double Recv = secondsSince(T0, Clock::now());
        std::optional<Json> J = Json::parse(Line);
        const Json *Id = J ? J->find("id") : nullptr;
        if (!Id || !Id->isInteger() || Id->asInteger() < 0 ||
            static_cast<size_t>(Id->asInteger()) < Lo ||
            static_cast<size_t>(Id->asInteger()) >= Hi)
          die("reply without a known id: " + Line);
        size_t I = static_cast<size_t>(Id->asInteger());
        Record Outcome;
        judge(Line, Pool[Stream[I]], Outcome);
        std::lock_guard<std::mutex> Lock(M);
        Record &R = Records[I - Lo];
        R.Recv = Recv;
        R.Status = Outcome.Status;
        R.SolveMs = Outcome.SolveMs;
        R.QueueMs = Outcome.QueueMs;
        R.Nodes = Outcome.Nodes;
        R.Programs = Outcome.Programs;
        R.Answer = Outcome.Answer;
        R.DeadlineExpired = Outcome.DeadlineExpired;
        --SP->Outstanding;
        if (++Done == Records.size())
          AllDone.notify_all();
      }
    });

  for (size_t I = Lo; I < Hi; ++I) {
    Clock::time_point Due =
        T0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(Offsets[I] - Base));
    std::this_thread::sleep_until(Due);
    Slot *Pick = nullptr;
    {
      std::lock_guard<std::mutex> Lock(M);
      for (Slot &S : Slots)
        if (!Pick || S.Outstanding < Pick->Outstanding)
          Pick = &S;
      ++Pick->Outstanding;
      Record &R = Records[I - Lo];
      R.Phase = "open";
      R.Index = I;
      R.Pool = Stream[I];
      R.Task = Pool[Stream[I]].Task->name();
      R.Sched = Offsets[I] - Base;
      R.Sent = secondsSince(T0, Clock::now());
      R.Status = "lost";
    }
    Pick->Conn->sendLine(solveLine(I, Pool[Stream[I]]));
  }
  {
    std::unique_lock<std::mutex> Lock(M);
    if (!AllDone.wait_for(Lock, std::chrono::seconds(60),
                          [&] { return Done == Records.size(); }))
      std::fprintf(stderr, "open loop: %zu of %zu replies missing\n",
                   Records.size() - Done, Records.size());
  }
  for (Slot &S : Slots) {
    S.Conn->shutdownRead();
    S.Reader.join();
  }
  Out.insert(Out.end(), Records.begin(), Records.end());
}

/// The server's own `stats` counters.
Json serverStats(int Port) {
  Connection Conn(Port);
  Conn.sendLine(R"({"id":0,"method":"stats"})");
  std::string Line;
  if (!Conn.readLine(Line))
    die("no reply to stats");
  std::optional<Json> J = Json::parse(Line);
  const Json *Res = J ? J->find("result") : nullptr;
  if (!Res)
    die("bad stats reply: " + Line);
  return *Res;
}

std::vector<double> readOffsets(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    die("cannot read " + Path);
  std::vector<double> Out;
  for (double V; In >> V;)
    Out.push_back(V);
  return Out;
}

/// Closed-loop requests sent before measuring, while a fresh server fills
/// its program arena and caches.
constexpr double WarmupSeconds = 1.0;
/// Set-ups timed after each serving block, while the server is idle.
constexpr int SetupsPerBlock = 10;
/// The corpus the library is learned on and dc_serve serves by default
/// (makeListDomain's default seed; logo has one fixed corpus).
constexpr unsigned CorpusSeed = 1;

/// Times one set-up of the whole user path and appends its seconds and its
/// domain-build milliseconds.
void timeSetup(const serve::ServiceConfig &SC, Json &SetupS, Json &BuildMs) {
  Clock::time_point T0 = Clock::now();
  DomainSpec D = buildDomain(SC.DomainName, CorpusSeed);
  Clock::time_point T1 = Clock::now();
  Grammar G = Grammar::uniform(D.BasePrimitives);
  std::string Err;
  std::unique_ptr<serve::Service> Svc = serve::Service::create(SC, &Err);
  Clock::time_point T2 = Clock::now();
  if (G.productions().empty())
    die("empty initial grammar");
  if (!Svc || !Svc->recognitionModel())
    die("Service::create: " + Err);
  BuildMs.push(Json::number(1e3 * secondsSince(T0, T1)));
  SetupS.push(Json::number(secondsSince(T0, T2)));
}

/// The deadline every request carries; it never fires at these rates.
constexpr long RequestTimeoutMs = 60000;

int cmdClient(Args &A) {
  const int Port = static_cast<int>(A.num("port"));
  const std::string DomainName = A.str("domain");
  const unsigned Seed = static_cast<unsigned>(A.num("seed"));
  const std::string Schedule = A.str("schedule");
  const long NodeBudget = A.num("node-budget");
  const std::string OutPath = A.str("out");
  serve::ServiceConfig SC;
  SC.DomainName = DomainName;
  SC.CheckpointPath = A.str("checkpoint");
  SC.ModelPath = A.str("model");
  A.finish();
  // One client with no more connections than cores. The closed loop uses
  // them all so the workers never idle between requests: capacity then
  // measures the search path, not the host's vCPU wake-up latency.
  const int Conns = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));

  std::vector<RequestSpec> Pool =
      requestPool(DomainName, NodeBudget, RequestTimeoutMs);
  std::vector<double> Offsets = readOffsets(Schedule);
  const std::vector<size_t> ClosedStream =
      drawStream(Pool.size(), Seed, 1, 1u << 20);
  const std::vector<size_t> OpenStream =
      drawStream(Pool.size(), Seed, 2, Offsets.size());
  SpanLog Spans;
  std::vector<Record> Records;
  size_t ClosedNext = 0;
  double ClosedS = 0;
  Json SetupS = Json::array(), BuildMs = Json::array();
  // run.py drives the serving blocks, one stdin line each:
  // "<closed-loop ms> <first> <end>" runs a closed loop, then open-loop
  // requests [first, end) of the schedule, then the set-ups, and answers
  // with one line. Between blocks it runs its learning repetitions, so
  // every timed metric samples the whole run. EOF ends the load.
  std::string Line;
  for (int B = 0; std::getline(std::cin, Line); ++B) {
    std::istringstream In(Line);
    long ClosedMs = 0;
    size_t Lo = 0, Hi = 0;
    if (!(In >> ClosedMs >> Lo >> Hi) || Lo > Hi || Hi > Offsets.size())
      die("bad block '" + Line + "'");
    {
      SpanLog::Scope S(Spans, "closed loop");
      ClosedS += closedLoop(Port, Conns, B == 0 ? WarmupSeconds : 0.0,
                            static_cast<double>(ClosedMs) / 1e3, Pool,
                            ClosedStream, ClosedNext, Records);
    }
    {
      SpanLog::Scope S(Spans, "open loop");
      openLoop(Port, Conns, Offsets, Lo, Hi, Pool, OpenStream, Records);
    }
    for (int I = 0; I < SetupsPerBlock; ++I) {
      SpanLog::Scope S(Spans, "setup");
      timeSetup(SC, SetupS, BuildMs);
    }
    Json Done = Json::object();
    Done.set("block", Json::integer(B));
    printJson(Done);
  }
  Json Stats = serverStats(Port);

  std::ofstream Out(OutPath);
  for (const Record &R : Records)
    Out << recordJson(R).dump() << '\n';
  if (!Out)
    die("cannot write " + OutPath);
  Json Summary = Json::object();
  Summary.set("closed_s", Json::number(ClosedS));
  Summary.set("setup_s", std::move(SetupS));
  Summary.set("domain_build_ms", std::move(BuildMs));
  Summary.set("server_stats", std::move(Stats));
  Summary.set("spans", Spans.toJson());
  printJson(Summary);
  return 0;
}

//===----------------------------------------------------------------------===//
// replay
//===----------------------------------------------------------------------===//

/// Replay threads: dc_serve's default worker count.
constexpr int ReplayThreads = 2;
/// Timed checkpoint loads; run.py reports their median.
constexpr int Loads = 9;

int cmdReplay(Args &A) {
  const std::string DomainName = A.str("domain");
  const unsigned Seed = static_cast<unsigned>(A.num("seed"));
  const std::string CheckpointPath = A.str("checkpoint");
  const std::string ModelPath = A.str("model");
  const long Count = A.num("count");
  const long NodeBudget = A.num("node-budget");
  A.finish();

  // Timed checkpoint loads: the grammar file plus the model trained on it.
  DomainSpec D = buildDomain(DomainName, 0);
  Json LoadMs = Json::array();
  for (int I = 0; I < Loads; ++I) {
    Clock::time_point T0 = Clock::now();
    std::string Err;
    std::optional<Grammar> G = loadGrammarFile(CheckpointPath, &Err);
    if (!G)
      die("loadGrammarFile: " + Err);
    std::ifstream In(ModelPath);
    std::unique_ptr<RecognitionModel> M =
        loadRecognitionModel(*G, *D.Featurizer, In, &Err);
    if (!M)
      die("loadRecognitionModel: " + Err);
    LoadMs.push(Json::number(1e3 * secondsSince(T0, Clock::now())));
  }

  serve::ServiceConfig SC;
  SC.DomainName = DomainName;
  SC.CheckpointPath = CheckpointPath;
  SC.ModelPath = ModelPath;
  std::string Err;
  std::unique_ptr<serve::Service> Svc = serve::Service::create(SC, &Err);
  if (!Svc || !Svc->recognitionModel())
    die("Service::create: " + Err);

  std::vector<RequestSpec> Pool = requestPool(DomainName, NodeBudget, 0);
  std::vector<size_t> Stream =
      drawStream(Pool.size(), Seed, 2, static_cast<size_t>(Count));
  std::vector<double> PredictUs(Stream.size()), SearchMs(Stream.size());
  std::vector<int> SolvedFlags(Stream.size());
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Workers;
  for (int W = 0; W < ReplayThreads; ++W)
    Workers.emplace_back([&] {
      for (size_t I; (I = Next.fetch_add(1)) < Stream.size();) {
        const TaskPtr &T = Pool[Stream[I]].Task;
        Clock::time_point T0 = Clock::now();
        ContextualGrammar Guide = Svc->recognitionModel()->predict(*T);
        Clock::time_point T1 = Clock::now();
        serve::Outcome O = Svc->solve(T, 1e9, NodeBudget, 0, &Guide);
        Clock::time_point T2 = Clock::now();
        PredictUs[I] = 1e6 * secondsSince(T0, T1);
        SearchMs[I] = 1e3 * secondsSince(T1, T2);
        SolvedFlags[I] = O.TheStatus == serve::Outcome::Status::Solved;
      }
    });
  for (std::thread &W : Workers)
    W.join();

  Json Out = Json::object();
  auto Arr = [](const auto &Xs) {
    Json J = Json::array();
    for (auto X : Xs)
      J.push(Json::number(static_cast<double>(X)));
    return J;
  };
  Out.set("load_ms", std::move(LoadMs));
  Out.set("predict_us", Arr(PredictUs));
  Out.set("search_ms", Arr(SearchMs));
  Out.set("solved", Arr(SolvedFlags));
  printJson(Out);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    std::fprintf(stderr, "usage: %s learn|client|replay --flag value ...\n",
                 Argv[0]);
    return 2;
  }
  Args A(Argc, Argv);
  std::string Cmd = Argv[1];
  if (Cmd == "learn")
    return cmdLearn(A);
  if (Cmd == "client")
    return cmdClient(A);
  if (Cmd == "replay")
    return cmdReplay(A);
  std::fprintf(stderr, "unknown subcommand '%s'\n", Cmd.c_str());
  return 2;
}
