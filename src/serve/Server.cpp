//===- serve/Server.cpp - TCP front end for the synthesis service ---------===//

#include "serve/Server.h"

#include "obs/Metrics.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>

using namespace dc;
using namespace dc::serve;

using Clock = std::chrono::steady_clock;

namespace {

/// Reject lines longer than this before parsing (a malformed or
/// malicious client cannot balloon reader memory).
constexpr size_t MaxLineBytes = 1 << 20;

double millisBetween(Clock::time_point From, Clock::time_point To) {
  return std::chrono::duration<double, std::milli>(To - From).count();
}

} // namespace

//===----------------------------------------------------------------------===//
// Connection and queue item
//===----------------------------------------------------------------------===//

/// One client connection. Shared between its reader thread and any worker
/// holding a pending request from it; the write mutex keeps response
/// lines atomic when pipelined solves complete out of order.
struct Server::Connection {
  explicit Connection(int Fd) : Fd(Fd) {}
  ~Connection() {
    if (Fd >= 0)
      ::close(Fd);
  }

  /// Writes one response line ("<json>\n"). Best-effort: a client that
  /// disconnected mid-solve just loses its answer.
  void sendLine(const std::string &Body) {
    std::lock_guard<std::mutex> Lock(WriteMutex);
    if (Closed.load(std::memory_order_acquire))
      return;
    std::string Line = Body;
    Line.push_back('\n');
    size_t Off = 0;
    while (Off < Line.size()) {
      // MSG_NOSIGNAL: a vanished peer must surface as an error code, not
      // a process-killing SIGPIPE.
      ssize_t N = ::send(Fd, Line.data() + Off, Line.size() - Off,
                         MSG_NOSIGNAL);
      if (N <= 0) {
        Closed.store(true, std::memory_order_release);
        return;
      }
      Off += static_cast<size_t>(N);
    }
  }

  /// Wakes the blocked reader and stops further writes; the fd itself is
  /// closed by the destructor (readers/workers may still hold the
  /// shared_ptr).
  void hangUp() {
    Closed.store(true, std::memory_order_release);
    ::shutdown(Fd, SHUT_RDWR);
  }

  int Fd;
  std::mutex WriteMutex;
  std::atomic<bool> Closed{false};
};

/// One admitted solve request waiting for a worker. Svc is the registry
/// snapshot captured at admission: the search runs — and answers — on
/// this epoch even if a reload publishes a newer one first, and the
/// refcount keeps the old epoch alive exactly as long as someone is
/// still searching on it.
struct Server::Pending {
  Json Id;
  TaskPtr Task;
  ServiceRegistry::Snapshot Svc;
  Clock::time_point Admitted;
  Clock::time_point Deadline;
  long NodeBudget = 0;
  int FrontierSize = 0;
  std::shared_ptr<Connection> Conn;
};

//===----------------------------------------------------------------------===//
// Lifecycle
//===----------------------------------------------------------------------===//

// waitForShutdown's handshake lives outside the class so Server.h stays
// free of <condition_variable>; one server == one process in practice.
namespace {
std::mutex ShutdownCvMutex;
std::condition_variable ShutdownCv;
} // namespace

std::unique_ptr<Server> Server::start(ServiceRegistry &Registry,
                                      const ServerConfig &Config,
                                      std::string *ErrorOut) {
  // Unconditional write: a caller reusing the error buffer must not see
  // a stale message from a previous failed start.
  auto Reject = [&](const std::string &Msg) -> std::unique_ptr<Server> {
    if (ErrorOut)
      *ErrorOut = Msg;
    return nullptr;
  };
  // A failed system call also reports errno's text.
  auto Fail = [&](const std::string &Msg) {
    return Reject(Msg + " (" + std::strerror(errno) + ")");
  };

  if (Config.Port < 0 || Config.Port > 65535)
    return Reject("port " + std::to_string(Config.Port) +
                  " is outside 0-65535");
  if (Config.Workers < 1)
    return Reject("workers must be at least 1 (got " +
                  std::to_string(Config.Workers) + ")");
  if (Config.QueueCapacity < 1)
    return Reject("queue capacity must be at least 1 (got " +
                  std::to_string(Config.QueueCapacity) + ")");
  if (Config.DefaultTimeoutMs < 0)
    return Reject("default timeout must be non-negative (got " +
                  std::to_string(Config.DefaultTimeoutMs) + " ms)");
  if (!Registry.defaultService())
    return Reject("service registry is empty (install a domain first)");

  std::unique_ptr<Server> S(new Server());
  S->Registry = &Registry;
  S->Config = Config;
  S->Queue = std::make_unique<BoundedQueue<Pending>>(
      static_cast<size_t>(Config.QueueCapacity));

  S->ListenFd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (S->ListenFd < 0)
    return Fail("socket() failed");
  int One = 1;
  ::setsockopt(S->ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));

  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(static_cast<uint16_t>(Config.Port));
  if (::inet_pton(AF_INET, Config.BindAddress.c_str(), &Addr.sin_addr) != 1)
    return Fail("bad bind address '" + Config.BindAddress + "'");
  if (::bind(S->ListenFd, reinterpret_cast<sockaddr *>(&Addr),
             sizeof(Addr)) != 0)
    return Fail("bind() failed");
  if (::listen(S->ListenFd, 64) != 0)
    return Fail("listen() failed");

  sockaddr_in Bound{};
  socklen_t BoundLen = sizeof(Bound);
  if (::getsockname(S->ListenFd, reinterpret_cast<sockaddr *>(&Bound),
                    &BoundLen) != 0)
    return Fail("getsockname() failed");
  S->BoundPort = ntohs(Bound.sin_port);

  if (::pipe(S->WakePipe) != 0)
    return Fail("pipe() failed");

  for (int I = 0; I < S->Config.Workers; ++I)
    S->Workers.emplace_back([Srv = S.get()] { Srv->workerLoop(); });
  S->Acceptor = std::thread([Srv = S.get()] { Srv->acceptLoop(); });
  return S;
}

Server::~Server() {
  requestShutdown();
  teardown();
}

void Server::requestShutdown() {
  bool Expected = false;
  if (!ShutdownRequested.compare_exchange_strong(Expected, true,
                                                 std::memory_order_acq_rel))
    return;
  // Stop admitting the moment shutdown is requested; workers keep
  // draining what was already accepted.
  Queue->close();
  char Byte = 1;
  [[maybe_unused]] ssize_t N = ::write(WakePipe[1], &Byte, 1);
  ShutdownCv.notify_all();
}

void Server::waitForShutdown() {
  {
    std::unique_lock<std::mutex> Lock(ShutdownCvMutex);
    ShutdownCv.wait(Lock, [&] {
      return ShutdownRequested.load(std::memory_order_acquire);
    });
  }
  teardown();
}

void Server::teardown() {
  std::lock_guard<std::mutex> Lock(TeardownMutex);
  if (TornDown.exchange(true))
    return;

  // 1. Stop accepting: the acceptor wakes via the self-pipe and exits.
  if (Acceptor.joinable())
    Acceptor.join();
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
  }

  // 2. Drain: the queue is already closed (requestShutdown); workers
  //    finish every admitted request, answer it, then exit on nullopt.
  Queue->close(); // direct teardown() callers skipped requestShutdown
  for (std::thread &W : Workers)
    if (W.joinable())
      W.join();
  Workers.clear();

  // 3. Hang up on clients (readers unblock from recv) and join readers.
  {
    std::lock_guard<std::mutex> CLock(ConnectionsMutex);
    for (const std::weak_ptr<Connection> &WC : Connections)
      if (std::shared_ptr<Connection> C = WC.lock())
        C->hangUp();
  }
  std::list<Reader> ToJoin;
  {
    std::lock_guard<std::mutex> RLock(ReadersMutex);
    ToJoin.swap(Readers);
  }
  for (Reader &R : ToJoin)
    R.Thread.join();

  for (int &Fd : WakePipe)
    if (Fd >= 0) {
      ::close(Fd);
      Fd = -1;
    }
}

//===----------------------------------------------------------------------===//
// Accept / read
//===----------------------------------------------------------------------===//

void Server::acceptLoop() {
  while (!shuttingDown()) {
    pollfd Fds[2] = {{ListenFd, POLLIN, 0}, {WakePipe[0], POLLIN, 0}};
    int N = ::poll(Fds, 2, /*timeout ms*/ 500);
    if (shuttingDown())
      break;
    if (N <= 0)
      continue;
    if (!(Fds[0].revents & POLLIN))
      continue;
    int ClientFd = ::accept(ListenFd, nullptr, nullptr);
    if (ClientFd < 0)
      continue;
    // Each response is one send() of a whole line, so Nagle's algorithm
    // could only hold a reply back behind the client's delayed ACK of
    // the previous one.
    int One = 1;
    ::setsockopt(ClientFd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    auto Conn = std::make_shared<Connection>(ClientFd);
    {
      std::lock_guard<std::mutex> Lock(ConnectionsMutex);
      // Compact dead entries so a long-lived server doesn't accumulate
      // one weak_ptr per historical connection.
      Connections.erase(std::remove_if(Connections.begin(),
                                       Connections.end(),
                                       [](const std::weak_ptr<Connection> &W) {
                                         return W.expired();
                                       }),
                        Connections.end());
      Connections.push_back(Conn);
    }
    OpenConnections.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> Lock(ReadersMutex);
    // Join the readers whose connections have closed: an exited thread
    // keeps its stack until it is joined.
    Readers.remove_if([](Reader &R) {
      if (!R.Done.load(std::memory_order_acquire))
        return false;
      R.Thread.join();
      return true;
    });
    Reader &R = Readers.emplace_back();
    R.Thread = std::thread([this, Conn = std::move(Conn), &R]() mutable {
      readerLoop(std::move(Conn));
      R.Done.store(true, std::memory_order_release);
    });
  }
}

void Server::readerLoop(std::shared_ptr<Connection> Conn) {
  std::string Buffer;
  char Chunk[4096];
  while (!Conn->Closed.load(std::memory_order_acquire)) {
    ssize_t N = ::recv(Conn->Fd, Chunk, sizeof(Chunk), 0);
    if (N <= 0)
      break;
    Buffer.append(Chunk, static_cast<size_t>(N));
    size_t Start = 0;
    for (size_t NL; (NL = Buffer.find('\n', Start)) != std::string::npos;
         Start = NL + 1) {
      std::string Line = Buffer.substr(Start, NL - Start);
      if (!Line.empty() && Line.back() == '\r')
        Line.pop_back();
      if (!Line.empty())
        handleLine(Conn, Line);
    }
    Buffer.erase(0, Start);
    if (Buffer.size() > MaxLineBytes) {
      BadRequests.fetch_add(1, std::memory_order_relaxed);
      Conn->sendLine(makeErrorResponse(Json::null(), errc::BadRequest,
                                       "request line exceeds " +
                                           std::to_string(MaxLineBytes) +
                                           " bytes")
                         .dump());
      break;
    }
  }
  Conn->hangUp();
  OpenConnections.fetch_sub(1, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Request handling
//===----------------------------------------------------------------------===//

void Server::handleLine(const std::shared_ptr<Connection> &Conn,
                        const std::string &Line) {
  std::string Err;
  std::optional<Request> Req = parseRequestLine(Line, &Err);
  if (!Req) {
    BadRequests.fetch_add(1, std::memory_order_relaxed);
    Conn->sendLine(
        makeErrorResponse(Json::null(), errc::BadRequest, Err).dump());
    return;
  }
  if (Req->Method == "health") {
    // Legacy top-level fields describe the default domain; "domains"
    // lists every loaded domain with its current epoch.
    ServiceRegistry::Snapshot Default = Registry->defaultService();
    Json R = Json::object();
    R.set("status", Json::string("ok"));
    R.set("domain", Json::string(Default->config().DomainName));
    R.set("model", Json::boolean(Default->hasRecognitionModel()));
    R.set("productions",
          Json::integer(static_cast<long long>(
              Default->grammar().productions().size())));
    Json Domains = Json::object();
    for (const std::string &Name : Registry->domainNames()) {
      ServiceRegistry::Snapshot Svc = Registry->lookup(Name);
      if (!Svc)
        continue;
      Json D = Json::object();
      D.set("epoch",
            Json::integer(static_cast<long long>(Svc->epoch())));
      D.set("productions",
            Json::integer(static_cast<long long>(
                Svc->grammar().productions().size())));
      D.set("model", Json::boolean(Svc->hasRecognitionModel()));
      Domains.set(Name, std::move(D));
    }
    R.set("domains", std::move(Domains));
    R.set("shutting_down", Json::boolean(shuttingDown()));
    Conn->sendLine(makeOkResponse(Req->Id, std::move(R)).dump());
    return;
  }
  if (Req->Method == "stats") {
    Conn->sendLine(makeOkResponse(Req->Id, buildStats()).dump());
    return;
  }
  if (Req->Method == "solve") {
    handleSolve(Conn, Req->Id, Req->Params);
    return;
  }
  if (Req->Method == "reload") {
    handleReload(Conn, Req->Id, Req->Params);
    return;
  }
  BadRequests.fetch_add(1, std::memory_order_relaxed);
  Conn->sendLine(makeErrorResponse(Req->Id, errc::UnknownMethod,
                                   "unknown method '" + Req->Method + "'")
                     .dump());
}

void Server::handleSolve(const std::shared_ptr<Connection> &Conn,
                         const Json &Id, const Json &Params) {
  std::string Err;
  std::optional<SolveParams> SP = parseSolveParams(Params, &Err);
  if (!SP) {
    BadRequests.fetch_add(1, std::memory_order_relaxed);
    Conn->sendLine(makeErrorResponse(Id, errc::BadRequest, Err).dump());
    return;
  }

  // Route to a domain epoch *now*: this snapshot is the request's world
  // for its entire life, however many reloads land while it waits.
  ServiceRegistry::Snapshot Svc = SP->Domain.empty()
                                      ? Registry->defaultService()
                                      : Registry->lookup(SP->Domain);
  if (!Svc) {
    Rejected.fetch_add(1, std::memory_order_relaxed);
    Conn->sendLine(makeErrorResponse(Id, errc::UnknownDomain,
                                     "no domain named '" + SP->Domain +
                                         "' is loaded")
                       .dump());
    return;
  }

  TaskPtr Task = SP->InlineTask;
  if (!Task) {
    Task = Svc->taskByName(SP->TaskName);
    if (!Task) {
      Rejected.fetch_add(1, std::memory_order_relaxed);
      Conn->sendLine(makeErrorResponse(Id, errc::UnknownTask,
                                       "no task named '" + SP->TaskName +
                                           "' in the corpus")
                         .dump());
      return;
    }
  }

  long TimeoutMs =
      SP->TimeoutMs >= 0 ? SP->TimeoutMs : Config.DefaultTimeoutMs;
  Pending P;
  P.Id = Id;
  P.Task = std::move(Task);
  P.Svc = Svc;
  P.Admitted = Clock::now();
  // The deadline covers the request's whole life in the server — queue
  // wait included — so an admitted-then-stuck request still terminates.
  P.Deadline = P.Admitted + std::chrono::milliseconds(TimeoutMs);
  P.NodeBudget = SP->NodeBudget;
  P.FrontierSize = SP->FrontierSize;
  P.Conn = Conn;

  PushResult Admission = Queue->tryPush(std::move(P));
  if (Admission != PushResult::Ok) {
    // The reason was decided under the queue lock: no race against a
    // concurrent close() can misreport full-vs-closed.
    Rejected.fetch_add(1, std::memory_order_relaxed);
    if (Admission == PushResult::Closed)
      Conn->sendLine(makeErrorResponse(Id, errc::ShuttingDown,
                                       "server is shutting down")
                         .dump());
    else
      Conn->sendLine(makeErrorResponse(
                         Id, errc::Overloaded,
                         "request queue is full (capacity " +
                             std::to_string(Queue->capacity()) + ")")
                         .dump());
    return;
  }
  bumpEpochCounter(*Svc, &EpochCounters::Accepted);
  size_t Depth = Queue->depth();
  obs::gaugeSet("serve.queue_depth", static_cast<double>(Depth));
  obs::observe("serve.queue_depth", static_cast<double>(Depth));
}

void Server::handleReload(const std::shared_ptr<Connection> &Conn,
                          const Json &Id, const Json &Params) {
  std::string Err;
  std::optional<ReloadParams> RP = parseReloadParams(Params, &Err);
  if (!RP) {
    BadRequests.fetch_add(1, std::memory_order_relaxed);
    Conn->sendLine(makeErrorResponse(Id, errc::BadRequest, Err).dump());
    return;
  }
  ServiceRegistry::Snapshot Cur = RP->Domain.empty()
                                      ? Registry->defaultService()
                                      : Registry->lookup(RP->Domain);
  if (!Cur) {
    FailedReloads.fetch_add(1, std::memory_order_relaxed);
    Conn->sendLine(makeErrorResponse(Id, errc::UnknownDomain,
                                     "no domain named '" + RP->Domain +
                                         "' is loaded")
                       .dump());
    return;
  }
  ServiceConfig NewConfig = Cur->config();
  if (RP->Checkpoint)
    NewConfig.CheckpointPath = *RP->Checkpoint;
  if (RP->Model)
    NewConfig.ModelPath = *RP->Model;
  if (RP->Seed)
    NewConfig.DomainSeed = *RP->Seed;

  // Load + validate on this reader thread (workers and other
  // connections are untouched); publish only on success.
  ServiceRegistry::Snapshot Fresh =
      Registry->reload(NewConfig.DomainName, NewConfig, &Err);
  if (!Fresh) {
    FailedReloads.fetch_add(1, std::memory_order_relaxed);
    Conn->sendLine(makeErrorResponse(Id, errc::ReloadFailed, Err).dump());
    return;
  }
  Reloads.fetch_add(1, std::memory_order_relaxed);
  Json R = Json::object();
  R.set("domain", Json::string(Fresh->config().DomainName));
  R.set("epoch", Json::integer(static_cast<long long>(Fresh->epoch())));
  R.set("productions",
        Json::integer(static_cast<long long>(
            Fresh->grammar().productions().size())));
  R.set("model", Json::boolean(Fresh->hasRecognitionModel()));
  Conn->sendLine(makeOkResponse(Id, std::move(R)).dump());
}

void Server::bumpEpochCounter(const Service &Svc,
                              long EpochCounters::*Field) {
  std::lock_guard<std::mutex> Lock(EpochStatsMutex);
  EpochStats[{Svc.config().DomainName, Svc.epoch()}].*Field += 1;
}

//===----------------------------------------------------------------------===//
// Workers
//===----------------------------------------------------------------------===//

void Server::workerLoop() {
  while (std::optional<Pending> P = Queue->pop()) {
    Clock::time_point Dequeued = Clock::now();
    double QueueMs = millisBetween(P->Admitted, Dequeued);
    double RemainingSeconds =
        std::chrono::duration<double>(P->Deadline - Dequeued).count();

    // Search on the epoch captured at admission, never the current one.
    Outcome O = P->Svc->solve(P->Task, RemainingSeconds, P->NodeBudget,
                              P->FrontierSize);
    Clock::time_point Done = Clock::now();
    double SolveMs = millisBetween(Dequeued, Done);

    obs::observe("serve.queue_ms", QueueMs);
    obs::observe("serve.solve_ms", SolveMs);
    obs::observe("serve.latency_ms", millisBetween(P->Admitted, Done));
    obs::gaugeSet("serve.queue_depth",
                  static_cast<double>(Queue->depth()));

    if (O.TheStatus == Outcome::Status::Timeout) {
      bumpEpochCounter(*P->Svc, &EpochCounters::Timeout);
      P->Conn->sendLine(
          makeErrorResponse(P->Id, errc::Timeout,
                            "deadline expired after " +
                                std::to_string(
                                    static_cast<long>(QueueMs + SolveMs)) +
                                "ms without a solution")
              .dump());
      continue;
    }

    Json Stats = Json::object();
    Stats.set("nodes_expanded", Json::integer(O.NodesExpanded));
    Stats.set("programs_enumerated", Json::integer(O.ProgramsEnumerated));
    Stats.set("queue_ms", Json::number(QueueMs));
    Stats.set("solve_ms", Json::number(SolveMs));

    Json Programs = Json::array();
    for (const FrontierEntry &E : O.Beam.entries()) {
      Json Entry = Json::object();
      Entry.set("program", Json::string(E.Program->show()));
      Entry.set("log_prior", Json::number(E.LogPrior));
      Entry.set("log_likelihood", Json::number(E.LogLikelihood));
      Programs.push(std::move(Entry));
    }

    bool SolvedNow = O.TheStatus == Outcome::Status::Solved;
    bumpEpochCounter(*P->Svc, SolvedNow ? &EpochCounters::Solved
                                        : &EpochCounters::NoSolution);

    Json Result = Json::object();
    Result.set("status",
               Json::string(SolvedNow ? "solved" : "no_solution"));
    Result.set("domain", Json::string(P->Svc->config().DomainName));
    Result.set("epoch",
               Json::integer(static_cast<long long>(P->Svc->epoch())));
    Result.set("programs", std::move(Programs));
    Result.set("deadline_expired", Json::boolean(O.DeadlineExpired));
    Result.set("stats", std::move(Stats));
    P->Conn->sendLine(makeOkResponse(P->Id, std::move(Result)).dump());
  }
}

//===----------------------------------------------------------------------===//
// Stats
//===----------------------------------------------------------------------===//

ServerStats Server::stats() const { return totals(epochStats()); }

ServerStats Server::totals(const EpochMap &Epochs) const {
  ServerStats S;
  for (const auto &[Key, C] : Epochs) {
    S.Accepted += C.Accepted;
    S.Solved += C.Solved;
    S.NoSolution += C.NoSolution;
    S.Timeout += C.Timeout;
  }
  S.Rejected = Rejected.load(std::memory_order_relaxed);
  S.BadRequest = BadRequests.load(std::memory_order_relaxed);
  S.Reloads = Reloads.load(std::memory_order_relaxed);
  S.FailedReloads = FailedReloads.load(std::memory_order_relaxed);
  S.QueueDepth = Queue->depth();
  S.Connections = OpenConnections.load(std::memory_order_relaxed);
  return S;
}

Server::EpochMap Server::epochStats() const {
  std::lock_guard<std::mutex> Lock(EpochStatsMutex);
  return EpochStats;
}

Json Server::buildStats() const {
  // One snapshot of the epoch rows gives both the rows and the totals, so
  // the totals always equal the sums of the rows rendered below.
  EpochMap ES = epochStats();
  ServerStats S = totals(ES);
  Json R = Json::object();
  R.set("accepted", Json::integer(S.Accepted));
  R.set("rejected", Json::integer(S.Rejected));
  R.set("solved", Json::integer(S.Solved));
  R.set("no_solution", Json::integer(S.NoSolution));
  R.set("timeout", Json::integer(S.Timeout));
  R.set("bad_request", Json::integer(S.BadRequest));
  R.set("reloads", Json::integer(S.Reloads));
  R.set("failed_reloads", Json::integer(S.FailedReloads));
  R.set("queue_depth", Json::integer(static_cast<long long>(S.QueueDepth)));
  R.set("queue_capacity",
        Json::integer(static_cast<long long>(Queue->capacity())));
  R.set("connections", Json::integer(S.Connections));
  R.set("workers", Json::integer(Config.Workers));
  R.set("shutting_down", Json::boolean(shuttingDown()));

  // Per-domain: current epoch plus the outcome history of every epoch
  // this server has served (reloads never zero counters).
  Json Domains = Json::object();
  for (const std::string &Name : Registry->domainNames()) {
    ServiceRegistry::Snapshot Svc = Registry->lookup(Name);
    if (!Svc)
      continue;
    Json D = Json::object();
    D.set("epoch", Json::integer(static_cast<long long>(Svc->epoch())));
    D.set("productions",
          Json::integer(static_cast<long long>(
              Svc->grammar().productions().size())));
    D.set("model", Json::boolean(Svc->hasRecognitionModel()));
    Json History = Json::array();
    for (const auto &[Key, C] : ES) {
      if (Key.first != Name)
        continue;
      Json E = Json::object();
      E.set("epoch", Json::integer(static_cast<long long>(Key.second)));
      E.set("accepted", Json::integer(C.Accepted));
      E.set("solved", Json::integer(C.Solved));
      E.set("no_solution", Json::integer(C.NoSolution));
      E.set("timeout", Json::integer(C.Timeout));
      History.push(std::move(E));
    }
    D.set("epochs", std::move(History));
    Domains.set(Name, std::move(D));
  }
  R.set("domains", std::move(Domains));
  return R;
}
