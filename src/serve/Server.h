//===- serve/Server.h - TCP front end for the synthesis service -----------===//
//
// Part of the DreamCoder C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The network layer of dc_serve: a line-delimited-JSON TCP server over a
/// ServiceRegistry of loaded Service epochs. Thread architecture
/// (DESIGN.md §9):
///
///   acceptor ──► one reader thread per connection ──► BoundedQueue
///                                                          │
///                                     worker pool ◄────────┘
///
/// Readers parse and validate requests and answer health/stats inline
/// (those never block on search capacity); solve requests resolve their
/// domain to a registry snapshot and are stamped with both that epoch
/// and their wall-clock deadline at *admission*, then enqueued — a
/// reload that publishes a new epoch never perturbs admitted work.
/// Admission control is the queue bound: a full queue rejects
/// immediately with `overloaded` — saturation surfaces as a structured
/// error the client can back off on, not as unbounded queueing delay.
/// Workers re-check the deadline at dequeue (a request that spent its
/// budget queued gets `timeout` without searching) and pass the
/// remainder into enumeration.
///
/// `reload` requests run on the requesting connection's reader thread:
/// checkpoint + model I/O and validation never touch the acceptor, the
/// workers, or any other connection, and a failed load publishes
/// nothing (`reload_failed`; the old epoch keeps serving).
///
/// Graceful shutdown (requestShutdown, or shutdown() directly): stop
/// accepting connections, reject new solves with `shutting_down`, let
/// workers drain every admitted request, then close connections and
/// join all threads. Admitted work is never dropped.
///
/// Responses may interleave on a connection (two pipelined solves finish
/// out of order); the per-connection write lock keeps each response line
/// atomic and clients match responses to requests by id.
///
//===----------------------------------------------------------------------===//

#ifndef DC_SERVE_SERVER_H
#define DC_SERVE_SERVER_H

#include "serve/Protocol.h"
#include "serve/RequestQueue.h"
#include "serve/Service.h"

#include <atomic>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace dc::serve {

/// Network/runtime knobs (the rest of the dc_serve command line).
struct ServerConfig {
  /// Port to bind; 0 asks the kernel for an ephemeral port (tests/CI —
  /// read the chosen port from port()).
  int Port = 0;
  std::string BindAddress = "127.0.0.1";
  int Workers = 2;          ///< search worker threads
  int QueueCapacity = 16;   ///< admission bound (beyond in-flight work)
  long DefaultTimeoutMs = 5000; ///< per-request deadline when unspecified
};

/// Point-in-time operational numbers (the `stats` endpoint; all counters
/// are tracked by the server itself so they work with telemetry off).
/// Every answer moves exactly one counter. Accepted, Solved, NoSolution
/// and Timeout are sums of the per-(domain, epoch) rows.
struct ServerStats {
  long Accepted = 0;
  /// overloaded + shutting_down + unknown_domain + unknown_task
  long Rejected = 0;
  long Solved = 0;
  long NoSolution = 0;
  long Timeout = 0;
  long BadRequest = 0; ///< bad_request + unknown_method
  long Reloads = 0;    ///< successful epoch swaps
  /// reload_failed, a reload naming an unknown domain, a failed SIGHUP load
  long FailedReloads = 0;
  size_t QueueDepth = 0;
  int Connections = 0;
};

/// Per-(domain, epoch) outcome counters: reloads don't zero history, so
/// operators can see exactly which answers were served by which library
/// generation (the `stats` endpoint's "domains" section).
struct EpochCounters {
  long Accepted = 0;
  long Solved = 0;
  long NoSolution = 0;
  long Timeout = 0;
};

class Server {
public:
  /// Binds and starts all threads. Null + \p ErrorOut on an out-of-range
  /// config (Port outside 0-65535, Workers or QueueCapacity below 1, a
  /// negative DefaultTimeoutMs), bind failure, or an empty registry.
  /// \p Registry must outlive the server; it may keep receiving
  /// install()/reload() calls while the server runs (that is the
  /// hot-reload path).
  static std::unique_ptr<Server> start(ServiceRegistry &Registry,
                                       const ServerConfig &Config,
                                       std::string *ErrorOut = nullptr);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// The bound port (the kernel's choice when Config.Port was 0).
  int port() const { return BoundPort; }

  /// Async-signal-friendly shutdown trigger: flips an atomic and nudges
  /// the acceptor; safe from any thread, returns immediately. The
  /// blocking teardown runs in waitForShutdown()/the destructor — never
  /// inside a reader or signal context, which would self-deadlock.
  void requestShutdown();

  /// Blocks until a shutdown request arrives (requestShutdown or a
  /// client-triggered fatal error), then performs the full graceful
  /// teardown: drain, join, close. Idempotent.
  void waitForShutdown();

  /// True once requestShutdown has been called.
  bool shuttingDown() const {
    return ShutdownRequested.load(std::memory_order_acquire);
  }

  ServerStats stats() const;

  /// Folds a reload performed outside the protocol (the SIGHUP path in
  /// dc_serve, which calls ServiceRegistry::reload directly) into the
  /// reloads/failed_reloads counters so `stats` reflects every swap.
  void noteReload(bool Success) {
    (Success ? Reloads : FailedReloads)
        .fetch_add(1, std::memory_order_relaxed);
  }

  using EpochMap =
      std::map<std::pair<std::string, unsigned long>, EpochCounters>;

  /// Snapshot of the per-(domain, epoch) counters (tests; the stats
  /// endpoint renders the same data as JSON).
  EpochMap epochStats() const;

private:
  struct Connection;
  struct Pending;
  /// A connection's reader thread. Done is the reader's last write; the
  /// acceptor joins finished readers before it starts the next one.
  struct Reader {
    std::thread Thread;
    std::atomic<bool> Done{false};
  };

  Server() = default;

  void acceptLoop();
  void readerLoop(std::shared_ptr<Connection> Conn);
  void workerLoop();
  void handleLine(const std::shared_ptr<Connection> &Conn,
                  const std::string &Line);
  void handleSolve(const std::shared_ptr<Connection> &Conn, const Json &Id,
                   const Json &Params);
  void handleReload(const std::shared_ptr<Connection> &Conn, const Json &Id,
                    const Json &Params);
  void bumpEpochCounter(const Service &Svc, long EpochCounters::*Field);
  /// stats() over one snapshot of the epoch rows.
  ServerStats totals(const EpochMap &Epochs) const;
  Json buildStats() const;
  void teardown();

  ServiceRegistry *Registry = nullptr;
  ServerConfig Config;
  int ListenFd = -1;
  int BoundPort = 0;
  /// Self-pipe: requestShutdown writes one byte; the acceptor polls the
  /// read end alongside the listen socket and wakes immediately.
  int WakePipe[2] = {-1, -1};

  std::unique_ptr<BoundedQueue<Pending>> Queue;
  std::thread Acceptor;
  std::vector<std::thread> Workers;
  std::mutex ReadersMutex;
  std::list<Reader> Readers; ///< guarded by ReadersMutex
  std::mutex ConnectionsMutex;
  std::vector<std::weak_ptr<Connection>> Connections;

  std::atomic<bool> ShutdownRequested{false};
  std::atomic<bool> TornDown{false};
  std::mutex TeardownMutex;

  // Counters for answers that have no epoch (see ServerStats).
  std::atomic<long> Rejected{0}, BadRequests{0}, Reloads{0},
      FailedReloads{0};
  std::atomic<int> OpenConnections{0};

  /// (domain, epoch) -> outcome counters; ordered so the stats endpoint
  /// renders epochs in ascending order.
  mutable std::mutex EpochStatsMutex;
  EpochMap EpochStats;
};

} // namespace dc::serve

#endif // DC_SERVE_SERVER_H
