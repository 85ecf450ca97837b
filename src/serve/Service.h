//===- serve/Service.h - Checkpoint-backed synthesis service core ---------===//
//
// Part of the DreamCoder C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transport-independent heart of dc_serve: load a domain, a learned
/// grammar checkpoint, and (optionally) a trained recognition model once
/// at startup, then answer solve() calls — each one wake-phase search
/// with a per-request wall-clock deadline and node budget.
///
/// Concurrency model: solve() is const and thread-safe; the server's
/// worker pool calls it from many threads at once. Each request searches
/// single-threaded (EnumerationParams::NumThreads = 1) so concurrency
/// comes from request-level parallelism, keeping every individual answer
/// deterministic given its budgets: two clients sending the same request
/// with the same node budget get bit-identical programs regardless of
/// server load (the deadline can only truncate a search, and a truncated
/// search reports DeadlineExpired).
///
/// Hot reload and routing: a Service is one immutable *epoch* of
/// loaded synthesis state (domain + grammar + model). ServiceRegistry
/// maps domain name -> the current epoch as a refcounted
/// shared_ptr<const Service>; the server snapshots that pointer at
/// request admission (RCU-style), so publishing a new epoch never
/// disturbs an in-flight search — old epochs die when their last
/// request finishes.
///
/// Splitting Service from Server keeps the search semantics testable
/// without sockets — ServeTest drives Service and ServiceRegistry
/// directly.
///
//===----------------------------------------------------------------------===//

#ifndef DC_SERVE_SERVICE_H
#define DC_SERVE_SERVICE_H

#include "core/Recognition.h"
#include "core/Serialization.h"
#include "domains/Domain.h"

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace dc::serve {

/// Startup configuration (what the dc_serve command line sets).
struct ServiceConfig {
  std::string DomainName = "list";
  unsigned DomainSeed = 0; ///< 0 = the domain's default corpus seed
  /// Grammar checkpoint (dc_run --checkpoint output). Empty = serve the
  /// domain's base primitives with uniform weights (useful for smoke
  /// tests; a real deployment serves a learned library).
  std::string CheckpointPath;
  /// Optional trained recognition model (saveRecognitionModel output).
  /// Must have been trained against the grammar in CheckpointPath.
  std::string ModelPath;
  long DefaultNodeBudget = 0;  ///< 0 = the domain's tuned budget
  long MaxNodeBudget = 5000000; ///< cap on client-requested budgets
};

/// One solve() answer.
struct Outcome {
  enum class Status {
    Solved,     ///< frontier is non-empty
    NoSolution, ///< budgets exhausted without a hit
    Timeout     ///< deadline expired before anything was found
  };
  Status TheStatus = Status::NoSolution;
  Frontier Beam;
  long NodesExpanded = 0;
  long ProgramsEnumerated = 0;
  /// The wall-clock deadline fired at some point during the search (also
  /// set for Solved outcomes whose beam was truncated by the deadline —
  /// the result is valid but possibly not what an unbounded search finds).
  bool DeadlineExpired = false;
};

/// Loaded, immutable synthesis state shared by all workers.
class Service {
public:
  /// Loads everything; null + \p ErrorOut on unknown domain, unreadable
  /// checkpoint, or model/grammar shape mismatch.
  static std::unique_ptr<Service> create(const ServiceConfig &Config,
                                         std::string *ErrorOut = nullptr);

  /// Runs one search. Thread-safe (const state only).
  ///
  /// \p RemainingSeconds wall-clock budget; <= 0 means the deadline
  /// already passed and an immediate Timeout is returned without
  /// searching. \p NodeBudget 0 uses the default; values are clamped to
  /// MaxNodeBudget. \p FrontierSize 0 keeps the 5 best programs.
  ///
  /// \p Guide, when non-null, is this service's own predict() for \p T
  /// computed ahead of time (a caller that times prediction and search
  /// apart); ignored when the service has no model.
  Outcome solve(const TaskPtr &T, double RemainingSeconds, long NodeBudget,
                int FrontierSize,
                const ContextualGrammar *Guide = nullptr) const;

  /// Corpus lookup by task name (O(1) via the index built at create();
  /// create() fails on duplicate names, so lookups are unambiguous);
  /// nullptr when absent.
  TaskPtr taskByName(const std::string &Name) const;

  const DomainSpec &domain() const { return *Domain; }
  const Grammar &grammar() const { return Lib; }
  bool hasRecognitionModel() const { return Model != nullptr; }
  /// The loaded model (nullptr when none), for callers that predict a
  /// guide themselves. Thread-safe for predictions.
  const RecognitionModel *recognitionModel() const { return Model.get(); }
  const ServiceConfig &config() const { return Config; }

  /// This service's generation within its registry: 1 for the initial
  /// load, bumped on every successful reload. 0 when the service was
  /// never installed in a registry (direct create(), unit tests).
  unsigned long epoch() const { return Epoch; }

private:
  friend class ServiceRegistry; ///< assigns Epoch before publishing

  Service() = default;

  ServiceConfig Config;
  unsigned long Epoch = 0;
  /// unique_ptr keeps Domain's address stable: the recognition model
  /// borrows the featurizer, and DomainSpec hands out TaskPtrs.
  std::unique_ptr<DomainSpec> Domain;
  Grammar Lib; ///< address-stable for the same reason (Model borrows it)
  std::unique_ptr<RecognitionModel> Model;
  /// Task-name index over TrainTasks + TestTasks (taskByName, and the
  /// reason create() rejects duplicate names).
  std::unordered_map<std::string, TaskPtr> TasksByName;
};

namespace detail {
/// Builds the name -> task index Service::create installs (train tasks
/// first, then test). Returns false + \p ErrorOut when two tasks share
/// a name — routing by name would be ambiguous, so the whole load is
/// rejected. Exposed for tests (real domains never collide).
bool buildTaskIndex(const DomainSpec &Domain,
                    std::unordered_map<std::string, TaskPtr> &Out,
                    std::string *ErrorOut);
} // namespace detail

/// Domain name -> current Service epoch. The server resolves every
/// solve request through a registry snapshot taken at admission:
///
///   ServiceRegistry::Snapshot S = Registry.lookup(Domain);  // refcount++
///   ... search runs entirely against *S ...                 // immutable
///                                                           // refcount--
///
/// install()/reload() publish a *new* Service under the domain name
/// atomically (swap a shared_ptr under the registry mutex); requests
/// admitted before the swap keep searching — and answering — on the
/// epoch they captured, so a reload drops neither connections nor
/// admitted work. A failed reload publishes nothing: the old epoch
/// keeps serving.
///
/// All methods are thread-safe. The expensive work (Service::create
/// reads checkpoints and models from disk) happens outside the lock;
/// only the pointer swap is serialized.
class ServiceRegistry {
public:
  using Snapshot = std::shared_ptr<const Service>;

  /// Publishes \p S as the next epoch of its configured domain name
  /// (config().DomainName), assigning the epoch number. The first
  /// install defines the default domain. Returns the published
  /// snapshot.
  Snapshot install(std::unique_ptr<Service> S);

  /// The current epoch for \p DomainName; nullptr when the domain was
  /// never installed (the `unknown_domain` error).
  Snapshot lookup(const std::string &DomainName) const;

  /// The first-installed domain's current epoch (requests that carry no
  /// "domain" field); nullptr for an empty registry.
  Snapshot defaultService() const;

  /// Installed domain names in install order (front = default).
  std::vector<std::string> domainNames() const;

  /// Rebuilds \p DomainName from \p NewConfig (typically the current
  /// config with updated paths — or unchanged, to re-read the same
  /// files after they were overwritten, the SIGHUP path). On success
  /// installs and returns the new epoch; on failure returns nullptr +
  /// \p ErrorOut and the old epoch keeps serving untouched. The domain
  /// must already be installed (reload swaps, it does not add).
  Snapshot reload(const std::string &DomainName,
                  const ServiceConfig &NewConfig,
                  std::string *ErrorOut = nullptr);

  /// reload() with the domain's current config: re-reads the same
  /// checkpoint/model files from disk.
  Snapshot reload(const std::string &DomainName,
                  std::string *ErrorOut = nullptr);

  size_t size() const;

private:
  mutable std::mutex M;
  std::vector<std::string> Order; ///< install order; [0] is the default
  std::unordered_map<std::string, Snapshot> Services;
  std::unordered_map<std::string, unsigned long> Epochs;
};

} // namespace dc::serve

#endif // DC_SERVE_SERVICE_H
