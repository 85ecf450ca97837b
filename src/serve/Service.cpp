//===- serve/Service.cpp - Checkpoint-backed synthesis service core -------===//

#include "serve/Service.h"

#include "domains/DomainTable.h"

#include <fstream>

using namespace dc;
using namespace dc::serve;

namespace {

/// Programs a solve keeps when the request sets no frontier_size.
constexpr int DefaultFrontierSize = 5;

/// Unconditional: a caller reusing an error buffer across attempts must
/// see *this* failure, not a stale message from a previous one.
bool fail(std::string *ErrorOut, const std::string &Msg) {
  if (ErrorOut)
    *ErrorOut = Msg;
  return false;
}

} // namespace

bool dc::serve::detail::buildTaskIndex(
    const DomainSpec &Domain,
    std::unordered_map<std::string, TaskPtr> &Out,
    std::string *ErrorOut) {
  Out.clear();
  Out.reserve(Domain.TrainTasks.size() + Domain.TestTasks.size());
  for (const std::vector<TaskPtr> *Split :
       {&Domain.TrainTasks, &Domain.TestTasks})
    for (const TaskPtr &T : *Split)
      if (!Out.emplace(T->name(), T).second)
        return fail(ErrorOut, "domain '" + Domain.Name +
                                  "' has two tasks named '" + T->name() +
                                  "'; by-name routing would be ambiguous");
  return true;
}

std::unique_ptr<Service> Service::create(const ServiceConfig &Config,
                                         std::string *ErrorOut) {
  const DomainEntry *Entry = findDomain(Config.DomainName);
  if (!Entry) {
    fail(ErrorOut, "unknown domain '" + Config.DomainName + "'");
    return nullptr;
  }
  // A fixed corpus ignores seeds: a nonzero one is rejected rather than
  // silently serving a corpus that doesn't match what the operator asked
  // for.
  if (Entry->FixedCorpus && Config.DomainSeed) {
    fail(ErrorOut, "domain '" + Config.DomainName +
                       "' has a fixed corpus and ignores seeds; drop the "
                       "nonzero seed " +
                       std::to_string(Config.DomainSeed));
    return nullptr;
  }
  // Construct in place (no make_unique: the constructor is private).
  std::unique_ptr<Service> S(new Service());
  S->Config = Config;
  S->Domain =
      std::make_unique<DomainSpec>(Entry->build(Config.DomainSeed));
  if (!detail::buildTaskIndex(*S->Domain, S->TasksByName, ErrorOut))
    return nullptr;

  if (Config.CheckpointPath.empty()) {
    S->Lib = Grammar::uniform(S->Domain->BasePrimitives);
  } else {
    std::string Err;
    std::optional<Grammar> Loaded =
        loadGrammarFile(Config.CheckpointPath, &Err);
    if (!Loaded) {
      fail(ErrorOut, "cannot load checkpoint " + Config.CheckpointPath +
                         ": " + Err);
      return nullptr;
    }
    S->Lib = std::move(*Loaded);
  }

  if (!Config.ModelPath.empty()) {
    std::ifstream In(Config.ModelPath);
    if (!In) {
      fail(ErrorOut, "cannot open model " + Config.ModelPath);
      return nullptr;
    }
    std::string Err;
    S->Model =
        loadRecognitionModel(S->Lib, *S->Domain->Featurizer, In, &Err);
    if (!S->Model) {
      fail(ErrorOut,
           "cannot load model " + Config.ModelPath + ": " + Err);
      return nullptr;
    }
  }
  return S;
}

TaskPtr Service::taskByName(const std::string &Name) const {
  auto It = TasksByName.find(Name);
  return It == TasksByName.end() ? nullptr : It->second;
}

Outcome Service::solve(const TaskPtr &T, double RemainingSeconds,
                       long NodeBudget, int FrontierSize,
                       const ContextualGrammar *Guide) const {
  Outcome Out;
  if (RemainingSeconds <= 0) {
    // The request spent its whole deadline queued; don't start a search
    // that is already lost.
    Out.TheStatus = Outcome::Status::Timeout;
    Out.DeadlineExpired = true;
    return Out;
  }

  EnumerationParams Params = Domain->Search;
  Params.NumThreads = 1; // concurrency lives at the request level
  Params.WallTimeoutSeconds = RemainingSeconds;
  if (NodeBudget > 0)
    Params.NodeBudget = NodeBudget;
  else if (Config.DefaultNodeBudget > 0)
    Params.NodeBudget = Config.DefaultNodeBudget;
  if (Params.NodeBudget > Config.MaxNodeBudget)
    Params.NodeBudget = Config.MaxNodeBudget;
  Params.FrontierSize = FrontierSize > 0 ? FrontierSize : DefaultFrontierSize;

  std::optional<ContextualGrammar> Predicted;
  const EnumerationSource *Src = &Lib;
  if (Model) // predict() is thread-safe by contract
    Src = Guide ? Guide : &Predicted.emplace(Model->predict(*T));
  EnumerationStats Stats;
  Out.Beam = solveTask(*Src, T, Params, &Stats);
  Out.NodesExpanded = Stats.NodesExpanded;
  Out.ProgramsEnumerated = Stats.ProgramsEnumerated;
  Out.DeadlineExpired = Stats.Interrupted;
  if (!Out.Beam.empty())
    Out.TheStatus = Outcome::Status::Solved;
  else
    Out.TheStatus = Stats.Interrupted ? Outcome::Status::Timeout
                                      : Outcome::Status::NoSolution;
  return Out;
}

//===----------------------------------------------------------------------===//
// ServiceRegistry
//===----------------------------------------------------------------------===//

ServiceRegistry::Snapshot
ServiceRegistry::install(std::unique_ptr<Service> S) {
  const std::string Name = S->config().DomainName;
  std::lock_guard<std::mutex> Lock(M);
  S->Epoch = ++Epochs[Name];
  Snapshot Snap(std::move(S));
  auto [It, Inserted] = Services.emplace(Name, Snap);
  if (Inserted)
    Order.push_back(Name);
  else
    It->second = Snap; // the swap: old epoch freed when its last
                       // in-flight request drops the refcount
  return Snap;
}

ServiceRegistry::Snapshot
ServiceRegistry::lookup(const std::string &DomainName) const {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Services.find(DomainName);
  return It == Services.end() ? nullptr : It->second;
}

ServiceRegistry::Snapshot ServiceRegistry::defaultService() const {
  std::lock_guard<std::mutex> Lock(M);
  return Order.empty() ? nullptr : Services.at(Order.front());
}

std::vector<std::string> ServiceRegistry::domainNames() const {
  std::lock_guard<std::mutex> Lock(M);
  return Order;
}

ServiceRegistry::Snapshot
ServiceRegistry::reload(const std::string &DomainName,
                        const ServiceConfig &NewConfig,
                        std::string *ErrorOut) {
  if (!lookup(DomainName)) {
    fail(ErrorOut, "unknown domain '" + DomainName + "'");
    return nullptr;
  }
  if (NewConfig.DomainName != DomainName) {
    fail(ErrorOut, "reload config names domain '" + NewConfig.DomainName +
                       "' but targets '" + DomainName + "'");
    return nullptr;
  }
  // The slow part — checkpoint + model I/O and validation — runs
  // unlocked; the old epoch serves throughout, and a failure here
  // publishes nothing.
  std::unique_ptr<Service> Fresh = Service::create(NewConfig, ErrorOut);
  if (!Fresh)
    return nullptr;
  return install(std::move(Fresh));
}

ServiceRegistry::Snapshot
ServiceRegistry::reload(const std::string &DomainName,
                        std::string *ErrorOut) {
  Snapshot Cur = lookup(DomainName);
  if (!Cur) {
    fail(ErrorOut, "unknown domain '" + DomainName + "'");
    return nullptr;
  }
  return reload(DomainName, Cur->config(), ErrorOut);
}

size_t ServiceRegistry::size() const {
  std::lock_guard<std::mutex> Lock(M);
  return Services.size();
}
