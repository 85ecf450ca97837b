//===- serve/Service.cpp - Checkpoint-backed synthesis service core -------===//

#include "serve/Service.h"

#include "domains/ListDomain.h"
#include "domains/LogoDomain.h"
#include "domains/OrigamiDomain.h"
#include "domains/PhysicsDomain.h"
#include "domains/RegexDomain.h"
#include "domains/RegressionDomain.h"
#include "domains/TextDomain.h"
#include "domains/TowerDomain.h"

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

/// Mirrors dc_run's domain table (same names, same default corpus seeds)
/// so a checkpoint written by `dc_run --domain X --seed S` loads under
/// `dc_serve --domain X --seed S` with the identical primitive registry.
///
/// logo and tower have fixed ground-truth corpora — their generators
/// ignore the seed — so a nonzero seed is rejected rather than silently
/// serving a corpus that doesn't match what the operator asked for.
std::optional<DomainSpec> domainByName(const std::string &Name,
                                       unsigned Seed,
                                       std::string *ErrorOut) {
  auto Seedless = [&](const char *Domain) {
    fail(ErrorOut, std::string("domain '") + Domain +
                       "' has a fixed corpus and ignores seeds; drop "
                       "the nonzero seed " +
                       std::to_string(Seed));
    return std::optional<DomainSpec>();
  };
  if (Name == "list")
    return makeListDomain(Seed ? Seed : 1);
  if (Name == "text")
    return makeTextDomain(Seed ? Seed : 2);
  if (Name == "logo")
    return Seed ? Seedless("logo") : std::optional(makeLogoDomain());
  if (Name == "tower")
    return Seed ? Seedless("tower") : std::optional(makeTowerDomain());
  if (Name == "regex")
    return makeRegexDomain(Seed ? Seed : 6);
  if (Name == "regression")
    return makeRegressionDomain(Seed ? Seed : 7);
  if (Name == "physics")
    return makePhysicsDomain(Seed ? Seed : 11);
  if (Name == "origami")
    return makeOrigamiDomain(Seed ? Seed : 5);
  fail(ErrorOut, "unknown domain '" + Name + "'");
  return std::nullopt;
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
  std::optional<DomainSpec> Domain =
      domainByName(Config.DomainName, Config.DomainSeed, ErrorOut);
  if (!Domain)
    return nullptr;
  // Construct in place (no make_unique: the constructor is private).
  std::unique_ptr<Service> S(new Service());
  S->Config = Config;
  S->Domain = std::make_unique<DomainSpec>(std::move(*Domain));
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
