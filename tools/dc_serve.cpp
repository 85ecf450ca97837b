//===- tools/dc_serve.cpp - Long-running synthesis service ----------------===//
//
// Serves solve requests over line-delimited JSON TCP against learned
// grammar checkpoints (and optionally trained recognition models), one
// or more domains per process:
//
//   dc_run --domain list --iterations 3 --checkpoint lib.ckpt
//   dc_serve --domain list --checkpoint lib.ckpt
//            --domain text --checkpoint text.ckpt --port 7777
//
//   $ printf '%s\n' '{"id":1,"method":"solve","params":{"task":"..."}}' |
//       nc 127.0.0.1 7777
//
// Requests route by their optional "domain" field (default: the first
// --domain). SIGHUP hot-reloads every domain from its checkpoint/model
// paths without dropping a connection or an admitted request; the
// `reload` admin request does the same for one domain, optionally with
// new paths. tools/dc_client.py wraps the protocol for scripting and
// CI. SIGTERM or SIGINT triggers graceful shutdown: stop accepting,
// drain in-flight requests, flush telemetry, exit 0.
//
//===----------------------------------------------------------------------===//

#include "Flags.h"
#include "domains/DomainTable.h"
#include "obs/Metrics.h"
#include "obs/Telemetry.h"
#include "obs/Trace.h"
#include "serve/Server.h"

#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>
#include <unistd.h>

#include <vector>

using namespace dc;
using namespace dc::serve;

namespace {

void usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--domain NAME [--seed N] [--checkpoint PATH]\n"
      "                         [--model PATH] [--node-budget N]\n"
      "                         [--max-node-budget N]]...\n"
      "          [--port N] [--port-file PATH]\n"
      "          [--workers N] [--queue N] [--default-timeout-ms N]\n"
      "          [--metrics-out PATH] [--trace-out PATH] [--verbose]\n"
      "--domain:     may repeat to serve several domains from one\n"
      "              process; requests route by their \"domain\" field,\n"
      "              and the first --domain is the default route.\n"
      "              --seed/--checkpoint/--model/--node-budget/\n"
      "              --max-node-budget apply to the most recent --domain\n"
      "--checkpoint: grammar checkpoint from dc_run (omit to serve the\n"
      "              domain's base primitives with uniform weights)\n"
      "--model:      trained recognition model (saveRecognitionModel\n"
      "              format) matching the checkpoint's grammar\n"
      "--port:       TCP port on 127.0.0.1, 0-65535; 0 (default) = an\n"
      "              ephemeral port — the chosen port is printed and,\n"
      "              with --port-file, written there for scripts\n"
      "--workers:    concurrent search workers, at least 1 (default 2)\n"
      "--queue:      admission bound, at least 1; requests beyond it are\n"
      "              rejected with the structured 'overloaded' error\n"
      "              (default 16)\n"
      "--default-timeout-ms: per-request deadline when the request sets\n"
      "              none, at least 0 (default 5000)\n"
      "integer flags take a whole decimal number; anything else prints\n"
      "this usage and exits 2\n"
      "signals: SIGHUP reloads every domain's checkpoint+model from disk\n"
      "         and atomically publishes the new library epoch (nothing\n"
      "         in flight is dropped); SIGTERM/SIGINT drain and exit 0\n"
      "domains: %s\n",
      Argv0, domainNames().c_str());
}

/// Signal handling via the self-pipe trick: the handler only write()s (one
/// of the few async-signal-safe calls); a watcher thread does the real
/// work — reload on 'H', shutdown on 'T' — in normal thread context.
int SignalPipe[2] = {-1, -1};

void onSignal(int Sig) {
  char Byte = Sig == SIGHUP ? 'H' : 'T';
  [[maybe_unused]] ssize_t N = ::write(SignalPipe[1], &Byte, 1);
}

void reloadAllDomains(ServiceRegistry &Registry, Server &Srv) {
  for (const std::string &Name : Registry.domainNames()) {
    std::string Err;
    ServiceRegistry::Snapshot Fresh = Registry.reload(Name, &Err);
    Srv.noteReload(Fresh != nullptr);
    if (Fresh)
      std::printf("reload %s: epoch %lu (%zu productions)\n", Name.c_str(),
                  Fresh->epoch(), Fresh->grammar().productions().size());
    else
      std::printf("reload %s failed: %s (old epoch keeps serving)\n",
                  Name.c_str(), Err.c_str());
  }
  std::fflush(stdout);
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<ServiceConfig> Domains;
  ServerConfig SrvConfig;
  std::string PortFile, MetricsPath, TracePath;
  bool Verbose = false;

  // Per-domain flags bind to the most recent --domain; a per-domain
  // flag before any --domain implicitly opens the default "list" entry.
  auto Current = [&]() -> ServiceConfig & {
    if (Domains.empty())
      Domains.emplace_back();
    return Domains.back();
  };

  for (int I = 1; I < Argc; ++I) {
    auto Next = [&]() -> const char * {
      if (I + 1 >= Argc) {
        usage(Argv[0]);
        std::exit(2);
      }
      return Argv[++I];
    };
    // Whether a value in range makes sense (a port above 65535, an empty
    // queue) is Server::start's check.
    auto NextInt = [&](long long Min, long long Max) {
      std::optional<long long> V = flags::parseInt(Next(), Min, Max);
      if (!V) {
        usage(Argv[0]);
        std::exit(2);
      }
      return *V;
    };
    if (!std::strcmp(Argv[I], "--domain")) {
      Domains.emplace_back();
      Domains.back().DomainName = Next();
    } else if (!std::strcmp(Argv[I], "--seed"))
      Current().DomainSeed = static_cast<unsigned>(NextInt(0, UINT_MAX));
    else if (!std::strcmp(Argv[I], "--checkpoint"))
      Current().CheckpointPath = Next();
    else if (!std::strcmp(Argv[I], "--model"))
      Current().ModelPath = Next();
    else if (!std::strcmp(Argv[I], "--node-budget"))
      Current().DefaultNodeBudget = NextInt(0, LONG_MAX);
    else if (!std::strcmp(Argv[I], "--max-node-budget"))
      Current().MaxNodeBudget = NextInt(0, LONG_MAX);
    else if (!std::strcmp(Argv[I], "--port"))
      SrvConfig.Port = static_cast<int>(NextInt(INT_MIN, INT_MAX));
    else if (!std::strcmp(Argv[I], "--port-file"))
      PortFile = Next();
    else if (!std::strcmp(Argv[I], "--workers"))
      SrvConfig.Workers = static_cast<int>(NextInt(INT_MIN, INT_MAX));
    else if (!std::strcmp(Argv[I], "--queue"))
      SrvConfig.QueueCapacity = static_cast<int>(NextInt(INT_MIN, INT_MAX));
    else if (!std::strcmp(Argv[I], "--default-timeout-ms"))
      SrvConfig.DefaultTimeoutMs = NextInt(LONG_MIN, LONG_MAX);
    else if (!std::strcmp(Argv[I], "--metrics-out"))
      MetricsPath = Next();
    else if (!std::strcmp(Argv[I], "--trace-out"))
      TracePath = Next();
    else if (!std::strcmp(Argv[I], "--verbose"))
      Verbose = true;
    else {
      usage(Argv[0]);
      return 2;
    }
  }
  if (Domains.empty())
    Domains.emplace_back(); // default: list, uniform weights

  // Telemetry is write-only: enabling it records serve.* metrics without
  // changing any answer (same contract as dc_run).
  if (!MetricsPath.empty() || !TracePath.empty() || Verbose) {
    obs::Telemetry::setEnabled(true);
    obs::MetricsRegistry::global().reset();
    obs::Tracer::global().clear();
  }

  ServiceRegistry Registry;
  for (const ServiceConfig &SvcConfig : Domains) {
    if (Registry.lookup(SvcConfig.DomainName)) {
      std::fprintf(stderr, "error: domain '%s' given twice\n",
                   SvcConfig.DomainName.c_str());
      return 1;
    }
    std::string Err;
    std::unique_ptr<Service> Svc = Service::create(SvcConfig, &Err);
    if (!Svc) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    std::printf(
        "domain %s: %zu productions, %zu train + %zu test tasks%s\n",
        Svc->domain().Name.c_str(), Svc->grammar().productions().size(),
        Svc->domain().TrainTasks.size(), Svc->domain().TestTasks.size(),
        Svc->hasRecognitionModel() ? ", recognition model loaded" : "");
    Registry.install(std::move(Svc));
  }

  std::string Err;
  std::unique_ptr<Server> Srv = Server::start(Registry, SrvConfig, &Err);
  if (!Srv) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }

  if (::pipe(SignalPipe) != 0) {
    std::fprintf(stderr, "error: pipe() failed\n");
    return 1;
  }
  struct sigaction SA {};
  SA.sa_handler = onSignal;
  ::sigaction(SIGTERM, &SA, nullptr);
  ::sigaction(SIGINT, &SA, nullptr);
  ::sigaction(SIGHUP, &SA, nullptr);
  std::thread SignalWatcher([&Srv, &Registry] {
    for (;;) {
      char Byte = 0;
      ssize_t N = ::read(SignalPipe[0], &Byte, 1);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return;
      if (Byte == 'H') {
        std::printf("SIGHUP: reloading all domains...\n");
        reloadAllDomains(Registry, *Srv);
        continue;
      }
      std::printf("shutting down: draining in-flight requests...\n");
      std::fflush(stdout);
      Srv->requestShutdown();
      return;
    }
  });

  std::printf("dc_serve listening on %s:%d (%d workers, queue %d, "
              "%zu domain%s)\n",
              SrvConfig.BindAddress.c_str(), Srv->port(), SrvConfig.Workers,
              SrvConfig.QueueCapacity, Registry.size(),
              Registry.size() == 1 ? "" : "s");
  std::fflush(stdout);
  if (!PortFile.empty()) {
    std::ofstream Out(PortFile);
    Out << Srv->port() << "\n";
  }

  Srv->waitForShutdown();

  // Unblock the watcher if shutdown came from somewhere other than a
  // signal (e.g. a future admin endpoint); double-close is avoided by
  // closing exactly once here.
  char Byte = 'T';
  [[maybe_unused]] ssize_t N = ::write(SignalPipe[1], &Byte, 1);
  SignalWatcher.join();
  ::close(SignalPipe[0]);
  ::close(SignalPipe[1]);

  ServerStats Final = Srv->stats();
  std::printf("served %ld requests (%ld solved, %ld no-solution, "
              "%ld timeout, %ld rejected, %ld bad, %ld reloads)\n",
              Final.Accepted, Final.Solved, Final.NoSolution, Final.Timeout,
              Final.Rejected, Final.BadRequest, Final.Reloads);

  if (!MetricsPath.empty()) {
    std::ofstream Out(MetricsPath);
    if (!Out || !(Out << obs::MetricsRegistry::global().toJson())) {
      std::fprintf(stderr, "error: cannot write %s\n", MetricsPath.c_str());
      return 1;
    }
    std::printf("metrics written to %s\n", MetricsPath.c_str());
  }
  if (!TracePath.empty()) {
    std::ofstream Out(TracePath);
    if (!Out || !(Out << obs::Tracer::global().toJson())) {
      std::fprintf(stderr, "error: cannot write %s\n", TracePath.c_str());
      return 1;
    }
    std::printf("trace written to %s\n", TracePath.c_str());
  }
  return 0;
}
