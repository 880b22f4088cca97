//===- serve/Router.cpp - Fleet front-end request router -------------------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//

#include "serve/Router.h"

#include "serve/Client.h"
#include "serve/Supervisor.h"
#include "support/ResultStore.h"

using namespace vrp;
using namespace vrp::serve;

std::unique_ptr<Router> Router::create(const std::string &SocketPath,
                                       unsigned MaxConnections,
                                       uint64_t ForwardTimeoutMs,
                                       Supervisor &Fleet, Status *Why) {
  std::unique_ptr<Router> R(new Router());
  R->ForwardTimeoutMs = ForwardTimeoutMs ? ForwardTimeoutMs : 2000;
  R->Fleet = &Fleet;
  R->Front = FrontEnd::create(SocketPath, MaxConnections, Why);
  if (!R->Front)
    return nullptr;
  return R;
}

Router::~Router() { stop(); }

void Router::start() {
  Acceptor = std::thread([this] {
    Front->run([this](const Request &Req) { return dispatch(Req); },
               [this] { return Stopping.load(); });
  });
}

void Router::stop() {
  Stopping.store(true);
  if (Acceptor.joinable())
    Acceptor.join();
  // A request already being forwarded completes and is answered first.
  Front->drain();
}

Response Router::dispatch(const Request &Req) {
  // Control methods are answered by the router itself — the fleet view
  // lives here, and they must work even with every worker down.
  if (Req.Method == "ping")
    return okResponse(Req.Id, "pong");
  if (Req.Method == "stats" || Req.Method == "health")
    return okResponse(Req.Id, Fleet->statsJson());
  if (Req.Method == "shutdown") {
    Fleet->requestShutdown();
    return okResponse(Req.Id, "draining");
  }
  if (Fleet->draining()) {
    Shed.fetch_add(1);
    return failedResponse(Req.Id, RespStatus::Shed, "", "router", "draining");
  }
  return forward(Req);
}

Response Router::forward(const Request &Req) {
  // Shard affinity: the same source always hashes to the same home
  // worker, so its analysis caches and response memo stay hot there.
  uint64_t Fp = store::fnv1a64(Req.Source);
  RoutePlan Plan = Fleet->routeTargets(Fp);
  if (Plan.Targets.empty()) {
    Shed.fetch_add(1);
    return failedResponse(Req.Id, RespStatus::Shed, "", "router",
                          Fleet->draining() ? "draining"
                                            : "no healthy worker");
  }

  for (size_t Attempt = 0; Attempt < Plan.Targets.size(); ++Attempt) {
    int Idx = Plan.Targets[Attempt];
    uint64_t Gen = Plan.Generations[Attempt];
    if (Attempt > 0)
      Retried.fetch_add(1);

    std::unique_ptr<Client> C = Client::connect(Plan.Sockets[Attempt]);
    if (!C) {
      Fleet->reportForward(Idx, Gen, /*Ok=*/false, /*TimedOut=*/false);
      continue;
    }
    bool TimedOut = false;
    StatusOr<Response> R = C->call(Req, ForwardTimeoutMs, &TimedOut);
    if (!R.ok()) {
      // Covers the worker dying mid-request (EOF) and hanging (timeout).
      // Safe to retry exactly once on the next target: predict/analyze
      // are idempotent, so the retry is bitwise-identical to what the
      // dead worker would have answered.
      Fleet->reportForward(Idx, Gen, /*Ok=*/false, TimedOut);
      continue;
    }
    Fleet->reportForward(Idx, Gen, /*Ok=*/true, /*TimedOut=*/false);
    Forwarded.fetch_add(1);
    if (Idx != Plan.HomeIndex)
      Fleet->noteReroute();
    return R.value();
  }

  Failed.fetch_add(1);
  return failedResponse(Req.Id, RespStatus::Error,
                        errorCategoryName(ErrorCategory::Internal), "router",
                        "request failed on all routable workers");
}

RouterStats Router::stats() const {
  FrontEndStats F = Front->stats();
  RouterStats S;
  S.Connections = F.Connections;
  S.RejectedConnections = F.RejectedConnections;
  S.ProtocolErrors = F.ProtocolErrors;
  S.Forwarded = Forwarded.load();
  S.Retried = Retried.load();
  S.Failed = Failed.load();
  S.Shed = Shed.load();
  return S;
}
