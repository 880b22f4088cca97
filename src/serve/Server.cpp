//===- serve/Server.cpp - predictord socket server -------------------------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "support/Signal.h"

#include <thread>
#include <vector>

using namespace vrp;
using namespace vrp::serve;

std::unique_ptr<Server> Server::create(const ServerConfig &Config,
                                       Status *Why) {
  std::unique_ptr<Server> S(new Server());
  S->Config = Config;
  if (S->Config.Workers == 0)
    S->Config.Workers = 1;

  Status ServiceWhy;
  S->Svc = Service::create(Config.Service, &ServiceWhy);
  if (!S->Svc) {
    if (Why)
      *Why = ServiceWhy;
    return nullptr;
  }
  S->Admission = std::make_unique<AdmissionController>(Config.Admission);

  S->Front = FrontEnd::create(Config.SocketPath, Config.MaxConnections, Why);
  if (!S->Front)
    return nullptr;
  return S;
}

void Server::requestShutdown() { ShutdownRequested.store(true); }

Status Server::serve() {
  std::vector<std::thread> Workers;
  Workers.reserve(Config.Workers);
  for (unsigned I = 0; I < Config.Workers; ++I)
    Workers.emplace_back([this] { workerLoop(); });

  Front->run([this](const Request &Req) { return dispatch(Req); },
             [this] {
               return ShutdownRequested.load() ||
                      stopsignal::stopRequested();
             });

  // Graceful drain: no new connections or admissions, but everything
  // already admitted is finished and answered before the connection
  // threads join and the socket file is removed.
  ShutdownRequested.store(true);
  Admission->close();
  for (std::thread &W : Workers)
    W.join();
  Front->drain();
  return Status::success();
}

void Server::workerLoop() {
  AdmissionController::Task T;
  while (Admission->pop(T)) {
    // A deadline can expire while the request waits in the queue. Running
    // it anyway would burn a worker on an answer the client has already
    // written off; shed it here with a structured reason instead.
    if (AdmissionController::expiredInQueue(T)) {
      Admission->noteExpired();
      T.Done.set_value(AdmissionController::makeExpiredResponse(T.Req));
      continue;
    }
    Response R = Svc->handle(T.Req, T.Degrade);
    T.Done.set_value(std::move(R));
  }
}

Response Server::dispatch(const Request &Req) {
  // Control methods bypass admission: they answer from resident state
  // and must stay observable under overload. health is the supervisor's
  // heartbeat — if it queued behind analysis work, a busy worker would be
  // indistinguishable from a hung one.
  if (Req.Method == "ping" || Req.Method == "stats" ||
      Req.Method == "health") {
    if (Req.Method == "stats") {
      ServerStats S = stats();
      std::string Json = "{\"connections\":" +
                         std::to_string(S.Connections) +
                         ",\"rejected_connections\":" +
                         std::to_string(S.RejectedConnections) +
                         ",\"protocol_errors\":" +
                         std::to_string(S.ProtocolErrors) +
                         ",\"admission\":{\"admitted\":" +
                         std::to_string(S.Admission.Admitted) +
                         ",\"degraded\":" +
                         std::to_string(S.Admission.Degraded) +
                         ",\"shed\":" + std::to_string(S.Admission.Shed) +
                         ",\"expired\":" +
                         std::to_string(S.Admission.ExpiredInQueue) +
                         ",\"max_depth\":" +
                         std::to_string(S.Admission.MaxDepthSeen) +
                         "},\"service\":" + Svc->statsJson() + "}";
      return okResponse(Req.Id, std::move(Json));
    }
    return Svc->handle(Req);
  }
  if (Req.Method == "shutdown") {
    requestShutdown();
    return okResponse(Req.Id, "draining");
  }

  std::future<Response> Future;
  AdmissionVerdict Verdict = Admission->submit(Req, Future);
  if (Verdict == AdmissionVerdict::Shed)
    return failedResponse(Req.Id, RespStatus::Shed, "", "admission",
                          Admission->closed() ? "draining" : "queue full");
  return Future.get();
}

ServerStats Server::stats() const {
  FrontEndStats F = Front->stats();
  ServerStats S;
  S.Connections = F.Connections;
  S.RejectedConnections = F.RejectedConnections;
  S.ProtocolErrors = F.ProtocolErrors;
  S.Admission = Admission->stats();
  S.Service = Svc->counters();
  return S;
}
