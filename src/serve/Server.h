//===- serve/Server.h - predictord socket server ----------------*- C++ -*-===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transport around serve/Service.h: a Unix-domain-socket server
/// speaking the framed protocol of serve/Frame.h. Its connections are
/// the shared serve/FrontEnd.h: each connection thread parses frames
/// and submits requests to the AdmissionController; a fixed pool of
/// worker threads drains the queue through Service::handle. Cheap
/// methods (ping, stats, shutdown) bypass admission — they must answer
/// even when the queue is saturated, or overload would be unobservable.
///
/// Shutdown is cooperative and graceful: a SIGTERM/SIGINT (via
/// support/Signal.h), a `shutdown` request, or requestShutdown() stops
/// the accept loop, sheds new work with reason "draining", finishes
/// everything already admitted, answers the waiting clients, joins all
/// threads, and removes the socket file. A kill -9 instead leaves at
/// most a torn record tail in the persistent cache, which the store
/// truncates on the next open — scripts/check.sh rehearses exactly that.
///
//===----------------------------------------------------------------------===//

#ifndef VRP_SERVE_SERVER_H
#define VRP_SERVE_SERVER_H

#include "serve/AdmissionController.h"
#include "serve/FrontEnd.h"
#include "serve/Service.h"
#include "support/Status.h"

#include <atomic>
#include <memory>
#include <string>

namespace vrp::serve {

struct ServerConfig {
  std::string SocketPath;
  /// Worker threads draining the admission queue.
  unsigned Workers = 1;
  /// Simultaneous client connections; excess connects are closed at
  /// accept (a connection cap, not a request cap — admission governs
  /// requests).
  unsigned MaxConnections = 64;
  AdmissionConfig Admission;
  ServiceConfig Service;
};

struct ServerStats {
  uint64_t Connections = 0;
  uint64_t RejectedConnections = 0;
  uint64_t ProtocolErrors = 0;
  AdmissionStats Admission;
  ServiceCounters Service;
};

class Server {
public:
  /// Binds the socket and builds the resident Service. A stale socket
  /// file from a killed predecessor (connect() refuses) is removed and
  /// rebound; a *live* one (connect() succeeds) is a configuration
  /// error. Null + \p Why on any startup failure — including a
  /// persistent cache locked by another process.
  static std::unique_ptr<Server> create(const ServerConfig &Config,
                                        Status *Why = nullptr);

  /// Runs accept/worker loops until shutdown is requested (signal,
  /// `shutdown` request, or requestShutdown()), then drains and returns.
  Status serve();

  /// Thread-safe, idempotent; serve() notices within one poll interval.
  void requestShutdown();

  const std::string &socketPath() const { return Config.SocketPath; }
  Service &service() { return *Svc; }
  ServerStats stats() const;

private:
  Server() = default;
  void workerLoop();
  Response dispatch(const Request &Req);

  ServerConfig Config;
  std::unique_ptr<Service> Svc;
  std::unique_ptr<AdmissionController> Admission;
  std::atomic<bool> ShutdownRequested{false};
  /// Declared last so it is destroyed first: its connection threads use
  /// the members above.
  std::unique_ptr<FrontEnd> Front;
};

} // namespace vrp::serve

#endif // VRP_SERVE_SERVER_H
