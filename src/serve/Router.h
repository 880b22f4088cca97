//===- serve/Router.h - Fleet front-end request router ----------*- C++ -*-===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The client-facing half of the fleet (serve/Supervisor.h): listens on
/// the public socket through the same serve/FrontEnd.h as the
/// single-process Server, and forwards predict/analyze requests to
/// worker shards chosen by rendezvous hash of the request source — so a
/// given module always lands on the same worker and that worker's
/// AnalysisCache/PersistentCache/response memo stay hot for its shard.
///
/// Forwarding is supervised: each attempt is bounded by
/// ForwardTimeoutMs, a failed or timed-out attempt is reported to the
/// Supervisor (feeding the per-shard circuit breaker), and the request
/// is retried exactly once on the next worker in rendezvous order.
/// Idempotent analysis makes the retry invisible: the second worker
/// produces the bitwise-identical response the first would have.
///
/// Control methods are answered locally: ping from the router itself,
/// stats/health from the Supervisor's fleet view, shutdown by starting
/// the fleet-wide drain. The router never runs analysis in-process.
///
//===----------------------------------------------------------------------===//

#ifndef VRP_SERVE_ROUTER_H
#define VRP_SERVE_ROUTER_H

#include "serve/FrontEnd.h"
#include "support/Status.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

namespace vrp::serve {

class Client;
class Supervisor;

struct RouterStats {
  uint64_t Connections = 0;
  uint64_t RejectedConnections = 0;
  uint64_t ProtocolErrors = 0;
  uint64_t Forwarded = 0;
  uint64_t Retried = 0; ///< Second attempts after a failed forward.
  uint64_t Failed = 0;  ///< Both attempts failed; client got an error.
  uint64_t Shed = 0;    ///< No routable worker (draining or all down).
};

class Router {
public:
  /// Binds the public socket (stale-file probe included). Null + \p Why
  /// on failure. \p Fleet must outlive the router. \p ForwardTimeoutMs
  /// bounds each forward attempt to a worker.
  static std::unique_ptr<Router> create(const std::string &SocketPath,
                                        unsigned MaxConnections,
                                        uint64_t ForwardTimeoutMs,
                                        Supervisor &Fleet,
                                        Status *Why = nullptr);
  ~Router();

  /// Starts the accept loop on a background thread.
  void start();

  /// Drains: stops accepting, lets connection threads answer what they
  /// are reading, joins them, closes and unlinks the public socket.
  /// Idempotent. Called by the Supervisor *before* workers are stopped,
  /// so every in-flight request still has a live fleet to run on.
  void stop();

  RouterStats stats() const;

private:
  Router() = default;
  Response dispatch(const Request &Req);
  Response forward(const Request &Req);

  uint64_t ForwardTimeoutMs = 2000;
  Supervisor *Fleet = nullptr;
  std::unique_ptr<FrontEnd> Front;
  std::atomic<bool> Stopping{false};
  std::thread Acceptor;

  std::atomic<uint64_t> Forwarded{0};
  std::atomic<uint64_t> Retried{0};
  std::atomic<uint64_t> Failed{0};
  std::atomic<uint64_t> Shed{0};
};

} // namespace vrp::serve

#endif // VRP_SERVE_ROUTER_H
