//===- serve/FrontEnd.h - Socket front end for server and router *- C++ -*-===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The connection half of predictord, shared by the single-process
/// Server (serve/Server.h) and the fleet Router (serve/Router.h): the
/// listening socket and its file, the accept loop with the connection
/// cap, one thread per connection running the frame loop (read, parse,
/// answer a malformed frame with the protocol error or dispatch, write),
/// and the bookkeeping of those threads. A caller supplies only what it
/// does with a request and when to stop.
///
/// Finished connection threads are joined each time the accept loop
/// wakes, so a long-lived daemon (a fleet worker takes one connection
/// per heartbeat) keeps no exited thread's stack mapped.
///
//===----------------------------------------------------------------------===//

#ifndef VRP_SERVE_FRONTEND_H
#define VRP_SERVE_FRONTEND_H

#include "serve/Protocol.h"
#include "support/Status.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace vrp::serve {

struct FrontEndStats {
  uint64_t Connections = 0;
  uint64_t RejectedConnections = 0;
  uint64_t ProtocolErrors = 0;
};

class FrontEnd {
public:
  using DispatchFn = std::function<Response(const Request &)>;
  using StopFn = std::function<bool()>;

  /// Binds \p SocketPath (stale-file probe included, see
  /// serve/UnixSocket.h). Connects beyond \p MaxConnections open ones are
  /// closed at accept. Null + \p Why on failure.
  static std::unique_ptr<FrontEnd> create(const std::string &SocketPath,
                                          unsigned MaxConnections,
                                          Status *Why = nullptr);
  ~FrontEnd() { drain(); }

  /// Accepts on the calling thread, answering each request with
  /// \p Dispatch (called concurrently from connection threads), until
  /// \p StopWhen returns true or accepting fails. Connection threads
  /// stop between frames once either has happened.
  void run(DispatchFn Dispatch, StopFn StopWhen);

  /// After run(): joins every connection thread — each answers the
  /// request it is handling first — then closes and unlinks the socket.
  /// Idempotent.
  void drain();

  const std::string &socketPath() const { return SocketPath; }
  FrontEndStats stats() const;

private:
  FrontEnd() = default;
  void connectionLoop(int Fd);
  void reapFinished();

  std::string SocketPath;
  unsigned MaxConnections = 64;
  int ListenFd = -1;
  bool Bound = false; ///< This instance owns (and unlinks) the socket file.
  DispatchFn Dispatch;
  StopFn StopWhen;
  std::atomic<bool> AcceptDone{false};

  std::mutex ThreadsM;
  std::list<std::thread> Live;
  /// Threads of Live that have returned from connectionLoop.
  std::vector<std::list<std::thread>::iterator> Finished;

  std::atomic<uint64_t> Connections{0};
  std::atomic<uint64_t> RejectedConnections{0};
  std::atomic<uint64_t> ProtocolErrors{0};
  std::atomic<unsigned> ActiveConnections{0};
};

} // namespace vrp::serve

#endif // VRP_SERVE_FRONTEND_H
