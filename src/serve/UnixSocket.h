//===- serve/UnixSocket.h - Unix-domain-socket plumbing ---------*- C++ -*-===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The socket plumbing shared by the connection front end
/// (serve/FrontEnd.h) and the client (serve/Client.h): address filling,
/// the stale-socket-file probe that distinguishes a kill -9 leftover
/// (reclaimable) from a live listener (a configuration error), and
/// receive-timeout configuration.
///
//===----------------------------------------------------------------------===//

#ifndef VRP_SERVE_UNIXSOCKET_H
#define VRP_SERVE_UNIXSOCKET_H

#include "support/Status.h"

#include <string>

namespace vrp::serve {

/// Binds and listens on \p Path. A pre-existing socket file is probed
/// with connect(): refused means a dead owner left it behind and it is
/// reclaimed; accepted means a live server owns the path and this call
/// fails ("another server is already listening"). Returns the listening
/// fd (CLOEXEC), or -1 with \p Why.
int listenUnixSocket(const std::string &Path, Status *Why = nullptr);

/// Connects to \p Path. Returns the connected fd (CLOEXEC), or -1 with
/// \p Why when nothing listens there.
int connectUnixSocket(const std::string &Path, Status *Why = nullptr);

/// Sets SO_RCVTIMEO so reads poll at \p Ms granularity (0 disables the
/// timeout: reads block).
void setRecvTimeout(int Fd, int Ms);

} // namespace vrp::serve

#endif // VRP_SERVE_UNIXSOCKET_H
