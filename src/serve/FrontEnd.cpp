//===- serve/FrontEnd.cpp - Socket front end for server and router --------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//

#include "serve/FrontEnd.h"

#include "serve/Frame.h"
#include "serve/UnixSocket.h"

#include <cerrno>
#include <poll.h>
#include <sys/socket.h>
#include <system_error>
#include <unistd.h>

using namespace vrp;
using namespace vrp::serve;

namespace {

/// How fast an idle connection thread notices a stop.
constexpr int RecvTimeoutMs = 200;
/// How fast the accept loop notices a stop and reaps finished threads.
constexpr int AcceptPollMs = 100;

} // namespace

std::unique_ptr<FrontEnd> FrontEnd::create(const std::string &SocketPath,
                                           unsigned MaxConnections,
                                           Status *Why) {
  std::unique_ptr<FrontEnd> FE(new FrontEnd());
  FE->SocketPath = SocketPath;
  FE->MaxConnections = MaxConnections ? MaxConnections : 64;
  FE->ListenFd = listenUnixSocket(SocketPath, Why);
  if (FE->ListenFd < 0)
    return nullptr;
  FE->Bound = true;
  return FE;
}

void FrontEnd::run(DispatchFn D, StopFn S) {
  Dispatch = std::move(D);
  StopWhen = std::move(S);
  pollfd Pfd;
  Pfd.fd = ListenFd;
  Pfd.events = POLLIN;
  while (!StopWhen()) {
    reapFinished();
    Pfd.revents = 0;
    int Ready = ::poll(&Pfd, 1, AcceptPollMs);
    if (Ready < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (Ready == 0)
      continue;
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)
        continue;
      break;
    }
    if (ActiveConnections.load() >= MaxConnections) {
      RejectedConnections.fetch_add(1);
      ::close(Fd);
      continue;
    }
    setRecvTimeout(Fd, RecvTimeoutMs);
    ActiveConnections.fetch_add(1);
    std::lock_guard<std::mutex> Lock(ThreadsM);
    auto It = Live.emplace(Live.end());
    try {
      // The new thread records itself as finished under ThreadsM, which
      // this thread holds until the handle is stored in its slot.
      *It = std::thread([this, Fd, It] {
        connectionLoop(Fd);
        std::lock_guard<std::mutex> Done(ThreadsM);
        Finished.push_back(It);
      });
    } catch (const std::system_error &) {
      // Out of threads (or of address space for their stacks): refuse
      // this connection instead of taking the whole daemon down.
      Live.erase(It);
      ActiveConnections.fetch_sub(1);
      RejectedConnections.fetch_add(1);
      ::close(Fd);
      continue;
    }
    Connections.fetch_add(1);
  }
  AcceptDone.store(true);
}

void FrontEnd::reapFinished() {
  std::list<std::thread> Done;
  {
    std::lock_guard<std::mutex> Lock(ThreadsM);
    for (auto It : Finished)
      Done.splice(Done.end(), Live, It);
    Finished.clear();
  }
  for (std::thread &T : Done)
    T.join();
}

void FrontEnd::drain() {
  AcceptDone.store(true);
  std::list<std::thread> All;
  {
    std::lock_guard<std::mutex> Lock(ThreadsM);
    All.swap(Live);
  }
  // A thread mid-request finishes and answers it first; an idle one
  // notices the stop at its next receive timeout.
  for (std::thread &T : All)
    T.join();
  {
    std::lock_guard<std::mutex> Lock(ThreadsM);
    Finished.clear();
  }

  // Everything is answered: a clean shutdown leaves no socket file.
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
  }
  if (Bound && !SocketPath.empty()) {
    ::unlink(SocketPath.c_str());
    Bound = false;
  }
}

void FrontEnd::connectionLoop(int Fd) {
  std::string Payload;
  while (true) {
    FrameRead Rc = readFrame(Fd, Payload);
    if (Rc == FrameRead::Timeout) {
      if (AcceptDone.load() || StopWhen())
        break;
      continue;
    }
    if (Rc == FrameRead::Eof)
      break;
    if (Rc == FrameRead::Error) {
      ProtocolErrors.fetch_add(1);
      break;
    }

    // A malformed request gets a structured answer and the connection
    // stays open for the next one.
    Request Req;
    std::string ParseErr;
    bool Parsed = parseRequest(Payload, Req, &ParseErr);
    if (!Parsed)
      ProtocolErrors.fetch_add(1);
    Response R = Parsed ? Dispatch(Req)
                        : failedResponse(0, RespStatus::Error,
                                         errorCategoryName(
                                             ErrorCategory::ParseError),
                                         "protocol", ParseErr);
    if (!writeFrame(Fd, serializeResponse(R)).ok())
      break;
  }
  ::close(Fd);
  ActiveConnections.fetch_sub(1);
}

FrontEndStats FrontEnd::stats() const {
  FrontEndStats S;
  S.Connections = Connections.load();
  S.RejectedConnections = RejectedConnections.load();
  S.ProtocolErrors = ProtocolErrors.load();
  return S;
}
