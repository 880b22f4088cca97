//===- tests/serve/FrontEndTest.cpp - Shared socket front end tests -------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//
//
// The connection contract shared by predictord's Server and the fleet
// Router, checked against a stub dispatch so no analysis runs.
//
//===----------------------------------------------------------------------===//

#include "serve/FrontEnd.h"

#include "serve/Client.h"
#include "serve/Frame.h"
#include "serve/UnixSocket.h"

#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <unistd.h>

using namespace vrp;
using namespace vrp::serve;

namespace {

/// Echoes the method back as the payload.
Response echo(const Request &Req) {
  Response R;
  R.Id = Req.Id;
  R.Payload = "echo:" + Req.Method;
  return R;
}

/// A front end on a test-unique socket, accepting on a background
/// thread until Stop is set, then drained.
struct RunningFrontEnd {
  std::unique_ptr<FrontEnd> FE;
  std::atomic<bool> Stop{false};
  std::thread Thread;

  RunningFrontEnd(const std::string &Name, unsigned MaxConnections,
                  FrontEnd::DispatchFn Dispatch = echo) {
    std::string Path = "FrontEndTest_" + Name + ".sock";
    Status Why;
    FE = FrontEnd::create(Path, MaxConnections, &Why);
    EXPECT_TRUE(FE != nullptr) << (Why.ok() ? "" : Why.error().str());
    if (FE)
      Thread = std::thread([this, Dispatch] {
        FE->run(Dispatch, [this] { return Stop.load(); });
        FE->drain();
      });
  }
  ~RunningFrontEnd() { stop(); }
  void stop() {
    Stop.store(true);
    if (Thread.joinable())
      Thread.join();
  }
};

Request ping(uint64_t Id) {
  Request R;
  R.Id = Id;
  R.Method = "ping";
  return R;
}

TEST(FrontEndTest, MalformedFrameGetsTheProtocolErrorAndTheConnectionLives) {
  RunningFrontEnd Srv("malformed", 4);
  ASSERT_TRUE(Srv.FE != nullptr);
  int Fd = connectUnixSocket(Srv.FE->socketPath());
  ASSERT_GE(Fd, 0);

  ASSERT_TRUE(writeFrame(Fd, "this is not json").ok());
  std::string Payload;
  ASSERT_EQ(FrameRead::Frame, readFrame(Fd, Payload));
  Response Err;
  ASSERT_TRUE(parseResponse(Payload, Err));
  EXPECT_EQ(RespStatus::Error, Err.Status);
  EXPECT_EQ(errorCategoryName(ErrorCategory::ParseError), Err.Category);
  EXPECT_EQ("protocol", Err.Site);
  EXPECT_FALSE(Err.Message.empty());

  // The same connection still answers a well-formed request.
  ASSERT_TRUE(writeFrame(Fd, serializeRequest(ping(7))).ok());
  ASSERT_EQ(FrameRead::Frame, readFrame(Fd, Payload));
  Response Ok;
  ASSERT_TRUE(parseResponse(Payload, Ok));
  EXPECT_EQ(RespStatus::Ok, Ok.Status);
  EXPECT_EQ(7u, Ok.Id);
  EXPECT_EQ("echo:ping", Ok.Payload);
  ::close(Fd);

  FrontEndStats S = Srv.FE->stats();
  EXPECT_EQ(1u, S.ProtocolErrors);
  EXPECT_EQ(1u, S.Connections);
}

TEST(FrontEndTest, ConnectionOverTheCapIsClosedAndCounted) {
  RunningFrontEnd Srv("cap", 1);
  ASSERT_TRUE(Srv.FE != nullptr);
  // The first connection holds the only slot; a round trip proves it
  // was accepted before the second one arrives.
  std::unique_ptr<Client> First = Client::connect(Srv.FE->socketPath());
  ASSERT_TRUE(First != nullptr);
  StatusOr<Response> R = First->call(ping(1));
  ASSERT_TRUE(R.ok());
  EXPECT_EQ("echo:ping", R.value().Payload);

  int Fd = connectUnixSocket(Srv.FE->socketPath());
  ASSERT_GE(Fd, 0);
  setRecvTimeout(Fd, 5000);
  std::string Payload;
  EXPECT_EQ(FrameRead::Eof, readFrame(Fd, Payload));
  ::close(Fd);

  FrontEndStats S = Srv.FE->stats();
  EXPECT_EQ(1u, S.RejectedConnections);
  EXPECT_EQ(1u, S.Connections);
  // The admitted connection is unaffected.
  R = First->call(ping(2));
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(2u, R.value().Id);
}

TEST(FrontEndTest, StopAnswersTheInFlightRequestThenUnlinksTheSocket) {
  std::atomic<bool> Entered{false}, Release{false};
  std::atomic<bool> SocketPresentInDispatch{false};
  std::string Path = "FrontEndTest_stop.sock";
  auto Slow = [&](const Request &Req) {
    Entered.store(true);
    while (!Release.load())
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    SocketPresentInDispatch.store(::access(Path.c_str(), F_OK) == 0);
    return echo(Req);
  };
  RunningFrontEnd Srv("stop", 4, Slow);
  ASSERT_TRUE(Srv.FE != nullptr);
  std::unique_ptr<Client> C = Client::connect(Path);
  ASSERT_TRUE(C != nullptr);

  StatusOr<Response> Answer =
      StatusOr<Response>::failure(ErrorCategory::Internal, "test", "none");
  std::thread Caller([&] { Answer = C->call(ping(9)); });
  while (!Entered.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(5));

  // Stop while the request is being dispatched: the accept loop ends,
  // but the drain waits for the answer before removing the socket.
  Srv.Stop.store(true);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(0, ::access(Path.c_str(), F_OK));
  Release.store(true);
  Caller.join();
  Srv.stop();

  ASSERT_TRUE(Answer.ok()) << Answer.error().str();
  EXPECT_EQ(9u, Answer.value().Id);
  EXPECT_EQ("echo:ping", Answer.value().Payload);
  EXPECT_TRUE(SocketPresentInDispatch.load());
  EXPECT_NE(0, ::access(Path.c_str(), F_OK));
}

} // namespace
