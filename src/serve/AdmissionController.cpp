//===- serve/AdmissionController.cpp - Bounded queue + shedding ------------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//

#include "serve/AdmissionController.h"

#include "support/Status.h"

#include <algorithm>

using namespace vrp;
using namespace vrp::serve;

AdmissionController::AdmissionController(const AdmissionConfig &Config)
    : Config(Config) {
  // A degrade depth past the shed point would be dead policy; clamp so
  // the documented invariant DegradeDepth <= MaxQueue always holds.
  this->Config.DegradeDepth =
      std::min(this->Config.DegradeDepth, this->Config.MaxQueue);
}

AdmissionVerdict AdmissionController::submit(Request Req,
                                             std::future<Response> &Future) {
  std::lock_guard<std::mutex> Lock(M);
  if (Closed || Queue.size() >= Config.MaxQueue) {
    ++Counters.Shed;
    return AdmissionVerdict::Shed;
  }
  Task T;
  T.Req = std::move(Req);
  T.Degrade = Queue.size() >= Config.DegradeDepth;
  T.Enqueued = std::chrono::steady_clock::now();
  Future = T.Done.get_future();
  AdmissionVerdict Verdict =
      T.Degrade ? AdmissionVerdict::Degrade : AdmissionVerdict::Admit;
  Queue.push_back(std::move(T));
  ++Counters.Admitted;
  if (Verdict == AdmissionVerdict::Degrade)
    ++Counters.Degraded;
  Counters.MaxDepthSeen = std::max<uint64_t>(Counters.MaxDepthSeen,
                                             Queue.size());
  NotEmpty.notify_one();
  return Verdict;
}

bool AdmissionController::pop(Task &Out) {
  std::unique_lock<std::mutex> Lock(M);
  NotEmpty.wait(Lock, [&] { return Closed || !Queue.empty(); });
  if (Queue.empty())
    return false;
  Out = std::move(Queue.front());
  Queue.pop_front();
  return true;
}

bool AdmissionController::expiredInQueue(const Task &T) {
  if (T.Req.DeadlineMs == 0)
    return false;
  auto Waited = std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::steady_clock::now() - T.Enqueued)
                    .count();
  return Waited >= 0 &&
         static_cast<uint64_t>(Waited) >= T.Req.DeadlineMs;
}

Response AdmissionController::makeExpiredResponse(const Request &Req) {
  return failedResponse(Req.Id, RespStatus::Shed,
                        errorCategoryName(ErrorCategory::BudgetExceeded),
                        "admission", "deadline expired in queue");
}

void AdmissionController::noteExpired() {
  std::lock_guard<std::mutex> Lock(M);
  ++Counters.ExpiredInQueue;
}

void AdmissionController::close() {
  std::lock_guard<std::mutex> Lock(M);
  Closed = true;
  NotEmpty.notify_all();
}

bool AdmissionController::closed() const {
  std::lock_guard<std::mutex> Lock(M);
  return Closed;
}

size_t AdmissionController::depth() const {
  std::lock_guard<std::mutex> Lock(M);
  return Queue.size();
}

AdmissionStats AdmissionController::stats() const {
  std::lock_guard<std::mutex> Lock(M);
  return Counters;
}
