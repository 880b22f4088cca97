//===- serve/Supervisor.cpp - predictord worker-fleet supervisor -----------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//

#include "serve/Supervisor.h"

#include "serve/Client.h"
#include "serve/Router.h"
#include "support/Process.h"
#include "support/ResultStore.h"
#include "support/Signal.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <csignal>
#include <thread>
#include <unistd.h>

using namespace vrp;
using namespace vrp::serve;

namespace {

using Clock = std::chrono::steady_clock;

/// Supervision tick: reap/restart latency floor.
constexpr uint64_t TickMs = 50;

Status failure(std::string Message) {
  return Status::failure(ErrorCategory::Internal, "supervisor",
                         std::move(Message));
}

const char *workerStateName(WorkerState S) {
  switch (S) {
  case WorkerState::Starting:
    return "starting";
  case WorkerState::Up:
    return "up";
  case WorkerState::Backoff:
    return "backoff";
  case WorkerState::Dead:
    return "dead";
  }
  return "unknown";
}

/// Rendezvous (highest-random-weight) score of worker \p Index for a
/// request fingerprint: every router thread and every supervisor agree
/// on the ranking with no shared state, and removing one worker only
/// moves that worker's keys.
uint64_t rendezvousScore(uint64_t Fp, unsigned Index) {
  return store::fnv1a64("w" + std::to_string(Index), Fp);
}

} // namespace

std::string Supervisor::shardSocketPath(const std::string &PublicSocket,
                                        unsigned Index) {
  return PublicSocket + ".w" + std::to_string(Index);
}

std::string Supervisor::shardCachePath(const std::string &CachePath,
                                       unsigned Index) {
  if (CachePath.empty())
    return std::string();
  return CachePath + ".w" + std::to_string(Index);
}

std::unique_ptr<Supervisor> Supervisor::create(const FleetConfig &Config,
                                               Status *Why) {
  std::unique_ptr<Supervisor> S(new Supervisor());
  S->Config = Config;
  if (S->Config.Workers == 0)
    S->Config.Workers = 1;
  const std::string &Public = S->Config.Server.SocketPath;
  if (Public.empty()) {
    if (Why)
      *Why = failure("a public socket path is required");
    return nullptr;
  }
  if (S->Config.WorkerBinary.empty())
    S->Config.WorkerBinary = process::selfExePath();
  if (S->Config.WorkerBinary.empty()) {
    if (Why)
      *Why = failure("cannot resolve the worker binary path");
    return nullptr;
  }

  S->Slots.resize(S->Config.Workers);
  for (unsigned I = 0; I < S->Config.Workers; ++I) {
    WorkerSlot &W = S->Slots[I];
    W.Index = I;
    W.SocketPath = shardSocketPath(Public, I);
    W.CachePath = shardCachePath(S->Config.Server.Service.CachePath, I);
  }

  // Bind the public socket before forking anything: a fleet that cannot
  // listen should fail without ever spawning a worker.
  S->Front = Router::create(Public, S->Config.Server.MaxConnections,
                            S->Config.ForwardTimeoutMs, *S, Why);
  if (!S->Front)
    return nullptr;
  return S;
}

Supervisor::~Supervisor() {
  // Backstop for a run() that never completed its drain: no worker may
  // outlive the supervisor object. PDEATHSIG would catch a *crashed*
  // supervisor; this catches an orderly destruction.
  for (WorkerSlot &W : Slots) {
    if (W.Pid > 0 && process::reap(W.Pid).State == process::ChildState::Running) {
      process::signalProcess(W.Pid, SIGKILL);
      process::waitWithTimeout(W.Pid, 1000);
    }
    if (!W.SocketPath.empty())
      ::unlink(W.SocketPath.c_str());
  }
}

void Supervisor::requestShutdown() { ShutdownRequested.store(true); }

bool Supervisor::draining() const { return Draining.load(); }

bool Supervisor::spawnWorker(WorkerSlot &W, Status *Why) {
  const ServerConfig &C = Config.Server;
  std::vector<std::string> Args;
  Args.push_back("--socket=" + W.SocketPath);
  Args.push_back("--threads=" + std::to_string(C.Workers));
  if (!W.CachePath.empty())
    Args.push_back("--cache=" + W.CachePath);
  Args.push_back("--max-queue=" + std::to_string(C.Admission.MaxQueue));
  Args.push_back("--degrade-depth=" +
                 std::to_string(C.Admission.DegradeDepth));
  Args.push_back("--max-conns=" + std::to_string(C.MaxConnections));
  if (C.Service.DefaultDeadlineMs > 0)
    Args.push_back("--deadline=" +
                   std::to_string(C.Service.DefaultDeadlineMs));
  if (!C.Service.ResponseMemo)
    Args.push_back("--no-memo");

  // A stale socket file from the previous generation would race the new
  // worker's own stale-probe against the router's connect attempts;
  // clear it here, while the slot is un-routable.
  ::unlink(W.SocketPath.c_str());

  pid_t Pid = process::spawn(Config.WorkerBinary, Args, Why);
  if (Pid < 0)
    return false;
  W.Pid = Pid;
  W.State = WorkerState::Starting;
  ++W.Generation;
  W.ConsecutiveFailures = 0;
  W.MissedHeartbeats = 0;
  W.BreakerOpen = false;
  W.SpawnedAt = Clock::now();
  return true;
}

void Supervisor::onWorkerDown(WorkerSlot &W, const std::string &Cause) {
  auto Now = Clock::now();
  W.Pid = -1;
  W.ConsecutiveFailures = 0;
  W.MissedHeartbeats = 0;
  W.BreakerOpen = false;

  // Slide the restart-budget window and charge this crash against it.
  auto WindowStart = Now - std::chrono::milliseconds(Config.RestartWindowMs);
  while (!W.RecentRestarts.empty() && W.RecentRestarts.front() < WindowStart)
    W.RecentRestarts.pop_front();
  W.RecentRestarts.push_back(Now);
  if (W.RecentRestarts.size() > Config.RestartBudget) {
    W.State = WorkerState::Dead;
    std::string Note = "predictord: worker " + std::to_string(W.Index) +
                       " marked dead after " +
                       std::to_string(W.RecentRestarts.size() - 1) +
                       " restarts (" + Cause + ")\n";
    (void)!::write(2, Note.data(), Note.size());
    return;
  }

  W.State = WorkerState::Backoff;
  if (W.NextBackoffMs == 0)
    W.NextBackoffMs = Config.BackoffBaseMs;
  W.RestartDueAt = Now + std::chrono::milliseconds(W.NextBackoffMs);
  W.NextBackoffMs = std::min(W.NextBackoffMs * 2, Config.BackoffCapMs);
}

void Supervisor::reapAll() {
  std::lock_guard<std::mutex> Lock(FleetM);
  for (WorkerSlot &W : Slots) {
    if (W.Pid <= 0 ||
        (W.State != WorkerState::Starting && W.State != WorkerState::Up))
      continue;
    process::ReapResult R = process::reap(W.Pid);
    if (R.State == process::ChildState::Running)
      continue;
    std::string Cause =
        R.State == process::ChildState::Signaled
            ? "signal " + std::to_string(R.Code)
            : "exit " + std::to_string(R.Code);
    onWorkerDown(W, Cause);
  }
}

void Supervisor::heartbeatAll() {
  // Probe without holding the fleet lock: a wedged worker costs up to
  // HeartbeatTimeoutMs per probe, and the router must keep planning
  // routes meanwhile.
  struct Probe {
    unsigned Index;
    uint64_t Generation;
    std::string SocketPath;
    WorkerState State;
    bool Ok = false;
  };
  std::vector<Probe> Probes;
  {
    std::lock_guard<std::mutex> Lock(FleetM);
    for (WorkerSlot &W : Slots)
      if (W.State == WorkerState::Starting || W.State == WorkerState::Up)
        Probes.push_back({W.Index, W.Generation, W.SocketPath, W.State});
  }

  for (Probe &P : Probes) {
    std::unique_ptr<Client> C = Client::connect(P.SocketPath);
    if (!C)
      continue;
    Request Req;
    Req.Method = "health";
    bool TimedOut = false;
    StatusOr<Response> R = C->call(Req, Config.HeartbeatTimeoutMs, &TimedOut);
    P.Ok = R.ok() && R.value().Status == RespStatus::Ok;
  }

  auto Now = Clock::now();
  std::lock_guard<std::mutex> Lock(FleetM);
  for (const Probe &P : Probes) {
    WorkerSlot &W = Slots[P.Index];
    // The worker may have crashed, been reaped, or been restarted while
    // the probe was in flight; a verdict about a dead generation is
    // meaningless.
    if (W.Generation != P.Generation ||
        (W.State != WorkerState::Starting && W.State != WorkerState::Up))
      continue;

    if (P.Ok) {
      if (W.State == WorkerState::Starting) {
        W.State = WorkerState::Up;
        // A successful start earns the backoff schedule a reset; the
        // restart-budget window still remembers recent crashes.
        W.NextBackoffMs = 0;
      }
      W.MissedHeartbeats = 0;
      continue;
    }

    if (W.State == WorkerState::Starting) {
      // Silence during the grace period just means the pipeline is still
      // warming up (opening the pcache shard, binding the socket).
      if (Now - W.SpawnedAt >
          std::chrono::milliseconds(Config.StartGraceMs)) {
        process::signalProcess(W.Pid, SIGKILL);
        process::waitWithTimeout(W.Pid, 1000);
        onWorkerDown(W, "start timeout");
      }
      continue;
    }

    ++W.MissedHeartbeats;
    HeartbeatTimeoutCount.fetch_add(1);
    telemetry::count(telemetry::Counter::ServeHeartbeatTimeouts);
    // Missed heartbeats feed the breaker too: a SIGSTOPped worker whose
    // shard happens to get no traffic must still trip it, or the chaos
    // drill's breaker assertion would depend on load distribution.
    ++W.ConsecutiveFailures;
    if (W.ConsecutiveFailures >= Config.BreakerThreshold) {
      if (!W.BreakerOpen) {
        W.BreakerOpen = true;
        BreakerOpenCount.fetch_add(1);
        telemetry::count(telemetry::Counter::ServeBreakerOpen);
      }
      W.BreakerOpenUntil =
          Now + std::chrono::milliseconds(Config.BreakerCooldownMs);
    }
    if (W.MissedHeartbeats >= Config.HeartbeatMissLimit) {
      // Alive to waitpid but mute on the wire: hung, stopped, or
      // livelocked. Replace it — SIGKILL, because a worker that cannot
      // answer a heartbeat cannot be trusted to honor SIGTERM either.
      process::signalProcess(W.Pid, SIGKILL);
      process::waitWithTimeout(W.Pid, 1000);
      onWorkerDown(W, "heartbeat timeout");
    }
  }
}

void Supervisor::restartDue() {
  auto Now = Clock::now();
  std::lock_guard<std::mutex> Lock(FleetM);
  for (WorkerSlot &W : Slots) {
    if (W.State != WorkerState::Backoff || Now < W.RestartDueAt)
      continue;
    Status Why;
    if (spawnWorker(W, &Why)) {
      WorkerRestarts.fetch_add(1);
      telemetry::count(telemetry::Counter::ServeWorkerRestarts);
    } else {
      // Spawn itself failed (fork pressure); try again after a tick.
      W.RestartDueAt = Now + std::chrono::milliseconds(TickMs * 4);
    }
  }
}

bool Supervisor::workerRoutable(const WorkerSlot &W,
                                Clock::time_point Now) const {
  if (W.State != WorkerState::Up)
    return false;
  // An open breaker past its cooldown is half-open: the worker becomes
  // routable again and the next forward's outcome decides whether it
  // closes or re-opens.
  if (W.BreakerOpen && Now < W.BreakerOpenUntil)
    return false;
  return true;
}

RoutePlan Supervisor::routeTargets(uint64_t Fp) {
  auto Now = Clock::now();
  RoutePlan Plan;
  std::lock_guard<std::mutex> Lock(FleetM);

  std::vector<unsigned> Order(Slots.size());
  for (unsigned I = 0; I < Slots.size(); ++I)
    Order[I] = I;
  std::sort(Order.begin(), Order.end(), [&](unsigned A, unsigned B) {
    uint64_t Sa = rendezvousScore(Fp, A), Sb = rendezvousScore(Fp, B);
    if (Sa != Sb)
      return Sa > Sb;
    return A < B;
  });

  // Home is the hash's first choice among *all* slots, healthy or not:
  // serving a request anywhere else is by definition a reroute, which is
  // exactly what the serve.reroutes counter measures.
  Plan.HomeIndex = static_cast<int>(Order.front());
  for (unsigned I : Order) {
    const WorkerSlot &W = Slots[I];
    if (!workerRoutable(W, Now))
      continue;
    Plan.Targets.push_back(static_cast<int>(I));
    Plan.Generations.push_back(W.Generation);
    Plan.Sockets.push_back(W.SocketPath);
    if (Plan.Targets.size() == 2)
      break;
  }
  return Plan;
}

void Supervisor::reportForward(int Index, uint64_t Generation, bool Ok,
                               bool TimedOut) {
  (void)TimedOut;
  auto Now = Clock::now();
  std::lock_guard<std::mutex> Lock(FleetM);
  if (Index < 0 || static_cast<size_t>(Index) >= Slots.size())
    return;
  WorkerSlot &W = Slots[Index];
  if (W.Generation != Generation)
    return; // The worker this verdict is about no longer exists.

  if (Ok) {
    W.ConsecutiveFailures = 0;
    W.BreakerOpen = false;
    return;
  }
  ++W.ConsecutiveFailures;
  if (W.ConsecutiveFailures >= Config.BreakerThreshold) {
    if (!W.BreakerOpen) {
      W.BreakerOpen = true;
      BreakerOpenCount.fetch_add(1);
      telemetry::count(telemetry::Counter::ServeBreakerOpen);
    }
    // Re-opening from half-open extends the cooldown without recounting.
    W.BreakerOpenUntil =
        Now + std::chrono::milliseconds(Config.BreakerCooldownMs);
  }
}

void Supervisor::noteReroute() {
  Reroutes.fetch_add(1);
  telemetry::count(telemetry::Counter::ServeReroutes);
}

FleetCounters Supervisor::counters() const {
  FleetCounters C;
  C.WorkerRestarts = WorkerRestarts.load();
  C.Reroutes = Reroutes.load();
  C.BreakerOpen = BreakerOpenCount.load();
  C.HeartbeatTimeouts = HeartbeatTimeoutCount.load();
  return C;
}

std::string Supervisor::statsJson() const {
  RouterStats RS = Front ? Front->stats() : RouterStats();
  FleetCounters FC = counters();
  std::string J = "{\"workers\":[";
  {
    std::lock_guard<std::mutex> Lock(FleetM);
    for (size_t I = 0; I < Slots.size(); ++I) {
      const WorkerSlot &W = Slots[I];
      if (I)
        J += ",";
      J += "{\"index\":" + std::to_string(W.Index) +
           ",\"pid\":" + std::to_string(W.Pid) + ",\"state\":\"" +
           workerStateName(W.State) +
           "\",\"generation\":" + std::to_string(W.Generation) +
           ",\"consecutive_failures\":" +
           std::to_string(W.ConsecutiveFailures) +
           ",\"missed_heartbeats\":" + std::to_string(W.MissedHeartbeats) +
           ",\"breaker_open\":" + (W.BreakerOpen ? "true" : "false") +
           ",\"restarts_in_window\":" +
           std::to_string(W.RecentRestarts.size()) + "}";
    }
  }
  J += "],\"router\":{\"connections\":" + std::to_string(RS.Connections) +
       ",\"rejected_connections\":" +
       std::to_string(RS.RejectedConnections) +
       ",\"protocol_errors\":" + std::to_string(RS.ProtocolErrors) +
       ",\"forwarded\":" + std::to_string(RS.Forwarded) +
       ",\"retried\":" + std::to_string(RS.Retried) +
       ",\"failed\":" + std::to_string(RS.Failed) +
       ",\"shed\":" + std::to_string(RS.Shed) + "}";
  J += ",\"serving\":{\"worker_restarts\":" +
       std::to_string(FC.WorkerRestarts) +
       ",\"reroutes\":" + std::to_string(FC.Reroutes) +
       ",\"breaker_open\":" + std::to_string(FC.BreakerOpen) +
       ",\"heartbeat_timeouts\":" + std::to_string(FC.HeartbeatTimeouts) +
       "}}";
  return J;
}

Status Supervisor::run() {
  {
    std::lock_guard<std::mutex> Lock(FleetM);
    for (WorkerSlot &W : Slots) {
      Status Why;
      if (!spawnWorker(W, &Why)) {
        // A fleet that cannot spawn its first generation is a startup
        // failure, not something to limp through.
        return Why;
      }
    }
  }
  Front->start();

  bool AllDead = false;
  auto LastHeartbeat = Clock::now();
  while (!ShutdownRequested.load() && !stopsignal::stopRequested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(TickMs));
    reapAll();
    auto Now = Clock::now();
    if (Now - LastHeartbeat >=
        std::chrono::milliseconds(Config.HeartbeatIntervalMs)) {
      LastHeartbeat = Now;
      heartbeatAll();
    }
    restartDue();
    {
      std::lock_guard<std::mutex> Lock(FleetM);
      AllDead = std::all_of(Slots.begin(), Slots.end(),
                            [](const WorkerSlot &W) {
                              return W.State == WorkerState::Dead;
                            });
    }
    if (AllDead)
      break;
  }

  drain();
  if (AllDead)
    return failure("all workers are dead; the fleet cannot answer");
  return Status::success();
}

void Supervisor::drain() {
  Draining.store(true);
  // Order matters: the router goes first, while the workers are still
  // alive, so every in-flight request is answered by a live fleet. Only
  // then do the workers get SIGTERM and drain their own queues.
  Front->stop();

  auto Deadline =
      Clock::now() + std::chrono::milliseconds(Config.DrainTimeoutMs);
  {
    std::lock_guard<std::mutex> Lock(FleetM);
    for (WorkerSlot &W : Slots)
      if (W.Pid > 0)
        process::signalProcess(W.Pid, SIGTERM);
    for (WorkerSlot &W : Slots) {
      if (W.Pid <= 0)
        continue;
      auto Now = Clock::now();
      uint64_t Left =
          Now < Deadline
              ? std::chrono::duration_cast<std::chrono::milliseconds>(
                    Deadline - Now)
                    .count()
              : 0;
      process::ReapResult R = process::waitWithTimeout(W.Pid, Left);
      if (R.State == process::ChildState::Running) {
        process::signalProcess(W.Pid, SIGKILL);
        process::waitWithTimeout(W.Pid, 2000);
      }
      W.Pid = -1;
      W.State = WorkerState::Dead;
      // Cleanly drained workers unlink their own socket; a SIGKILLed
      // straggler leaves the file behind, so sweep regardless.
      ::unlink(W.SocketPath.c_str());
    }
  }
}
