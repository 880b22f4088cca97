//===- serve/Supervisor.h - predictord worker-fleet supervisor --*- C++ -*-===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Process-level fault isolation for predictord: the supervisor forks N
/// worker processes (each a single-process Server on its own Unix socket
/// with its own flock-scoped pcache shard), runs a Router on the public
/// socket that forwards requests by rendezvous hash of the source text,
/// and supervises the fleet:
///
///   - death detection: waitpid-based reaping plus periodic `health`
///     heartbeats over each worker's socket (a SIGSTOPped or wedged
///     worker is alive to waitpid but cannot answer a heartbeat);
///   - restart with exponential backoff, bounded by a restart budget —
///     a worker that crashes >= RestartBudget times within
///     RestartWindowMs is marked Dead and its hash range permanently
///     re-routes to the survivors;
///   - a per-shard circuit breaker: ConsecutiveFailures >=
///     BreakerThreshold (forward timeouts or missed heartbeats) opens
///     the breaker for BreakerCooldownMs, during which the router skips
///     the shard instead of stalling clients on it;
///   - graceful drain on SIGTERM/shutdown: the router stops admitting
///     and answers in-flight work first, then workers get SIGTERM and
///     drain their own queues, stragglers get SIGKILL after
///     DrainTimeoutMs, and every socket file is unlinked.
///
/// The crash-safety contract (docs/SERVING.md): kill -9 of any single
/// worker under load yields zero client-visible failures — the router
/// retries an in-flight request exactly once on the next healthy worker,
/// which is sound because predict/analyze are idempotent by construction
/// (same bitwise-identity contract as the one-shot CLI).
///
//===----------------------------------------------------------------------===//

#ifndef VRP_SERVE_SUPERVISOR_H
#define VRP_SERVE_SUPERVISOR_H

#include "serve/Server.h"
#include "support/Status.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <sys/types.h>
#include <vector>

namespace vrp::serve {

class Router;

struct FleetConfig {
  /// The public socket (the router listens on SocketPath) and the
  /// settings every worker serves with, rendered onto its command line.
  /// Worker K listens on "<SocketPath>.wK" and keeps its pcache shard at
  /// "<Service.CachePath>.wK" (empty = uncached). MaxConnections caps
  /// the router's connections as well as each worker's.
  ServerConfig Server;
  /// Worker process count (>= 1).
  unsigned Workers = 4;
  /// The predictord binary to exec for workers; empty = /proc/self/exe.
  std::string WorkerBinary;

  // Supervision policy.
  uint64_t HeartbeatIntervalMs = 500; ///< health probe period per worker.
  uint64_t HeartbeatTimeoutMs = 1000; ///< per-probe response budget.
  unsigned HeartbeatMissLimit = 3;    ///< misses before the worker is
                                      ///< treated as dead and restarted.
  uint64_t StartGraceMs = 5000;       ///< socket-appearance budget after
                                      ///< spawn before a restart.
  unsigned RestartBudget = 5;         ///< restarts allowed per window...
  uint64_t RestartWindowMs = 30000;   ///< ...this wide; exceeded = Dead.
  uint64_t BackoffBaseMs = 200;       ///< first restart delay; doubles...
  uint64_t BackoffCapMs = 5000;       ///< ...up to this cap.
  unsigned BreakerThreshold = 3;      ///< consecutive failures to open.
  uint64_t BreakerCooldownMs = 2000;  ///< open duration before half-open.
  uint64_t ForwardTimeoutMs = 2000;   ///< router's per-attempt budget.
  uint64_t DrainTimeoutMs = 10000;    ///< SIGTERM-to-SIGKILL budget.
};

/// Worker lifecycle as the supervisor sees it.
enum class WorkerState {
  Starting, ///< Spawned; socket not yet answering.
  Up,       ///< Answering; routable.
  Backoff,  ///< Crashed; waiting out the restart delay.
  Dead,     ///< Restart budget exhausted; permanently un-routable.
};

/// Fleet-wide monotonic counters (the stats JSON "serving" block).
struct FleetCounters {
  uint64_t WorkerRestarts = 0;
  uint64_t Reroutes = 0; ///< Requests answered off their home shard.
  uint64_t BreakerOpen = 0;
  uint64_t HeartbeatTimeouts = 0;
};

/// The router's view of where one request may go: the home shard (cache
/// affinity) first, then at most one fallback in rendezvous order.
struct RoutePlan {
  int HomeIndex = -1; ///< -1 when no worker is routable at all.
  /// Routable worker indices, best first; size <= 2. The second entry —
  /// when present — is the retry target after the home worker fails.
  std::vector<int> Targets;
  /// Generation of each target at planning time; reportForward echoes it
  /// so a failure report against a restarted worker is ignored.
  std::vector<uint64_t> Generations;
  /// Socket path of each target, so the router never re-derives them.
  std::vector<std::string> Sockets;
};

class Supervisor {
public:
  /// Validates the config and binds the public socket (via the Router)
  /// up front, so a doomed fleet fails before forking anything. Null +
  /// \p Why on failure.
  static std::unique_ptr<Supervisor> create(const FleetConfig &Config,
                                            Status *Why = nullptr);
  ~Supervisor();

  /// Spawns the fleet, starts the router, and supervises until shutdown
  /// (signal or `shutdown` request), then drains. Fails when every
  /// worker is Dead — the service cannot answer and pretending otherwise
  /// would just shed forever.
  Status run();

  /// Thread-safe, idempotent; run() notices within one tick.
  void requestShutdown();

  /// Worker K's socket/cache paths, derived from the public socket and
  /// the base cache path. Static so tests and check.sh can predict them.
  static std::string shardSocketPath(const std::string &PublicSocket,
                                     unsigned Index);
  static std::string shardCachePath(const std::string &CachePath,
                                    unsigned Index);

  // --- Router-facing surface (thread-safe) -------------------------------

  /// Plans routing for a request whose source hashes to \p Fp.
  RoutePlan routeTargets(uint64_t Fp);

  /// Outcome of one forward attempt against worker \p Index at
  /// \p Generation. Failures feed the circuit breaker; a success closes
  /// it. Reports against a stale generation are dropped — the restarted
  /// worker must not inherit its predecessor's failures.
  void reportForward(int Index, uint64_t Generation, bool Ok,
                     bool TimedOut);

  /// Counts one request answered off its home shard.
  void noteReroute();

  /// True once drain has begun; the router sheds new work with reason
  /// "draining".
  bool draining() const;

  /// Deterministically-ordered fleet stats JSON: per-worker state plus
  /// the "serving" counter block (docs/TELEMETRY.md marks these
  /// determinism-exempt).
  std::string statsJson() const;

  FleetCounters counters() const;

private:
  Supervisor() = default;

  struct WorkerSlot {
    unsigned Index = 0;
    std::string SocketPath;
    std::string CachePath;
    pid_t Pid = -1;
    WorkerState State = WorkerState::Starting;
    /// Bumped on every (re)spawn; stale forward reports are ignored.
    uint64_t Generation = 0;
    unsigned ConsecutiveFailures = 0;
    unsigned MissedHeartbeats = 0;
    bool BreakerOpen = false;
    std::chrono::steady_clock::time_point BreakerOpenUntil{};
    std::chrono::steady_clock::time_point SpawnedAt{};
    std::chrono::steady_clock::time_point RestartDueAt{};
    uint64_t NextBackoffMs = 0;
    /// Spawn timestamps inside the current budget window.
    std::deque<std::chrono::steady_clock::time_point> RecentRestarts;
  };

  bool spawnWorker(WorkerSlot &W, Status *Why);
  void onWorkerDown(WorkerSlot &W, const std::string &Cause);
  void reapAll();
  void heartbeatAll();
  void restartDue();
  void drain();
  bool workerRoutable(const WorkerSlot &W,
                      std::chrono::steady_clock::time_point Now) const;

  FleetConfig Config;
  std::unique_ptr<Router> Front;
  std::atomic<bool> ShutdownRequested{false};
  std::atomic<bool> Draining{false};

  mutable std::mutex FleetM;
  std::vector<WorkerSlot> Slots;

  std::atomic<uint64_t> WorkerRestarts{0};
  std::atomic<uint64_t> Reroutes{0};
  std::atomic<uint64_t> BreakerOpenCount{0};
  std::atomic<uint64_t> HeartbeatTimeoutCount{0};
};

} // namespace vrp::serve

#endif // VRP_SERVE_SUPERVISOR_H
