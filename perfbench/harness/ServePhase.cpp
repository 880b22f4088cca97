//===- perfbench/harness/ServePhase.cpp - The resident daemon -------------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
// The `serve` phase: one predictord process (--threads=2, response memo
// on, --cache= on a fresh file) driven over its Unix socket by this
// process with 2 connections.
//
// Traffic: 80% `predict` on the 19 suite sources (memo hits after a
// warm-up send of each) and 20% unique makeSyntheticProgram sources
// (memo misses that analyze and write the persistent cache), in a seeded
// order. Two open-loop phases at fixed rates (`light`, `heavy`) time
// each request from when it was due; a closed-loop phase measures
// saturation throughput. So p50 measures the memo path and p99 the
// analysis path.
//
// Output check: every ok `predict` payload must be byte-identical to
// renderPredictionReport run in this process on the same source.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "analysis/AnalysisCache.h"
#include "benchsuite/Programs.h"
#include "benchsuite/Synthetic.h"
#include "driver/Pipeline.h"
#include "serve/Client.h"
#include "serve/Service.h"
#include "support/Process.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <random>
#include <sched.h>
#include <sstream>
#include <thread>

using namespace perfbench;
using namespace vrp;
using namespace vrp::serve;

namespace {

/// Open-loop rates, frozen as absolute numbers: about 18% and 40-45% of
/// the saturation throughput (1,100-1,250 req/s) measured when this
/// benchmark was defined. `heavy` stays well below saturation because at
/// 70% a slow minute on a shared host turned the 2-connection open loop
/// into a growing backlog (README.md, "Serve latency and throughput").
constexpr double LightRps = 210.0;
constexpr double HeavyRps = 500.0;

/// Size class of the unique (memo-missing) synthetic programs.
constexpr unsigned MissSizeClass = 5;
constexpr double MissShare = 0.2;
constexpr unsigned Connections = 2;
constexpr double SpinSeconds = 0.002;
constexpr unsigned CheckThreads = 3;

/// With at least 4 usable CPUs: the first two for the daemon, the next
/// two for the generator, so the two sides never trade cores between
/// runs. Invalid (no pinning) on smaller hosts.
struct CpuSplit {
  cpu_set_t All, Daemon, Generator;
  bool Valid = false;
};

const CpuSplit &cpuSplit() {
  static const CpuSplit S = [] {
    CpuSplit S;
    cpu_set_t &Mine = S.All;
    if (sched_getaffinity(0, sizeof(Mine), &Mine) != 0 || CPU_COUNT(&Mine) < 4)
      return S;
    CPU_ZERO(&S.Daemon);
    CPU_ZERO(&S.Generator);
    unsigned Taken = 0;
    for (int C = 0; C < CPU_SETSIZE && Taken < 4; ++C)
      if (CPU_ISSET(C, &Mine))
        CPU_SET(C, Taken++ < 2 ? &S.Daemon : &S.Generator);
    S.Valid = true;
    return S;
  }();
  return S;
}

/// One daemon process and its files.
struct Daemon {
  pid_t Pid = -1;
  std::string Socket;
  std::string Cache;
};

/// Spawns predictord and waits for its first answered `health`. Returns
/// the seconds that took, or a negative value on failure.
double startDaemon(const PhaseOptions &P, unsigned Tag, Daemon &D,
                   std::string &Error) {
  D.Socket = P.WorkDir + "/serve-" + std::to_string(Tag) + ".sock";
  D.Cache = P.WorkDir + "/serve-" + std::to_string(Tag) + ".pcache";
  std::remove(D.Socket.c_str());
  std::remove(D.Cache.c_str());
  // The daemon inherits the affinity it is spawned with.
  const CpuSplit &Cpus = cpuSplit();
  if (Cpus.Valid)
    sched_setaffinity(0, sizeof(cpu_set_t), &Cpus.Daemon);
  const double T0 = nowSeconds();
  Status Why;
  D.Pid = process::spawn(P.Daemon,
                         {"--socket=" + D.Socket, "--threads=2",
                          "--cache=" + D.Cache},
                         &Why);
  if (Cpus.Valid)
    sched_setaffinity(0, sizeof(cpu_set_t), &Cpus.Generator);

  if (D.Pid < 0) {
    Error = "spawn: " + Why.error().str();
    return -1.0;
  }
  while (since(T0) < 30.0) {
    if (std::unique_ptr<Client> C = Client::connect(D.Socket)) {
      Request Req;
      Req.Id = 1;
      Req.Method = "health";
      StatusOr<Response> R = C->call(Req);
      if (R.ok() && R.value().Status == RespStatus::Ok)
        return since(T0);
    }
    if (process::reap(D.Pid).State != process::ChildState::Running) {
      Error = "daemon exited during start-up";
      D.Pid = -1;
      return -1.0;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  Error = "daemon did not answer health within 30 s";
  return -1.0;
}

/// Asks the daemon to drain and waits for it; kills it if it hangs.
void stopDaemon(Daemon &D) {
  if (D.Pid > 0) {
    if (std::unique_ptr<Client> C = Client::connect(D.Socket)) {
      Request Req;
      Req.Method = "shutdown";
      (void)C->call(Req);
    }
    if (process::waitWithTimeout(D.Pid, 10000).State ==
        process::ChildState::Running) {
      process::signalProcess(D.Pid, SIGKILL);
      process::waitWithTimeout(D.Pid, 10000);
    }
    D.Pid = -1;
  }
  std::remove(D.Socket.c_str());
  std::remove(D.Cache.c_str());
}

/// Every source sent, and the seeded request order of each phase.
///
/// The unique programs come from one fixed sequence, so every seed sends
/// the same programs in each phase (the daemon's cost and memory depend
/// on their content); the seed decides the order of the requests, which
/// of them miss, and which suite program each hit asks for.
struct Traffic {
  std::vector<std::string> Sources; ///< Suite programs first, then unique.
  size_t SuiteCount = 0;
  uint64_t NextUnique = 1;
  std::mt19937_64 Rng;

  explicit Traffic(uint64_t Seed) : Rng(Seed) {
    for (const BenchmarkProgram *P : allPrograms())
      Sources.push_back(P->Source);
    SuiteCount = Sources.size();
  }

  /// \p N requests, exactly MissShare of them unique; returns source
  /// indices.
  std::vector<size_t> draw(size_t N) {
    const size_t Misses = static_cast<size_t>(N * MissShare + 0.5);
    std::vector<size_t> Unique;
    for (size_t I = 0; I < Misses; ++I) {
      Sources.push_back(makeSyntheticProgram(MissSizeClass, NextUnique++));
      Unique.push_back(Sources.size() - 1);
    }
    std::shuffle(Unique.begin(), Unique.end(), Rng);
    std::vector<char> Miss(N, 0);
    std::fill_n(Miss.begin(), Misses, 1);
    std::shuffle(Miss.begin(), Miss.end(), Rng);
    std::vector<size_t> Out;
    for (char M : Miss) {
      if (M) {
        Out.push_back(Unique.back());
        Unique.pop_back();
      } else {
        Out.push_back(Rng() % SuiteCount);
      }
    }
    return Out;
  }
};

/// One answered request.
struct Outcome {
  size_t Source = 0;
  bool Ok = false;
  double LatencyMs = 0.0;
  double LateMs = 0.0;
  std::string Payload;
};

Request predictRequest(uint64_t Id, const std::string &Source) {
  Request Req;
  Req.Id = Id;
  Req.Method = "predict";
  Req.Source = Source;
  return Req;
}

/// Sends \p Order on \p Connections connections. Open loop when \p Rps >
/// 0: request I is due at start + I/Rps and is timed from then. Closed
/// loop otherwise: each connection sends its next request when the
/// previous one returns, until \p Seconds pass.
std::vector<Outcome> drive(const std::string &Socket, const Traffic &Tr,
                           const std::vector<size_t> &Order, double Rps,
                           double Seconds, Tracer *T, double &Elapsed) {
  std::vector<Outcome> Out(Order.size());
  std::vector<char> Sent(Order.size(), 0);
  std::vector<std::unique_ptr<Client>> Clients;
  for (unsigned C = 0; C < Connections; ++C)
    Clients.push_back(Client::connect(Socket));
  const double Start = nowSeconds() + 0.01;
  auto Loop = [&](unsigned C) {
    for (size_t I = C; I < Order.size(); I += Connections) {
      double Due = Rps > 0 ? Start + I / Rps : nowSeconds();
      if (Rps <= 0 && Due - Start >= Seconds)
        break;
      // Sleep to just before the due time, then spin, so the generator's
      // own wake-up latency does not count against the daemon.
      double Wait = Due - nowSeconds() - SpinSeconds;
      if (Wait > 0)
        std::this_thread::sleep_for(std::chrono::duration<double>(Wait));
      while (nowSeconds() < Due) {
      }
      Outcome &O = Out[I];
      O.Source = Order[I];
      const double SendAt = nowSeconds();
      Sent[I] = 1;
      if (!Clients[C])
        continue;
      StatusOr<Response> R =
          Clients[C]->call(predictRequest(I + 1, Tr.Sources[O.Source]));
      const double Done = nowSeconds();
      O.LatencyMs = (Done - Due) * 1e3;
      O.LateMs = (SendAt - Due) * 1e3;
      if (R.ok()) {
        O.Ok = R.value().Status == RespStatus::Ok && !R.value().Degraded;
        O.Payload = std::move(R.value().Payload);
      }
      if (T)
        T->record("serve.request", SendAt, Done, I + 1);
    }
  };
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Connections; ++C)
    Threads.emplace_back(Loop, C);
  for (std::thread &Th : Threads)
    Th.join();
  Elapsed = since(Start);
  // Closed loop: drop the requests that were never sent.
  std::vector<Outcome> Done;
  for (size_t I = 0; I < Out.size(); ++I)
    if (Sent[I])
      Done.push_back(std::move(Out[I]));
  return Done;
}

/// The CLI's rendering of \p Source: what the daemon must serve.
std::string renderLocally(const std::string &Source, double &RenderSeconds) {
  VRPOptions Opts;
  Opts.Interprocedural = true;
  Opts.Threads = 1;
  DiagnosticEngine Diags;
  auto C = compileProgram(Source, Diags, Opts);
  if (!C.ok())
    return "<compile error: " + C.error().str() + ">";
  Module &M = *C.value()->IR;
  AnalysisCache Cache;
  ModuleVRPResult VRP = runModuleVRP(M, Opts, &Cache);
  std::ostringstream OS;
  const double T0 = nowSeconds();
  renderPredictionReport(M, VRP, &Cache, {"vrp", false}, OS);
  RenderSeconds += since(T0);
  return OS.str();
}

/// Counts ok payloads that differ from the local rendering (on
/// CheckThreads threads; the daemon has exited by now).
uint64_t countMismatches(const Traffic &Tr,
                         const std::vector<const std::vector<Outcome> *> &All,
                         double &RenderUsPerReq, std::string &FirstBad) {
  std::map<size_t, std::vector<const Outcome *>> BySource;
  for (const auto *Phase : All)
    for (const Outcome &O : *Phase)
      if (O.Ok)
        BySource[O.Source].push_back(&O);
  std::vector<size_t> Keys;
  for (const auto &KV : BySource)
    Keys.push_back(KV.first);
  std::atomic<size_t> Next{0};
  std::atomic<uint64_t> Bad{0};
  std::vector<double> RenderSeconds(CheckThreads, 0.0);
  std::vector<size_t> BadSource(CheckThreads, SIZE_MAX);
  auto Work = [&](unsigned W) {
    for (size_t K; (K = Next.fetch_add(1)) < Keys.size();) {
      std::string Expected =
          renderLocally(Tr.Sources[Keys[K]], RenderSeconds[W]);
      for (const Outcome *O : BySource.at(Keys[K]))
        if (O->Payload != Expected) {
          Bad.fetch_add(1);
          BadSource[W] = Keys[K];
        }
    }
  };
  std::vector<std::thread> Workers;
  for (unsigned W = 0; W < CheckThreads; ++W)
    Workers.emplace_back(Work, W);
  for (std::thread &W : Workers)
    W.join();
  double Total = 0.0;
  for (double S : RenderSeconds)
    Total += S;
  RenderUsPerReq = Keys.empty() ? 0.0 : Total * 1e6 / Keys.size();
  for (size_t S : BadSource)
    if (S != SIZE_MAX)
      FirstBad = "source #" + std::to_string(S);
  return Bad.load();
}

/// Reads counter \p Key of object \p Section ("admission", "service")
/// from a `stats` payload.
double statCounter(const std::string &Json, const std::string &Section,
                   const std::string &Key) {
  size_t From = Json.find("\"" + Section + "\":");
  size_t At = Json.find("\"" + Key + "\":", From);
  return From == std::string::npos || At == std::string::npos
             ? 0.0
             : std::strtod(Json.c_str() + At + Key.size() + 3, nullptr);
}

std::vector<double> latencies(const std::vector<Outcome> &Os) {
  std::vector<double> L;
  for (const Outcome &O : Os)
    L.push_back(O.LatencyMs);
  return L;
}

} // namespace

int perfbench::runServePhase(const PhaseOptions &P) {
  Report Rep("serve");
  const size_t PhaseRequests = P.Smoke ? 60 : 1000;
  const unsigned SatWindows = 3;
  const double SatSeconds = P.Smoke ? 0.1 : 1.0;
  std::string Error;

  // Set-up: spawn to first answered health, several times; the last
  // daemon stays up for the measurement.
  Series Setup;
  Daemon D;
  for (unsigned I = 0; I < 6 && Error.empty(); ++I) {
    if (I > 0)
      stopDaemon(D);
    double S = startDaemon(P, I, D, Error);
    if (S >= 0)
      Setup.add(S);
  }
  if (!Error.empty()) {
    stopDaemon(D);
    Rep.check("serve.daemon_starts", false, Error);
    Rep.emit();
    return 1;
  }

  Traffic Tr(P.Seed);
  std::vector<size_t> Warmup(Tr.SuiteCount);
  for (size_t I = 0; I < Warmup.size(); ++I)
    Warmup[I] = I;
  std::vector<size_t> LightOrder = Tr.draw(PhaseRequests);
  std::vector<size_t> HeavyOrder = Tr.draw(PhaseRequests);

  std::unique_ptr<Tracer> T = P.Trace ? std::make_unique<Tracer>() : nullptr;
  double Elapsed = 0.0;
  std::vector<Outcome> Warm =
      drive(D.Socket, Tr, Warmup, 0.0, 1e9, nullptr, Elapsed);
  std::vector<Outcome> Light =
      drive(D.Socket, Tr, LightOrder, LightRps, 0.0, T.get(), Elapsed);
  std::vector<Outcome> Heavy =
      drive(D.Socket, Tr, HeavyOrder, HeavyRps, 0.0, T.get(), Elapsed);
  // The fixed-size phases set the memo size the daemon's peak RSS is
  // read at; the closed loop's request count varies with its speed.
  const double DaemonRss = peakRssMb(D.Pid);

  // Saturation: closed-loop windows, each on fresh traffic.
  std::vector<Outcome> Sat;
  Series SatRps;
  for (unsigned W = 0; W < SatWindows; ++W) {
    std::vector<size_t> Order =
        Tr.draw(static_cast<size_t>(SatSeconds * HeavyRps * 4));
    std::vector<Outcome> Window =
        drive(D.Socket, Tr, Order, 0.0, SatSeconds, nullptr, Elapsed);
    uint64_t Ok = 0;
    for (Outcome &O : Window) {
      Ok += O.Ok;
      Sat.push_back(std::move(O));
    }
    SatRps.add(Ok / Elapsed);
  }

  // Memo-hit round trips over one connection, for the socket overhead.
  Series Rtt;
  if (P.Trace)
    if (std::unique_ptr<Client> C = Client::connect(D.Socket))
      for (unsigned I = 0; I < 200; ++I) {
        const double T0 = nowSeconds();
        (void)C->call(predictRequest(I, Tr.Sources[I % Tr.SuiteCount]));
        Rtt.add(since(T0));
      }

  std::string Stats;
  if (std::unique_ptr<Client> C = Client::connect(D.Socket)) {
    Request Req;
    Req.Method = "stats";
    StatusOr<Response> R = C->call(Req);
    if (R.ok())
      Stats = R.value().Payload;
  }
  stopDaemon(D);
  if (cpuSplit().Valid)
    sched_setaffinity(0, sizeof(cpu_set_t), &cpuSplit().All);

  uint64_t Failed = 0, Attempted = 0;
  for (const auto *Phase : {&Warm, &Light, &Heavy, &Sat})
    for (const Outcome &O : *Phase) {
      ++Attempted;
      Failed += !O.Ok;
    }
  double RenderUs = 0.0;
  std::string FirstBad;
  uint64_t Mismatches =
      countMismatches(Tr, {&Warm, &Light, &Heavy, &Sat}, RenderUs, FirstBad);
  Rep.attempt(Attempted, Failed);
  Rep.check("serve.requests_ok", Failed == 0,
            std::to_string(Failed) + " of " + std::to_string(Attempted) +
                " requests failed, shed or degraded");
  Rep.check("serve.payloads_match_cli", Mismatches == 0,
            Mismatches == 0 ? "every ok payload byte-identical"
                            : std::to_string(Mismatches) +
                                  " payloads differ, e.g. " + FirstBad);

  Series LightLat, HeavyLat;
  LightLat.Samples = latencies(Light);
  HeavyLat.Samples = latencies(Heavy);
  Rep.series("setup_s", "s", Setup);
  Rep.series("serve_p50_ms", "ms", LightLat);
  Rep.value("serve_p99_ms", "ms", quantile(LightLat.Samples, 0.99),
            LightLat.Samples.size());
  Rep.value("serve_p99_ms_heavy", "ms", quantile(HeavyLat.Samples, 0.99),
            HeavyLat.Samples.size());
  Rep.series("serve_sat_rps", "req/s", SatRps);
  Rep.value("peak_rss_mb", "MB", DaemonRss);

  if (T) {
    // In-process probes of the service and its codec.
    ServiceConfig Config;
    std::unique_ptr<Service> Svc = Service::create(Config);
    Series Hit, Miss, Codec;
    for (size_t I = 0; I < Tr.SuiteCount; ++I)
      for (unsigned Round = 0; Round < 2; ++Round) {
        Request Req = predictRequest(I, Tr.Sources[I]);
        double T0 = nowSeconds();
        Response R;
        {
          Tracer::Scope S(*T, "serve.handle", I);
          R = Svc->handle(Req);
        }
        if (Round == 1)
          Hit.add(since(T0));
        T0 = nowSeconds();
        {
          Tracer::Scope S(*T, "serve.codec", I);
          Request Back;
          Response RBack;
          (void)parseRequest(serializeRequest(Req), Back);
          (void)parseResponse(serializeResponse(R), RBack);
        }
        Codec.add(since(T0));
      }
    for (size_t I = Tr.SuiteCount; I < std::min(Tr.Sources.size(),
                                                Tr.SuiteCount + 50);
         ++I) {
      const double T0 = nowSeconds();
      Tracer::Scope S(*T, "serve.handle", I);
      (void)Svc->handle(predictRequest(I, Tr.Sources[I]));
      Miss.add(since(T0));
    }
    std::vector<double> Late;
    for (const Outcome &O : Light)
      Late.push_back(O.LateMs);

    const double Requests =
        std::max(1.0, statCounter(Stats, "service", "requests"));
    const double Admitted = statCounter(Stats, "admission", "admitted");
    const double Shed = statCounter(Stats, "admission", "shed");
    Rep.layer("serve.handle_hit_us", "us", Hit.median() * 1e6);
    Rep.layer("serve.handle_miss_us", "us", Miss.median() * 1e6);
    Rep.layer("serve.codec_us", "us", Codec.median() * 1e6);
    Rep.layer("serve.rtt_overhead_us", "us",
              (Rtt.median() - Hit.median()) * 1e6);
    Rep.layer("serve.memo_hit_ratio", "ratio",
              statCounter(Stats, "service", "memo_hits") / Requests);
    Rep.layer("serve.shed_ratio", "ratio",
              Shed / std::max(1.0, Admitted + Shed));
    Rep.layer("serve.degraded_ratio", "ratio",
              statCounter(Stats, "service", "degraded") / Requests);
    Rep.layer("serve.gen_late_ms_p99", "ms", quantile(Late, 0.99));
    Rep.layer("driver.render_us_per_req", "us", RenderUs);
    Rep.selfTimes(T->selfByLayer());
    T->write(P.WorkDir + "/trace-serve.jsonl");
  }

  Rep.emit();
  return Rep.allChecksPassed() ? 0 : 1;
}
