//===- perfbench/harness/Harness.cpp - Shared benchmark plumbing ----------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

using namespace perfbench;

double perfbench::nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double perfbench::since(double Start) { return nowSeconds() - Start; }

double perfbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Index = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Index);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Index - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double perfbench::median(const std::vector<double> &V) {
  return quantile(V, 0.5);
}

double perfbench::highestSupportedPercentile(size_t N) {
  double Best = 0.0;
  for (double Q : {0.90, 0.99, 0.999})
    if (static_cast<double>(N) * (1.0 - Q) >= 10.0 - 1e-9)
      Best = Q;
  return Best;
}

double perfbench::peakRssMb(int Pid) {
  std::string Path = Pid == 0 ? std::string("/proc/self/status")
                              : "/proc/" + std::to_string(Pid) + "/status";
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

Tracer::Scope::Scope(Tracer &T, const char *Name, uint64_t Request,
                     bool Extra)
    : T(T), SavedParent(T.Current) {
  Span S;
  S.Name = Name;
  S.Parent = T.Current;
  S.Request = Request;
  S.Extra = Extra;
  std::lock_guard<std::mutex> Lock(T.M);
  Index = static_cast<int>(T.Spans.size());
  T.Spans.push_back(std::move(S));
  T.Current = Index;
  // Stamp last so the bookkeeping above is outside the span.
  T.Spans[Index].Start = nowSeconds();
}

Tracer::Scope::~Scope() {
  double End = nowSeconds();
  std::lock_guard<std::mutex> Lock(T.M);
  T.Spans[Index].End = End;
  T.Current = SavedParent;
}

void Tracer::record(const char *Name, double Start, double End,
                    uint64_t Request) {
  Span S;
  S.Name = Name;
  S.Start = Start;
  S.End = End;
  S.Request = Request;
  std::lock_guard<std::mutex> Lock(M);
  Spans.push_back(std::move(S));
}

double Tracer::total(const std::string &Name, uint64_t Request) const {
  double Sum = 0.0;
  for (const Span &S : Spans)
    if (S.Name == Name && (Request == 0 || S.Request == Request))
      Sum += S.End - S.Start;
  return Sum;
}

size_t Tracer::count(const std::string &Name) const {
  return std::count_if(Spans.begin(), Spans.end(),
                       [&](const Span &S) { return S.Name == Name; });
}

std::vector<double> Tracer::selfTimes() const {
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    Self[I] = Spans[I].End - Spans[I].Start;
  // Children of one parent never overlap (spans nest on one thread), so
  // the covered part is the sum of the children's durations.
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Self[S.Parent] -= S.End - S.Start;
  return Self;
}

std::map<std::string, double> Tracer::selfByLayer() const {
  std::vector<double> Self = selfTimes();
  std::map<std::string, double> ByLayer;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const std::string &N = Spans[I].Name;
    ByLayer[N.substr(0, N.find('.'))] += Self[I];
  }
  return ByLayer;
}

double perfbench::layerCoverage(const Tracer &T, double From, double Wall) {
  std::vector<double> Self = T.selfTimes();
  double Covered = 0.0;
  for (size_t I = 0; I < Self.size(); ++I) {
    const Span &S = T.spans()[I];
    if (S.Start >= From && S.Name.rfind("bench.", 0) != 0)
      Covered += Self[I];
  }
  return Wall > 0 ? Covered / Wall : 0.0;
}

double Tracer::extraTime(double From) const {
  double Sum = 0.0;
  for (const Span &S : Spans) {
    // Count an Extra span only at the top of an Extra subtree.
    bool ParentExtra = S.Parent >= 0 && Spans[S.Parent].Extra;
    if (S.Extra && !ParentExtra && S.Start >= From)
      Sum += S.End - S.Start;
  }
  return Sum;
}

bool Tracer::write(const std::string &Path) const {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    Out << "{\"id\":" << I << ",\"name\":" << jsonString(S.Name)
        << ",\"start\":" << jsonNumber(S.Start)
        << ",\"end\":" << jsonNumber(S.End) << ",\"parent\":" << S.Parent
        << ",\"request\":" << S.Request
        << ",\"extra\":" << (S.Extra ? "true" : "false") << "}\n";
  }
  return static_cast<bool>(Out);
}

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

void Report::series(const std::string &Name, const std::string &Unit,
                    const Series &S) {
  Metric M;
  M.Unit = Unit;
  M.Value = S.median();
  M.N = S.Samples.size();
  M.PHighQ = highestSupportedPercentile(M.N);
  if (M.PHighQ > 0)
    M.PHigh = quantile(S.Samples, M.PHighQ);
  Metrics[Name] = M;
}

void Report::value(const std::string &Name, const std::string &Unit,
                   double V, size_t N) {
  Metric M;
  M.Unit = Unit;
  M.Value = V;
  M.N = N;
  Metrics[Name] = M;
}

void Report::layer(const std::string &Name, const std::string &Unit,
                   double V) {
  Metric M;
  M.Unit = Unit;
  M.Value = V;
  Layers[Name] = M;
}

void Report::check(const std::string &Name, bool Ok,
                   const std::string &Detail) {
  Checks.push_back({Name, Ok, Detail});
  attempt(1, Ok ? 0 : 1);
}

bool Report::allChecksPassed() const {
  return std::all_of(Checks.begin(), Checks.end(),
                     [](const Check &C) { return C.Ok; });
}

void Report::emit() const {
  auto metricJson = [](const std::map<std::string, Metric> &Map) {
    std::ostringstream OS;
    OS << "{";
    bool First = true;
    for (const auto &[Name, M] : Map) {
      OS << (First ? "" : ",") << jsonString(Name)
         << ":{\"value\":" << jsonNumber(M.Value)
         << ",\"unit\":" << jsonString(M.Unit) << ",\"n\":" << M.N;
      if (M.PHighQ > 0)
        OS << ",\"p_high_q\":" << jsonNumber(M.PHighQ)
           << ",\"p_high\":" << jsonNumber(M.PHigh);
      OS << "}";
      First = false;
    }
    OS << "}";
    return OS.str();
  };

  for (const Check &C : Checks)
    std::cerr << "  check " << (C.Ok ? "ok    " : "FAILED") << " " << C.Name
              << (C.Detail.empty() ? "" : " (" + C.Detail + ")") << "\n";

  std::ostringstream OS;
  OS << "{\"phase\":" << jsonString(Phase) << ",\"attempted\":" << Attempted
     << ",\"failed\":" << Failures << ",\"checks\":[";
  for (size_t I = 0; I < Checks.size(); ++I)
    OS << (I ? "," : "") << "{\"name\":" << jsonString(Checks[I].Name)
       << ",\"ok\":" << (Checks[I].Ok ? "true" : "false")
       << ",\"detail\":" << jsonString(Checks[I].Detail) << "}";
  auto numberMap = [](const std::map<std::string, double> &Map,
                      double Scale) {
    std::string Out = "{";
    for (const auto &[Name, V] : Map)
      Out += (Out.size() > 1 ? "," : "") + jsonString(Name) + ":" +
             jsonNumber(V * Scale);
    return Out + "}";
  };
  OS << "],\"metrics\":" << metricJson(Metrics)
     << ",\"layers\":" << metricJson(Layers)
     << ",\"self_ms\":" << numberMap(SelfMs, 1e3)
     << ",\"walls\":" << numberMap(Walls, 1.0) << "}";
  std::cout << OS.str() << std::endl;
}

std::string perfbench::jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out + "\"";
}

std::string perfbench::jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

uint64_t perfbench::hashBytes(uint64_t H, const void *Data, size_t Size) {
  const auto *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I < Size; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ULL;
  }
  return H;
}

uint64_t perfbench::hashDouble(uint64_t H, double V) {
  uint64_t Bits;
  std::memcpy(&Bits, &V, sizeof(Bits));
  return hashU64(H, Bits);
}

uint64_t perfbench::hashU64(uint64_t H, uint64_t V) {
  return hashBytes(H, &V, sizeof(V));
}

uint64_t perfbench::hashString(uint64_t H, const std::string &S) {
  H = hashU64(H, S.size());
  return hashBytes(H, S.data(), S.size());
}

std::string perfbench::hex64(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}
