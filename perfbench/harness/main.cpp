//===- perfbench/harness/main.cpp - Benchmark phase entry point -----------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
// Runs one phase of the benchmark in this process:
//
//   vrpbench <suite|module|serve> --seed N --seconds S --trace 0|1
//            --smoke 0|1 --workdir DIR [--daemon PATH]
//            [--part small|large] [--verify 0|1]
//
// perfbench/run.py starts one process per phase and merges their
// reports; see perfbench/README.md.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <cstdlib>
#include <iostream>
#include <string>

using namespace perfbench;

int main(int argc, char **argv) {
  if (argc < 2) {
    std::cerr << "usage: vrpbench <suite|module|serve> [options]\n";
    return 2;
  }
  PhaseOptions P;
  P.Phase = argv[1];
  P.WorkDir = ".";
  for (int I = 2; I + 1 < argc; I += 2) {
    std::string Flag = argv[I], Value = argv[I + 1];
    if (Flag == "--seed")
      P.Seed = std::strtoull(Value.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      P.Seconds = std::strtod(Value.c_str(), nullptr);
    else if (Flag == "--trace")
      P.Trace = Value == "1";
    else if (Flag == "--smoke")
      P.Smoke = Value == "1";
    else if (Flag == "--workdir")
      P.WorkDir = Value;
    else if (Flag == "--daemon")
      P.Daemon = Value;
    else if (Flag == "--part")
      P.Part = Value;
    else if (Flag == "--verify")
      P.Verify = Value == "1";
    else {
      std::cerr << "unknown option " << Flag << "\n";
      return 2;
    }
  }
  if (P.Phase == "suite")
    return runSuitePhase(P);
  if (P.Phase == "module")
    return runModulePhase(P);
  if (P.Phase == "serve")
    return runServePhase(P);
  std::cerr << "unknown phase " << P.Phase << "\n";
  return 2;
}
