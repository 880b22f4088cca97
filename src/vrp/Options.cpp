//===- vrp/Options.cpp - VRP configuration identity -----------------------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//

#include "vrp/Options.h"

#include "support/Json.h"

#include <sstream>

using namespace vrp;

// The rendering is part of the persistent cache's on-disk key: changing
// the order or spelling of existing fields orphans every stored result.
std::string vrp::resultIdentity(const VRPOptions &O) {
  std::ostringstream OS;
  OS << O.MaxSubRanges << "|" << O.EnableSymbolicRanges << "|"
     << O.EnableDerivation << "|" << O.EnableAssertions << "|"
     << O.WidenThreshold << "|" << O.BranchUpdateLimit << "|"
     << O.FlowVisitLimit << "|" << O.DerivationRetryLimit << "|"
     << json::hexDouble(O.AssumedSymbolicCount) << "|" << O.Interprocedural
     << "|" << O.EnableCloning << "|" << json::hexDouble(O.ProbTolerance)
     << "|" << O.Budget.PropagationStepLimit << "|" << O.Budget.DeadlineMs
     << "|" << O.EnableFPRanges << "|" << O.EnableAliasRanges;
  return OS.str();
}

std::string vrp::evaluationIdentity(const VRPOptions &O) {
  return resultIdentity(O) + "|" + std::to_string(O.Audit) + "|" +
         std::to_string(O.Budget.InterpreterStepLimit);
}
