//===- perfbench/harness/Stages.h - Front end, stage by stage --*- C++ -*-===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced runs replay compileProgram (driver/Pipeline.h) one public
/// layer call at a time — parseVL, runSema, generateIR, constructSSA,
/// insertAssertions, verifyModule + verifySSA — with a span around each,
/// so the front end's cost splits into lang / irgen / ssa.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STAGES_H
#define PERFBENCH_STAGES_H

#include "Harness.h"

#include "driver/Pipeline.h"

#include <memory>
#include <string>

namespace perfbench {

/// Sizes of the IR the front end produced.
struct FrontEndSizes {
  uint64_t SourceBytes = 0;
  uint64_t IRInstructions = 0;  ///< After generateIR.
  uint64_t SSAInstructions = 0; ///< After SSA construction and π-nodes.
};

/// Compiles \p Source exactly as compileProgram does, recording one span
/// per stage under \p Request. Returns null (with \p Error set) when a
/// stage rejects the input.
std::unique_ptr<vrp::CompiledProgram>
compileTraced(Tracer &T, const std::string &Source,
              const vrp::VRPOptions &Opts, uint64_t Request,
              FrontEndSizes &Sizes, std::string &Error);

} // namespace perfbench

#endif // PERFBENCH_STAGES_H
