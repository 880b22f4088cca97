//===- perfbench/harness/Stages.cpp - Front end, stage by stage -----------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//

#include "Stages.h"

#include "ir/Verifier.h"
#include "irgen/IRGen.h"
#include "lang/Parser.h"
#include "lang/Sema.h"
#include "ssa/SSAVerifier.h"

using namespace perfbench;
using namespace vrp;

namespace {

uint64_t countInstructions(const Module &M) {
  uint64_t N = 0;
  for (const auto &F : M.functions())
    N += F->numInstructions();
  return N;
}

} // namespace

std::unique_ptr<CompiledProgram>
perfbench::compileTraced(Tracer &T, const std::string &Source,
                         const VRPOptions &Opts, uint64_t Request,
                         FrontEndSizes &Sizes, std::string &Error) {
  DiagnosticEngine Diags;
  auto Result = std::make_unique<CompiledProgram>();
  Sizes.SourceBytes += Source.size();
  {
    Tracer::Scope S(T, "lang.parse", Request);
    Result->AST = parseVL(Source, Diags);
  }
  if (Diags.hasErrors()) {
    Error = "parse: " + Diags.firstError();
    return nullptr;
  }
  {
    Tracer::Scope S(T, "lang.sema", Request);
    if (!runSema(*Result->AST, Diags)) {
      Error = "sema: " + Diags.firstError();
      return nullptr;
    }
  }
  {
    Tracer::Scope S(T, "irgen.generate", Request);
    Result->IR = generateIR(*Result->AST, Diags);
  }
  if (!Result->IR) {
    Error = "irgen: " + Diags.firstError();
    return nullptr;
  }
  Sizes.IRInstructions += countInstructions(*Result->IR);
  {
    Tracer::Scope S(T, "ssa.construct", Request);
    Result->SSA = constructSSA(*Result->IR);
  }
  if (Opts.EnableAssertions) {
    Tracer::Scope S(T, "ssa.assert", Request);
    Result->Assertions = insertAssertions(*Result->IR);
  }
  Sizes.SSAInstructions += countInstructions(*Result->IR);
  std::vector<std::string> Problems;
  bool Verified;
  {
    Tracer::Scope S(T, "ssa.verify", Request);
    Verified = verifyModule(*Result->IR, Problems, /*ExpectPhis=*/true) &&
               verifySSA(*Result->IR, Problems);
  }
  if (!Verified) {
    Error = "verify: " + (Problems.empty() ? std::string("failed")
                                           : Problems.front());
    return nullptr;
  }
  return Result;
}
