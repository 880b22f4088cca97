//===- ir/Verifier.cpp - IR structural invariants --------------------------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//

#include "ir/Verifier.h"

#include <algorithm>
#include <map>

using namespace vrp;

namespace {

class VerifierImpl {
public:
  VerifierImpl(const Function &F, std::vector<std::string> &Problems,
               bool ExpectPhis)
      : F(F), Problems(Problems), ExpectPhis(ExpectPhis) {}

  bool run();

private:
  void problem(const std::string &Msg) {
    Problems.push_back("@" + F.name() + ": " + Msg);
  }

  void checkBlock(const BasicBlock &B);
  void checkEdgeSymmetry();
  void checkInstruction(const Instruction &I);

  const Function &F;
  std::vector<std::string> &Problems;
  bool ExpectPhis;
};

} // namespace

bool VerifierImpl::run() {
  size_t Before = Problems.size();
  if (F.numBlocks() == 0) {
    problem("function has no blocks");
    return false;
  }
  if (!F.entry()->preds().empty())
    problem("entry block has predecessors");
  for (const auto &B : F.blocks())
    checkBlock(*B);
  checkEdgeSymmetry();
  return Problems.size() == Before;
}

void VerifierImpl::checkBlock(const BasicBlock &B) {
  if (!B.hasTerminator()) {
    problem("block " + B.name() + " has no terminator");
    return;
  }
  bool SeenNonPhi = false;
  for (const auto &I : B.instructions()) {
    if (I->isTerminator() && I.get() != B.back())
      problem("block " + B.name() + " has a terminator mid-block");
    if (I->opcode() == Opcode::Phi) {
      if (SeenNonPhi)
        problem("block " + B.name() + " has a φ after non-φ instructions");
    } else {
      SeenNonPhi = true;
    }
    if (I->parent() != &B)
      problem("instruction " + I->displayName() + " has wrong parent");
    checkInstruction(*I);
  }

  if (ExpectPhis) {
    for (PhiInst *Phi : B.phis()) {
      if (Phi->numIncoming() != B.numPreds()) {
        problem("φ " + Phi->displayName() + " in " + B.name() + " has " +
                std::to_string(Phi->numIncoming()) + " incoming but block "
                "has " + std::to_string(B.numPreds()) + " preds");
        continue;
      }
      // Every predecessor must appear exactly once.
      std::vector<const BasicBlock *> Preds(B.preds().begin(),
                                            B.preds().end());
      for (unsigned I = 0; I < Phi->numIncoming(); ++I) {
        auto It = std::find(Preds.begin(), Preds.end(),
                            Phi->incomingBlock(I));
        if (It == Preds.end())
          problem("φ " + Phi->displayName() + " has incoming from non-pred " +
                  Phi->incomingBlock(I)->name());
        else
          Preds.erase(It);
      }
    }
  }
}

void VerifierImpl::checkEdgeSymmetry() {
  // Count edges in both directions and compare multiset-wise.
  std::map<std::pair<const BasicBlock *, const BasicBlock *>, int> FromSucc;
  std::map<std::pair<const BasicBlock *, const BasicBlock *>, int> FromPred;
  for (const auto &B : F.blocks()) {
    for (BasicBlock *S : B->succs())
      ++FromSucc[{B.get(), S}];
    for (BasicBlock *P : B->preds())
      ++FromPred[{P, B.get()}];
  }
  if (FromSucc != FromPred)
    problem("successor/predecessor lists disagree");
}

void VerifierImpl::checkInstruction(const Instruction &I) {
  for (unsigned Idx = 0; Idx < I.numOperands(); ++Idx) {
    Value *Op = I.operand(Idx);
    // Operand use lists must contain this use. Interned constants are
    // shared by every module and record no uses.
    if (!isa<Constant>(Op) && !Op->hasUse(&I, Idx))
      problem("operand " + std::to_string(Idx) + " of " + I.displayName() +
              " missing from use list");
  }

  switch (I.opcode()) {
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::Div:
  case Opcode::Min:
  case Opcode::Max:
    if (I.operand(0)->type() != I.type() || I.operand(1)->type() != I.type())
      problem("binary op " + I.displayName() + " has mistyped operands");
    break;
  case Opcode::Rem:
  case Opcode::Cmp:
    if (I.opcode() == Opcode::Rem &&
        (I.operand(0)->type() != IRType::Int ||
         I.operand(1)->type() != IRType::Int))
      problem("rem " + I.displayName() + " requires int operands");
    if (I.opcode() == Opcode::Cmp &&
        I.operand(0)->type() != I.operand(1)->type())
      problem("cmp " + I.displayName() + " compares mixed types");
    break;
  case Opcode::IntToFloat:
    if (I.operand(0)->type() != IRType::Int || I.type() != IRType::Float)
      problem("itof " + I.displayName() + " has wrong types");
    break;
  case Opcode::FloatToInt:
    if (I.operand(0)->type() != IRType::Float || I.type() != IRType::Int)
      problem("ftoi " + I.displayName() + " has wrong types");
    break;
  case Opcode::Assert: {
    const auto *A = cast<AssertInst>(&I);
    if (A->source()->type() != A->type())
      problem("assert " + I.displayName() + " changes type");
    break;
  }
  case Opcode::Call: {
    const auto *C = cast<CallInst>(&I);
    if (!C->callee())
      problem("call " + I.displayName() + " has null callee");
    else if (C->numArgs() != C->callee()->numParams())
      problem("call " + I.displayName() + " arity mismatch calling @" +
              C->callee()->name());
    break;
  }
  case Opcode::CondBr:
    if (I.operand(0)->type() != IRType::Int)
      problem("condbr condition must be int");
    break;
  default:
    break;
  }
}

bool vrp::verifyFunction(const Function &F,
                         std::vector<std::string> &Problems,
                         bool ExpectPhis) {
  return VerifierImpl(F, Problems, ExpectPhis).run();
}

bool vrp::verifyModule(const Module &M, std::vector<std::string> &Problems,
                       bool ExpectPhis) {
  bool Ok = true;
  for (const auto &F : M.functions())
    Ok &= verifyFunction(*F, Problems, ExpectPhis);
  return Ok;
}
