//===- tests/ir/IRTest.cpp - IR core data structure tests -----------------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
// Use-list maintenance, RAUW, operand editing, φ bookkeeping, constant
// interning and instruction erasure.
//
//===----------------------------------------------------------------------===//

#include "ir/CFGUtils.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace vrp;

namespace {

/// Builder fixture: a module with one open function/block.
class IRTest : public ::testing::Test {
protected:
  IRTest() {
    F = M.makeFunction("f", IRType::Int);
    Entry = F->makeBlock("entry");
    X = F->addParam(IRType::Int, "x");
    Y = F->addParam(IRType::Int, "y");
  }

  template <typename T, typename... Args> T *emit(Args &&...As) {
    return static_cast<T *>(
        Entry->append(std::make_unique<T>(std::forward<Args>(As)...)));
  }

  Module M;
  Function *F;
  BasicBlock *Entry;
  Param *X, *Y;
};

TEST_F(IRTest, ConstantsAreInterned) {
  EXPECT_EQ(Constant::getInt(42), Constant::getInt(42));
  EXPECT_NE(Constant::getInt(42), Constant::getInt(43));
  EXPECT_EQ(Constant::getFloat(1.5), Constant::getFloat(1.5));
  EXPECT_NE(Constant::getFloat(1.5), Constant::getFloat(2.5));
  EXPECT_TRUE(Constant::getInt(0)->isInt());
  EXPECT_FALSE(Constant::getFloat(0.0)->isInt());
}

TEST(IRConstantTest, SharedConstantsRecordNoUses) {
  // Interned constants are shared process-wide: uses from two modules
  // must not land in one shared use list, and the verifier must not ask
  // for them.
  Constant *Shared = Constant::getInt(424242);
  Module A, B;
  for (Module *M : {&A, &B}) {
    Function *F = M->makeFunction("f", IRType::Int);
    BasicBlock *Entry = F->makeBlock("entry");
    Param *X = F->addParam(IRType::Int, "x");
    Instruction *Add = Entry->append(std::make_unique<BinaryInst>(
        Opcode::Add, IRType::Int, X, Shared));
    Add->setOperand(0, Shared);
    Add->setOperand(0, X);
    createRet(Entry, Add);
  }
  EXPECT_FALSE(Shared->hasUses());
  for (Module *M : {&A, &B}) {
    std::vector<std::string> Problems;
    EXPECT_TRUE(verifyModule(*M, Problems, /*ExpectPhis=*/false))
        << (Problems.empty() ? "" : Problems.front());
  }
}

TEST_F(IRTest, OperandsRegisterUses) {
  auto *Add = emit<BinaryInst>(Opcode::Add, IRType::Int, X, Y);
  ASSERT_EQ(X->numUses(), 1u);
  EXPECT_EQ(X->uses()[0].User, Add);
  EXPECT_EQ(X->uses()[0].OperandIndex, 0u);
  EXPECT_EQ(Y->uses()[0].OperandIndex, 1u);

  auto *Mul = emit<BinaryInst>(Opcode::Mul, IRType::Int, Add, Add);
  EXPECT_EQ(Add->numUses(), 2u);
  EXPECT_EQ(Mul->operand(0), Add);
}

TEST_F(IRTest, SetOperandSwapsUseLists) {
  auto *Add = emit<BinaryInst>(Opcode::Add, IRType::Int, X, X);
  EXPECT_EQ(X->numUses(), 2u);
  Add->setOperand(1, Y);
  EXPECT_EQ(X->numUses(), 1u);
  EXPECT_EQ(Y->numUses(), 1u);
  EXPECT_EQ(Add->operand(1), Y);
}

TEST_F(IRTest, ReplaceAllUsesWith) {
  auto *Add = emit<BinaryInst>(Opcode::Add, IRType::Int, X, Y);
  auto *U1 = emit<BinaryInst>(Opcode::Mul, IRType::Int, Add, Add);
  auto *U2 = emit<UnaryInst>(Opcode::Neg, IRType::Int, Add);
  Add->replaceAllUsesWith(Constant::getInt(7));
  EXPECT_FALSE(Add->hasUses());
  EXPECT_EQ(U1->operand(0), Constant::getInt(7));
  EXPECT_EQ(U1->operand(1), Constant::getInt(7));
  EXPECT_EQ(U2->operand(0), Constant::getInt(7));
}

TEST_F(IRTest, RemoveOperandShiftsIndices) {
  auto *Phi = Entry->insertPhi(std::make_unique<PhiInst>(IRType::Int));
  BasicBlock *P1 = F->makeBlock("p1");
  BasicBlock *P2 = F->makeBlock("p2");
  BasicBlock *P3 = F->makeBlock("p3");
  Phi->addIncoming(X, P1);
  Phi->addIncoming(Y, P2);
  Phi->addIncoming(Constant::getInt(3), P3);

  Phi->removeIncoming(0);
  ASSERT_EQ(Phi->numIncoming(), 2u);
  EXPECT_EQ(Phi->incomingValue(0), Y);
  EXPECT_EQ(Phi->incomingBlock(0), P2);
  // Y's recorded use index must have shifted from 1 to 0.
  ASSERT_EQ(Y->numUses(), 1u);
  EXPECT_EQ(Y->uses()[0].OperandIndex, 0u);
  EXPECT_FALSE(X->hasUses());
}

TEST_F(IRTest, EraseFromParentDropsOperandUses) {
  auto *Add = emit<BinaryInst>(Opcode::Add, IRType::Int, X, Y);
  EXPECT_EQ(F->entry()->instructions().size(), 1u);
  Add->eraseFromParent();
  EXPECT_EQ(F->entry()->instructions().size(), 0u);
  EXPECT_FALSE(X->hasUses());
  EXPECT_FALSE(Y->hasUses());
}

TEST_F(IRTest, TerminatorErasureFixesPreds) {
  BasicBlock *Target = F->makeBlock("target");
  createBr(Entry, Target);
  EXPECT_EQ(Target->numPreds(), 1u);
  Entry->terminator()->eraseFromParent();
  EXPECT_EQ(Target->numPreds(), 0u);
  EXPECT_FALSE(Entry->hasTerminator());
}

TEST_F(IRTest, SuccessorsDeriveFromTerminator) {
  BasicBlock *T1 = F->makeBlock("t1");
  BasicBlock *T2 = F->makeBlock("t2");
  auto *Cmp = emit<CmpInst>(CmpPred::LT, X, Y);
  createCondBr(Entry, Cmp, T1, T2);
  auto Succs = Entry->succs();
  ASSERT_EQ(Succs.size(), 2u);
  EXPECT_EQ(Succs[0], T1);
  EXPECT_EQ(Succs[1], T2);
  EXPECT_EQ(T1->preds().size(), 1u);
  EXPECT_EQ(T2->preds().size(), 1u);
  createRet(T1, Constant::getInt(0));
  EXPECT_TRUE(T1->succs().empty());
}

TEST_F(IRTest, PhiPrefixOrdering) {
  auto *Phi1 = Entry->insertPhi(std::make_unique<PhiInst>(IRType::Int));
  auto *Add = emit<BinaryInst>(Opcode::Add, IRType::Int, Phi1, X);
  auto *Phi2 = Entry->insertPhi(std::make_unique<PhiInst>(IRType::Int));
  (void)Add;
  auto Phis = Entry->phis();
  ASSERT_EQ(Phis.size(), 2u);
  EXPECT_EQ(Phis[0], Phi1);
  EXPECT_EQ(Phis[1], Phi2); // Inserted after existing φs, before Add.
  EXPECT_EQ(Entry->instructions()[2]->opcode(), Opcode::Add);
}

TEST_F(IRTest, AssertParentChains) {
  auto *A1 = emit<AssertInst>(X, CmpPred::GE, Constant::getInt(0));
  auto *A2 = emit<AssertInst>(A1, CmpPred::LT, Constant::getInt(10));
  auto *A3 = emit<AssertInst>(A2, CmpPred::NE, Constant::getInt(5));
  EXPECT_EQ(A1->parentValue(), X);
  EXPECT_EQ(A2->parentValue(), X);
  EXPECT_EQ(A3->parentValue(), X);
}

TEST_F(IRTest, PredHelpers) {
  const char *Spellings[] = {"==", "!=", "<", "<=", ">", ">="};
  CmpPred Preds[] = {CmpPred::EQ, CmpPred::NE, CmpPred::LT,
                     CmpPred::LE, CmpPred::GT, CmpPred::GE};
  for (unsigned I = 0; I < 6; ++I) {
    EXPECT_STREQ(cmpPredSpelling(Preds[I]), Spellings[I]);
    // Negation is an involution and flips every outcome.
    EXPECT_EQ(negatePred(negatePred(Preds[I])), Preds[I]);
    EXPECT_EQ(swapPred(swapPred(Preds[I])), Preds[I]);
    for (int64_t A = -2; A <= 2; ++A)
      for (int64_t B = -2; B <= 2; ++B) {
        EXPECT_NE(evalPred(Preds[I], A, B),
                  evalPred(negatePred(Preds[I]), A, B));
        EXPECT_EQ(evalPred(Preds[I], A, B),
                  evalPred(swapPred(Preds[I]), B, A));
      }
  }
}

TEST_F(IRTest, ModuleLookups) {
  EXPECT_EQ(M.findFunction("f"), F);
  EXPECT_EQ(M.findFunction("nosuch"), nullptr);
  MemoryObject *Obj = M.makeMemoryObject("arr", IRType::Float, 16, true);
  EXPECT_EQ(Obj->size(), 16);
  EXPECT_EQ(Obj->elemType(), IRType::Float);
  EXPECT_TRUE(Obj->isGlobal());
  M.setScalarInit(Obj, 2.5);
  EXPECT_DOUBLE_EQ(M.scalarInit(Obj), 2.5);
}

TEST_F(IRTest, InstructionPrinting) {
  auto *Add = emit<BinaryInst>(Opcode::Add, IRType::Int, X,
                               Constant::getInt(4));
  auto *Cmp = emit<CmpInst>(CmpPred::LE, Add, Y);
  EXPECT_EQ(instructionToString(*Add),
            Add->displayName() + " = add %x, 4");
  EXPECT_EQ(instructionToString(*Cmp),
            Cmp->displayName() + " = cmp " + Add->displayName() +
                " <= %y");
}

} // namespace
