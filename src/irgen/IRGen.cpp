//===- irgen/IRGen.cpp - AST to IR lowering --------------------------------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//

#include "irgen/IRGen.h"

#include "ir/CFGUtils.h"

#include <cassert>
#include <optional>
#include <unordered_map>

using namespace vrp;

namespace {

/// Constant-folds a global initializer expression; returns nullopt when the
/// expression is not a compile-time constant.
std::optional<double> foldConstExpr(const Expr *E) {
  if (auto *I = dyn_cast<IntLitExpr>(E))
    return static_cast<double>(I->value());
  if (auto *F = dyn_cast<FloatLitExpr>(E))
    return F->value();
  if (auto *U = dyn_cast<UnaryExpr>(E)) {
    auto Sub = foldConstExpr(U->sub());
    if (!Sub)
      return std::nullopt;
    if (U->op() == UnaryOp::Neg)
      return -*Sub;
    return *Sub == 0.0 ? 1.0 : 0.0;
  }
  if (auto *B = dyn_cast<BinaryExpr>(E)) {
    auto L = foldConstExpr(B->lhs());
    auto R = foldConstExpr(B->rhs());
    if (!L || !R)
      return std::nullopt;
    switch (B->op()) {
    case BinaryOp::Add:
      return *L + *R;
    case BinaryOp::Sub:
      return *L - *R;
    case BinaryOp::Mul:
      return *L * *R;
    case BinaryOp::Div:
      if (*R == 0.0)
        return std::nullopt;
      if (B->type() == ScalarType::Int)
        return static_cast<double>(static_cast<int64_t>(*L) /
                                   static_cast<int64_t>(*R));
      return *L / *R;
    default:
      return std::nullopt;
    }
  }
  return std::nullopt;
}

IRType lowerType(ScalarType T) {
  switch (T) {
  case ScalarType::Int:
    return IRType::Int;
  case ScalarType::Float:
    return IRType::Float;
  case ScalarType::Void:
    return IRType::Void;
  }
  return IRType::Int;
}

class IRGenerator {
public:
  IRGenerator(const Program &P, DiagnosticEngine &Diags)
      : P(P), Diags(Diags) {}

  std::unique_ptr<Module> run();

private:
  // Emission helpers. Every instruction lands in Cur.
  template <typename T, typename... Args> T *emit(Args &&...As) {
    auto I = std::make_unique<T>(std::forward<Args>(As)...);
    return static_cast<T *>(Cur->append(std::move(I)));
  }
  BasicBlock *newBlock(const std::string &Name) {
    return F->makeBlock("bb" + std::to_string(F->numBlocks()) + "." + Name);
  }

  /// Converts \p V to \p Want (inserting IntToFloat; float->int never
  /// happens implicitly — Sema rejects it).
  Value *convert(Value *V, IRType Want);

  void lowerFunction(const FunctionDecl &FD);
  void lowerStmt(const Stmt *S);
  Value *lowerExpr(const Expr *E);
  Value *lowerCall(const CallExpr &C);

  /// Lowers \p Cond as a branch to \p TrueTo / \p FalseTo with
  /// short-circuit evaluation. Comparisons branch directly on the CmpInst
  /// so the predictor can see the compared ranges.
  void lowerBranchCond(const Expr *Cond, BasicBlock *TrueTo,
                       BasicBlock *FalseTo);

  /// Materializes a boolean expression as an int 0/1 value.
  Value *lowerBoolValue(const Expr *E);

  const Program &P;
  DiagnosticEngine &Diags;
  std::unique_ptr<Module> M;
  Function *F = nullptr;
  BasicBlock *Cur = nullptr;

  std::unordered_map<const VarSymbol *, VarSlot *> SlotMap;
  std::unordered_map<const VarSymbol *, MemoryObject *> ObjectMap;
  /// (continue target, break target) for enclosing loops.
  std::vector<std::pair<BasicBlock *, BasicBlock *>> LoopStack;
};

} // namespace

Value *IRGenerator::convert(Value *V, IRType Want) {
  if (V->type() == Want)
    return V;
  assert(V->type() == IRType::Int && Want == IRType::Float &&
         "only int->float conversions are implicit");
  if (auto *C = dyn_cast<Constant>(V))
    return Constant::getFloat(static_cast<double>(C->intValue()));
  return emit<UnaryInst>(Opcode::IntToFloat, IRType::Float, V);
}

std::unique_ptr<Module> IRGenerator::run() {
  M = std::make_unique<Module>();

  // Globals: arrays and scalar cells.
  for (const auto &G : P.Globals) {
    VarSymbol *Sym = G->symbol();
    int64_t Size = Sym->IsArray ? Sym->ArraySize : 1;
    MemoryObject *Obj = M->makeMemoryObject(Sym->Name, lowerType(Sym->Type),
                                            Size, /*IsGlobal=*/true);
    if (!Sym->IsArray) {
      Obj->setScalarCell(true);
      if (G->init()) {
        auto Folded = foldConstExpr(G->init());
        if (!Folded) {
          // Report but keep lowering so later references still resolve;
          // generateIR returns null at the end because of the error.
          Diags.error(G->loc(), "global initializer for '" + Sym->Name +
                                    "' is not a compile-time constant");
        } else {
          double V = *Folded;
          if (Sym->Type == ScalarType::Int)
            V = static_cast<double>(static_cast<int64_t>(V));
          M->setScalarInit(Obj, V);
        }
      }
    }
    ObjectMap[Sym] = Obj;
  }

  // Function shells first so calls resolve in any order.
  for (const auto &FD : P.functions())
    M->makeFunction(FD->name(), lowerType(FD->returnType()));

  for (const auto &FD : P.functions())
    lowerFunction(*FD);

  return Diags.hasErrors() ? nullptr : std::move(M);
}

void IRGenerator::lowerFunction(const FunctionDecl &FD) {
  F = M->findFunction(FD.name());
  Cur = F->makeBlock("bb0.entry");
  SlotMap.clear();
  LoopStack.clear();

  // Parameters: a Param value written once into a slot, so user
  // reassignment of parameters works; SSA renaming collapses the copy.
  for (const ParamDecl &PD : FD.params()) {
    Param *PV = F->addParam(lowerType(PD.Type), PD.Name);
    VarSlot *Slot = F->makeSlot(PD.Name, PV->type());
    SlotMap[PD.Symbol] = Slot;
    emit<WriteVarInst>(Slot, PV);
  }

  lowerStmt(FD.body());

  // Implicit `return 0` / `return 0.0` on any open path.
  for (const auto &B : F->blocks()) {
    if (!B->hasTerminator()) {
      BasicBlock *Saved = Cur;
      Cur = B.get();
      Value *Zero = F->returnType() == IRType::Float
                        ? static_cast<Value *>(Constant::getFloat(0.0))
                        : static_cast<Value *>(Constant::getInt(0));
      createRet(Cur, F->returnType() == IRType::Void ? nullptr : Zero);
      Cur = Saved;
    }
  }

  removeUnreachableBlocks(*F);
}

void IRGenerator::lowerStmt(const Stmt *S) {
  if (!S)
    return;
  switch (S->kind()) {
  case Stmt::Kind::Block:
    for (const StmtPtr &Child : cast<BlockStmt>(S)->stmts())
      lowerStmt(Child.get());
    return;

  case Stmt::Kind::Decl: {
    auto *D = cast<DeclStmt>(S);
    VarSymbol *Sym = D->symbol();
    if (Sym->IsArray) {
      MemoryObject *Obj =
          M->makeMemoryObject(F->name() + "." + Sym->Name,
                              lowerType(Sym->Type), Sym->ArraySize,
                              /*IsGlobal=*/false);
      F->addLocalObject(Obj);
      ObjectMap[Sym] = Obj;
      return;
    }
    VarSlot *Slot = F->makeSlot(Sym->Name, lowerType(Sym->Type));
    SlotMap[Sym] = Slot;
    Value *Init;
    if (D->init())
      Init = convert(lowerExpr(D->init()), Slot->type());
    else
      Init = Slot->type() == IRType::Float
                 ? static_cast<Value *>(Constant::getFloat(0.0))
                 : static_cast<Value *>(Constant::getInt(0));
    emit<WriteVarInst>(Slot, Init)->setLoc(D->loc());
    return;
  }

  case Stmt::Kind::Assign: {
    auto *A = cast<AssignStmt>(S);
    if (auto *VR = dyn_cast<VarRefExpr>(A->target())) {
      VarSymbol *Sym = VR->symbol();
      if (Sym->IsGlobal) {
        MemoryObject *Obj = ObjectMap.at(Sym);
        Value *V = convert(lowerExpr(A->value()), Obj->elemType());
        emit<StoreInst>(Obj, Constant::getInt(0), V)->setLoc(A->loc());
      } else {
        VarSlot *Slot = SlotMap.at(Sym);
        Value *V = convert(lowerExpr(A->value()), Slot->type());
        emit<WriteVarInst>(Slot, V)->setLoc(A->loc());
      }
      return;
    }
    auto *AI = cast<ArrayIndexExpr>(A->target());
    MemoryObject *Obj = ObjectMap.at(AI->symbol());
    Value *Index = lowerExpr(AI->index());
    Value *V = convert(lowerExpr(A->value()), Obj->elemType());
    emit<StoreInst>(Obj, Index, V)->setLoc(A->loc());
    return;
  }

  case Stmt::Kind::If: {
    auto *I = cast<IfStmt>(S);
    BasicBlock *ThenBB = newBlock("then");
    BasicBlock *JoinBB = nullptr;
    if (I->elseStmt()) {
      BasicBlock *ElseBB = newBlock("else");
      lowerBranchCond(I->cond(), ThenBB, ElseBB);
      JoinBB = newBlock("join");
      Cur = ThenBB;
      lowerStmt(I->thenStmt());
      if (!Cur->hasTerminator())
        createBr(Cur, JoinBB);
      Cur = ElseBB;
      lowerStmt(I->elseStmt());
      if (!Cur->hasTerminator())
        createBr(Cur, JoinBB);
    } else {
      JoinBB = newBlock("join");
      lowerBranchCond(I->cond(), ThenBB, JoinBB);
      Cur = ThenBB;
      lowerStmt(I->thenStmt());
      if (!Cur->hasTerminator())
        createBr(Cur, JoinBB);
    }
    Cur = JoinBB;
    return;
  }

  case Stmt::Kind::While: {
    auto *W = cast<WhileStmt>(S);
    BasicBlock *Header = newBlock("while.header");
    createBr(Cur, Header);
    BasicBlock *Body = newBlock("while.body");
    BasicBlock *Exit = newBlock("while.exit");
    Cur = Header;
    lowerBranchCond(W->cond(), Body, Exit);
    LoopStack.push_back({Header, Exit});
    Cur = Body;
    lowerStmt(W->body());
    if (!Cur->hasTerminator())
      createBr(Cur, Header);
    LoopStack.pop_back();
    Cur = Exit;
    return;
  }

  case Stmt::Kind::For: {
    auto *FS = cast<ForStmt>(S);
    lowerStmt(FS->init());
    BasicBlock *Header = newBlock("for.header");
    createBr(Cur, Header);
    BasicBlock *Body = newBlock("for.body");
    BasicBlock *Step = newBlock("for.step");
    BasicBlock *Exit = newBlock("for.exit");
    Cur = Header;
    if (FS->cond())
      lowerBranchCond(FS->cond(), Body, Exit);
    else
      createBr(Cur, Body);
    LoopStack.push_back({Step, Exit});
    Cur = Body;
    lowerStmt(FS->body());
    if (!Cur->hasTerminator())
      createBr(Cur, Step);
    LoopStack.pop_back();
    Cur = Step;
    lowerStmt(FS->step());
    if (!Cur->hasTerminator())
      createBr(Cur, Header);
    Cur = Exit;
    return;
  }

  case Stmt::Kind::Break: {
    assert(!LoopStack.empty() && "break outside loop survived Sema");
    createBr(Cur, LoopStack.back().second);
    Cur = newBlock("after.break");
    return;
  }

  case Stmt::Kind::Continue: {
    assert(!LoopStack.empty() && "continue outside loop survived Sema");
    createBr(Cur, LoopStack.back().first);
    Cur = newBlock("after.continue");
    return;
  }

  case Stmt::Kind::Return: {
    auto *R = cast<ReturnStmt>(S);
    Value *V = nullptr;
    if (R->value())
      V = convert(lowerExpr(R->value()), F->returnType());
    else if (F->returnType() != IRType::Void)
      V = F->returnType() == IRType::Float
              ? static_cast<Value *>(Constant::getFloat(0.0))
              : static_cast<Value *>(Constant::getInt(0));
    createRet(Cur, V)->setLoc(R->loc());
    Cur = newBlock("after.return");
    return;
  }

  case Stmt::Kind::ExprStmt:
    lowerExpr(cast<ExprStmt>(S)->expr());
    return;
  }
}

void IRGenerator::lowerBranchCond(const Expr *Cond, BasicBlock *TrueTo,
                                  BasicBlock *FalseTo) {
  if (auto *B = dyn_cast<BinaryExpr>(Cond)) {
    switch (B->op()) {
    case BinaryOp::LogicalAnd: {
      BasicBlock *Mid = newBlock("and.rhs");
      lowerBranchCond(B->lhs(), Mid, FalseTo);
      Cur = Mid;
      lowerBranchCond(B->rhs(), TrueTo, FalseTo);
      return;
    }
    case BinaryOp::LogicalOr: {
      BasicBlock *Mid = newBlock("or.rhs");
      lowerBranchCond(B->lhs(), TrueTo, Mid);
      Cur = Mid;
      lowerBranchCond(B->rhs(), TrueTo, FalseTo);
      return;
    }
    case BinaryOp::Eq:
    case BinaryOp::Ne:
    case BinaryOp::Lt:
    case BinaryOp::Le:
    case BinaryOp::Gt:
    case BinaryOp::Ge: {
      Value *Cmp = lowerExpr(Cond); // Emits the CmpInst.
      createCondBr(Cur, Cmp, TrueTo, FalseTo)->setLoc(Cond->loc());
      return;
    }
    default:
      break;
    }
  }
  if (auto *U = dyn_cast<UnaryExpr>(Cond)) {
    if (U->op() == UnaryOp::Not) {
      lowerBranchCond(U->sub(), FalseTo, TrueTo);
      return;
    }
  }
  // Generic: branch on value != 0.
  Value *V = lowerExpr(Cond);
  auto *Cmp = emit<CmpInst>(CmpPred::NE, V, Constant::getInt(0));
  Cmp->setLoc(Cond->loc());
  createCondBr(Cur, Cmp, TrueTo, FalseTo)->setLoc(Cond->loc());
}

Value *IRGenerator::lowerBoolValue(const Expr *E) {
  // Lower a short-circuit operator used as a value via control flow into a
  // temporary slot.
  VarSlot *Slot = F->makeSlot("bool.tmp", IRType::Int);
  BasicBlock *TrueBB = newBlock("bool.true");
  BasicBlock *FalseBB = newBlock("bool.false");
  BasicBlock *End = newBlock("bool.end");
  lowerBranchCond(E, TrueBB, FalseBB);
  Cur = TrueBB;
  emit<WriteVarInst>(Slot, Constant::getInt(1));
  createBr(Cur, End);
  Cur = FalseBB;
  emit<WriteVarInst>(Slot, Constant::getInt(0));
  createBr(Cur, End);
  Cur = End;
  return emit<ReadVarInst>(Slot, IRType::Int);
}

Value *IRGenerator::lowerExpr(const Expr *E) {
  switch (E->kind()) {
  case Expr::Kind::IntLit:
    return Constant::getInt(cast<IntLitExpr>(E)->value());
  case Expr::Kind::FloatLit:
    return Constant::getFloat(cast<FloatLitExpr>(E)->value());

  case Expr::Kind::VarRef: {
    auto *V = cast<VarRefExpr>(E);
    VarSymbol *Sym = V->symbol();
    if (Sym->IsGlobal) {
      MemoryObject *Obj = ObjectMap.at(Sym);
      auto *L = emit<LoadInst>(Obj, Constant::getInt(0));
      L->setLoc(E->loc());
      return L;
    }
    return emit<ReadVarInst>(SlotMap.at(Sym), lowerType(Sym->Type));
  }

  case Expr::Kind::ArrayIndex: {
    auto *A = cast<ArrayIndexExpr>(E);
    MemoryObject *Obj = ObjectMap.at(A->symbol());
    Value *Index = lowerExpr(A->index());
    auto *L = emit<LoadInst>(Obj, Index);
    L->setLoc(E->loc());
    return L;
  }

  case Expr::Kind::Unary: {
    auto *U = cast<UnaryExpr>(E);
    if (U->op() == UnaryOp::Not) {
      Value *Sub = lowerExpr(U->sub());
      auto *Cmp = emit<CmpInst>(CmpPred::EQ, Sub, Constant::getInt(0));
      Cmp->setLoc(E->loc());
      return Cmp;
    }
    Value *Sub = lowerExpr(U->sub());
    auto *Neg = emit<UnaryInst>(Opcode::Neg, Sub->type(), Sub);
    Neg->setLoc(E->loc());
    return Neg;
  }

  case Expr::Kind::Binary: {
    auto *B = cast<BinaryExpr>(E);
    switch (B->op()) {
    case BinaryOp::LogicalAnd:
    case BinaryOp::LogicalOr:
      return lowerBoolValue(E);
    case BinaryOp::Eq:
    case BinaryOp::Ne:
    case BinaryOp::Lt:
    case BinaryOp::Le:
    case BinaryOp::Gt:
    case BinaryOp::Ge: {
      Value *L = lowerExpr(B->lhs());
      Value *R = lowerExpr(B->rhs());
      IRType Common = (L->type() == IRType::Float ||
                       R->type() == IRType::Float)
                          ? IRType::Float
                          : IRType::Int;
      L = convert(L, Common);
      R = convert(R, Common);
      CmpPred Pred;
      switch (B->op()) {
      case BinaryOp::Eq:
        Pred = CmpPred::EQ;
        break;
      case BinaryOp::Ne:
        Pred = CmpPred::NE;
        break;
      case BinaryOp::Lt:
        Pred = CmpPred::LT;
        break;
      case BinaryOp::Le:
        Pred = CmpPred::LE;
        break;
      case BinaryOp::Gt:
        Pred = CmpPred::GT;
        break;
      default:
        Pred = CmpPred::GE;
        break;
      }
      auto *Cmp = emit<CmpInst>(Pred, L, R);
      Cmp->setLoc(E->loc());
      return Cmp;
    }
    default: {
      Value *L = lowerExpr(B->lhs());
      Value *R = lowerExpr(B->rhs());
      IRType Type = lowerType(B->type());
      L = convert(L, Type);
      R = convert(R, Type);
      Opcode Op;
      switch (B->op()) {
      case BinaryOp::Add:
        Op = Opcode::Add;
        break;
      case BinaryOp::Sub:
        Op = Opcode::Sub;
        break;
      case BinaryOp::Mul:
        Op = Opcode::Mul;
        break;
      case BinaryOp::Div:
        Op = Opcode::Div;
        break;
      default:
        Op = Opcode::Rem;
        break;
      }
      auto *Bin = emit<BinaryInst>(Op, Type, L, R);
      Bin->setLoc(E->loc());
      return Bin;
    }
    }
  }

  case Expr::Kind::Call:
    return lowerCall(*cast<CallExpr>(E));
  }
  return Constant::getInt(0);
}

Value *IRGenerator::lowerCall(const CallExpr &C) {
  switch (C.intrinsic()) {
  case Intrinsic::Input: {
    auto *I = emit<InputInst>();
    I->setLoc(C.loc());
    return I;
  }
  case Intrinsic::Print: {
    Value *V = lowerExpr(C.arg(0));
    auto *Pr = emit<PrintInst>(V);
    Pr->setLoc(C.loc());
    return Pr;
  }
  case Intrinsic::Len: {
    auto *VR = cast<VarRefExpr>(C.arg(0));
    return Constant::getInt(ObjectMap.at(VR->symbol())->size());
  }
  case Intrinsic::ToInt: {
    Value *V = lowerExpr(C.arg(0));
    if (V->type() == IRType::Int)
      return V;
    auto *Cast = emit<UnaryInst>(Opcode::FloatToInt, IRType::Int, V);
    Cast->setLoc(C.loc());
    return Cast;
  }
  case Intrinsic::ToFloat: {
    Value *V = lowerExpr(C.arg(0));
    return convert(V, IRType::Float);
  }
  case Intrinsic::Abs: {
    Value *V = lowerExpr(C.arg(0));
    auto *A = emit<UnaryInst>(Opcode::Abs, V->type(), V);
    A->setLoc(C.loc());
    return A;
  }
  case Intrinsic::Min:
  case Intrinsic::Max: {
    Value *L = lowerExpr(C.arg(0));
    Value *R = lowerExpr(C.arg(1));
    IRType Type = lowerType(C.type());
    L = convert(L, Type);
    R = convert(R, Type);
    Opcode Op = C.intrinsic() == Intrinsic::Min ? Opcode::Min : Opcode::Max;
    auto *B = emit<BinaryInst>(Op, Type, L, R);
    B->setLoc(C.loc());
    return B;
  }
  case Intrinsic::NotIntrinsic:
    break;
  }

  Function *Callee = M->findFunction(C.callee());
  assert(Callee && "undefined callee survived Sema");
  std::vector<Value *> Args;
  for (unsigned I = 0; I < C.numArgs(); ++I) {
    Value *A = lowerExpr(C.arg(I));
    // Callee params exist only after its shell got params; but shells get
    // params when the callee body is lowered, so convert by declared type.
    const FunctionDecl *CalleeDecl = P.findFunction(C.callee());
    Args.push_back(convert(A, lowerType(CalleeDecl->params()[I].Type)));
  }
  auto *Call = emit<CallInst>(Callee, Callee->returnType(), std::move(Args));
  Call->setLoc(C.loc());
  return Call;
}

std::unique_ptr<Module> vrp::generateIR(const Program &P,
                                        DiagnosticEngine &Diags) {
  if (Diags.hasErrors())
    return nullptr;
  IRGenerator G(P, Diags);
  return G.run();
}
