//===- lang/Sema.cpp - VL semantic analysis --------------------------------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//

#include "lang/Sema.h"

#include <cassert>
#include <unordered_map>
#include <vector>

using namespace vrp;

Intrinsic vrp::lookupIntrinsic(const std::string &Name) {
  static const std::unordered_map<std::string, Intrinsic> Table = {
      {"input", Intrinsic::Input}, {"print", Intrinsic::Print},
      {"len", Intrinsic::Len},     {"int", Intrinsic::ToInt},
      {"float", Intrinsic::ToFloat}, {"abs", Intrinsic::Abs},
      {"min", Intrinsic::Min},     {"max", Intrinsic::Max},
  };
  auto It = Table.find(Name);
  return It == Table.end() ? Intrinsic::NotIntrinsic : It->second;
}

namespace {

/// Walks the AST resolving names and computing expression types.
class SemaVisitor {
public:
  SemaVisitor(Program &P, DiagnosticEngine &Diags) : P(P), Diags(Diags) {}

  void run();

private:
  // Scope handling: a stack of name->symbol maps.
  void pushScope() { Scopes.emplace_back(); }
  void popScope() { Scopes.pop_back(); }
  VarSymbol *lookup(const std::string &Name) const;
  VarSymbol *declare(const std::string &Name, SourceLoc Loc);

  void checkGlobal(DeclStmt &D);
  void checkFunction(FunctionDecl &F);
  void checkStmt(Stmt *S);
  ScalarType checkExpr(Expr *E);
  ScalarType checkCall(CallExpr &C);
  void requireInt(Expr *E, const char *What);

  // Recursion-depth guard, mirroring the parser's: a left-leaning
  // operator chain (`a+a+a+...`) nests the AST arbitrarily deep without
  // ever deepening parser recursion, so semantic analysis needs its own
  // stack-overflow protection.
  static constexpr unsigned MaxCheckDepth = 512;
  struct DepthScope {
    explicit DepthScope(SemaVisitor &S) : S(S) { ++S.CheckDepth; }
    ~DepthScope() { --S.CheckDepth; }
    SemaVisitor &S;
  };
  bool atDepthLimit(SourceLoc Loc);

  Program &P;
  DiagnosticEngine &Diags;
  std::vector<std::unordered_map<std::string, VarSymbol *>> Scopes;
  FunctionDecl *CurrentFn = nullptr;
  unsigned LoopDepth = 0;
  unsigned CheckDepth = 0;
  bool DepthReported = false;
};

} // namespace

VarSymbol *SemaVisitor::lookup(const std::string &Name) const {
  for (auto It = Scopes.rbegin(); It != Scopes.rend(); ++It) {
    auto Found = It->find(Name);
    if (Found != It->end())
      return Found->second;
  }
  return nullptr;
}

VarSymbol *SemaVisitor::declare(const std::string &Name, SourceLoc Loc) {
  assert(!Scopes.empty() && "no active scope");
  auto &Scope = Scopes.back();
  if (Scope.count(Name)) {
    Diags.error(Loc, "redeclaration of '" + Name + "' in the same scope");
    return Scope[Name];
  }
  VarSymbol *S = P.makeSymbol();
  S->Name = Name;
  Scope[Name] = S;
  return S;
}

void SemaVisitor::run() {
  pushScope(); // Global scope.
  for (auto &G : P.Globals)
    checkGlobal(*G);

  // Check for duplicate function names before diving into bodies.
  for (const auto &F : P.functions()) {
    if (P.findFunction(F->name()) != F.get())
      Diags.error(F->loc(), "redefinition of function '" + F->name() + "'");
    if (lookupIntrinsic(F->name()) != Intrinsic::NotIntrinsic)
      Diags.error(F->loc(),
                  "function name '" + F->name() + "' shadows an intrinsic");
  }

  for (const auto &F : P.functions())
    checkFunction(*F);
  popScope();
}

void SemaVisitor::checkGlobal(DeclStmt &D) {
  ScalarType InitType = ScalarType::Int;
  if (D.init())
    InitType = checkExpr(D.init());
  if (!D.hasExplicitType() && D.init() && !D.isArray())
    D.setType(InitType);
  VarSymbol *S = declare(D.name(), D.loc());
  S->Type = D.type();
  S->IsGlobal = true;
  S->IsArray = D.isArray();
  S->ArraySize = D.arraySize();
  D.setSymbol(S);
  if (D.init() && D.type() == ScalarType::Int &&
      InitType == ScalarType::Float)
    Diags.error(D.loc(), "cannot initialize int variable '" + D.name() +
                             "' with a float value");
  // Globals must have constant initializers; irgen enforces foldability.
}

void SemaVisitor::checkFunction(FunctionDecl &F) {
  CurrentFn = &F;
  pushScope();
  for (ParamDecl &PD : F.params()) {
    VarSymbol *S = declare(PD.Name, PD.Loc);
    S->Type = PD.Type;
    S->IsParam = true;
    PD.Symbol = S;
  }
  checkStmt(F.body());
  popScope();
  CurrentFn = nullptr;
}

void SemaVisitor::requireInt(Expr *E, const char *What) {
  if (E && checkExpr(E) == ScalarType::Float)
    Diags.error(E->loc(), std::string(What) + " must have int type");
}

bool SemaVisitor::atDepthLimit(SourceLoc Loc) {
  if (CheckDepth <= MaxCheckDepth)
    return false;
  if (!DepthReported) {
    DepthReported = true;
    Diags.error(Loc, "construct nests too deeply for semantic analysis "
                     "(more than " +
                         std::to_string(MaxCheckDepth) + " levels)");
  }
  return true;
}

void SemaVisitor::checkStmt(Stmt *S) {
  if (!S)
    return;
  DepthScope Scope(*this);
  if (atDepthLimit(S->loc()))
    return;
  switch (S->kind()) {
  case Stmt::Kind::Block: {
    auto *B = cast<BlockStmt>(S);
    pushScope();
    for (const StmtPtr &Child : B->stmts())
      checkStmt(Child.get());
    popScope();
    return;
  }
  case Stmt::Kind::Decl: {
    auto *D = cast<DeclStmt>(S);
    // Check the initializer before declaring so `var x = x;` errors.
    ScalarType InitType = ScalarType::Int;
    if (D->init())
      InitType = checkExpr(D->init());
    // `var x = 1.5;` infers float; an explicit annotation is authoritative.
    if (!D->hasExplicitType() && D->init() && !D->isArray())
      D->setType(InitType);
    VarSymbol *Sym = declare(D->name(), D->loc());
    Sym->Type = D->type();
    Sym->IsArray = D->isArray();
    Sym->ArraySize = D->arraySize();
    D->setSymbol(Sym);
    if (D->init() && D->type() == ScalarType::Int &&
        InitType == ScalarType::Float)
      Diags.error(D->loc(), "cannot initialize int variable '" + D->name() +
                                "' with a float value");
    return;
  }
  case Stmt::Kind::Assign: {
    auto *A = cast<AssignStmt>(S);
    ScalarType ValueType = checkExpr(A->value());
    ScalarType TargetType = checkExpr(A->target());
    if (auto *VR = dyn_cast<VarRefExpr>(A->target())) {
      if (VR->symbol() && VR->symbol()->IsArray)
        Diags.error(A->loc(), "cannot assign to array '" + VR->name() +
                                  "' as a whole");
    }
    if (TargetType == ScalarType::Int && ValueType == ScalarType::Float)
      Diags.error(A->loc(), "cannot assign float value to int target");
    return;
  }
  case Stmt::Kind::If: {
    auto *I = cast<IfStmt>(S);
    requireInt(I->cond(), "if condition");
    checkStmt(I->thenStmt());
    checkStmt(I->elseStmt());
    return;
  }
  case Stmt::Kind::While: {
    auto *W = cast<WhileStmt>(S);
    requireInt(W->cond(), "while condition");
    ++LoopDepth;
    checkStmt(W->body());
    --LoopDepth;
    return;
  }
  case Stmt::Kind::For: {
    auto *F = cast<ForStmt>(S);
    pushScope(); // for-init declarations scope over the loop.
    checkStmt(F->init());
    if (F->cond())
      requireInt(F->cond(), "for condition");
    ++LoopDepth;
    checkStmt(F->body());
    checkStmt(F->step());
    --LoopDepth;
    popScope();
    return;
  }
  case Stmt::Kind::Break:
    if (LoopDepth == 0)
      Diags.error(S->loc(), "'break' outside of a loop");
    return;
  case Stmt::Kind::Continue:
    if (LoopDepth == 0)
      Diags.error(S->loc(), "'continue' outside of a loop");
    return;
  case Stmt::Kind::Return: {
    auto *R = cast<ReturnStmt>(S);
    assert(CurrentFn && "return outside function");
    if (R->value()) {
      ScalarType T = checkExpr(R->value());
      if (CurrentFn->returnType() == ScalarType::Int &&
          T == ScalarType::Float)
        Diags.error(R->loc(), "returning float from int function '" +
                                  CurrentFn->name() + "'");
    }
    return;
  }
  case Stmt::Kind::ExprStmt:
    checkExpr(cast<ExprStmt>(S)->expr());
    return;
  }
}

ScalarType SemaVisitor::checkExpr(Expr *E) {
  if (!E)
    return ScalarType::Int;
  DepthScope Scope(*this);
  if (atDepthLimit(E->loc())) {
    E->setType(ScalarType::Int);
    return ScalarType::Int;
  }
  switch (E->kind()) {
  case Expr::Kind::IntLit:
    E->setType(ScalarType::Int);
    return ScalarType::Int;
  case Expr::Kind::FloatLit:
    E->setType(ScalarType::Float);
    return ScalarType::Float;
  case Expr::Kind::VarRef: {
    auto *V = cast<VarRefExpr>(E);
    VarSymbol *S = lookup(V->name());
    if (!S) {
      Diags.error(V->loc(), "use of undeclared variable '" + V->name() + "'");
      E->setType(ScalarType::Int);
      return ScalarType::Int;
    }
    if (S->IsArray)
      Diags.error(V->loc(), "array '" + V->name() +
                                "' used as a scalar value");
    V->setSymbol(S);
    E->setType(S->Type);
    return S->Type;
  }
  case Expr::Kind::ArrayIndex: {
    auto *A = cast<ArrayIndexExpr>(E);
    VarSymbol *S = lookup(A->name());
    if (!S) {
      Diags.error(A->loc(), "use of undeclared array '" + A->name() + "'");
    } else if (!S->IsArray) {
      Diags.error(A->loc(), "'" + A->name() + "' is not an array");
      S = nullptr;
    }
    A->setSymbol(S);
    requireInt(A->index(), "array index");
    ScalarType T = S ? S->Type : ScalarType::Int;
    E->setType(T);
    return T;
  }
  case Expr::Kind::Unary: {
    auto *U = cast<UnaryExpr>(E);
    ScalarType T = checkExpr(U->sub());
    if (U->op() == UnaryOp::Not) {
      if (T == ScalarType::Float)
        Diags.error(U->loc(), "'!' requires an int operand");
      T = ScalarType::Int;
    }
    E->setType(T);
    return T;
  }
  case Expr::Kind::Binary: {
    auto *B = cast<BinaryExpr>(E);
    ScalarType L = checkExpr(B->lhs());
    ScalarType R = checkExpr(B->rhs());
    switch (B->op()) {
    case BinaryOp::LogicalAnd:
    case BinaryOp::LogicalOr:
      if (L == ScalarType::Float || R == ScalarType::Float)
        Diags.error(B->loc(), "logical operators require int operands");
      E->setType(ScalarType::Int);
      return ScalarType::Int;
    case BinaryOp::Eq:
    case BinaryOp::Ne:
    case BinaryOp::Lt:
    case BinaryOp::Le:
    case BinaryOp::Gt:
    case BinaryOp::Ge:
      E->setType(ScalarType::Int);
      return ScalarType::Int;
    case BinaryOp::Rem:
      if (L == ScalarType::Float || R == ScalarType::Float)
        Diags.error(B->loc(), "'%' requires int operands");
      E->setType(ScalarType::Int);
      return ScalarType::Int;
    default: {
      // Arithmetic: float if either side is float (int promotes).
      ScalarType T = (L == ScalarType::Float || R == ScalarType::Float)
                         ? ScalarType::Float
                         : ScalarType::Int;
      E->setType(T);
      return T;
    }
    }
  }
  case Expr::Kind::Call:
    return checkCall(*cast<CallExpr>(E));
  }
  return ScalarType::Int;
}

ScalarType SemaVisitor::checkCall(CallExpr &C) {
  Intrinsic Intr = lookupIntrinsic(C.callee());
  C.setIntrinsic(Intr);

  auto expectArgs = [&](unsigned N) {
    if (C.numArgs() != N) {
      Diags.error(C.loc(), "'" + C.callee() + "' expects " +
                               std::to_string(N) + " argument(s), got " +
                               std::to_string(C.numArgs()));
      return false;
    }
    return true;
  };

  switch (Intr) {
  case Intrinsic::Input:
    expectArgs(0);
    C.setType(ScalarType::Int);
    return ScalarType::Int;
  case Intrinsic::Print:
    if (expectArgs(1))
      checkExpr(C.arg(0));
    C.setType(ScalarType::Void);
    return ScalarType::Void;
  case Intrinsic::Len: {
    if (expectArgs(1)) {
      auto *VR = dyn_cast<VarRefExpr>(C.arg(0));
      VarSymbol *S = VR ? lookup(VR->name()) : nullptr;
      if (!VR || !S || !S->IsArray)
        Diags.error(C.loc(), "'len' expects an array name argument");
      else
        VR->setSymbol(S);
    }
    C.setType(ScalarType::Int);
    return ScalarType::Int;
  }
  case Intrinsic::ToInt:
    if (expectArgs(1))
      checkExpr(C.arg(0));
    C.setType(ScalarType::Int);
    return ScalarType::Int;
  case Intrinsic::ToFloat:
    if (expectArgs(1))
      checkExpr(C.arg(0));
    C.setType(ScalarType::Float);
    return ScalarType::Float;
  case Intrinsic::Abs: {
    ScalarType T = ScalarType::Int;
    if (expectArgs(1))
      T = checkExpr(C.arg(0));
    C.setType(T);
    return T;
  }
  case Intrinsic::Min:
  case Intrinsic::Max: {
    ScalarType T = ScalarType::Int;
    if (expectArgs(2)) {
      ScalarType A = checkExpr(C.arg(0));
      ScalarType B = checkExpr(C.arg(1));
      T = (A == ScalarType::Float || B == ScalarType::Float)
              ? ScalarType::Float
              : ScalarType::Int;
    }
    C.setType(T);
    return T;
  }
  case Intrinsic::NotIntrinsic:
    break;
  }

  // User-defined function call.
  FunctionDecl *Callee = P.findFunction(C.callee());
  if (!Callee) {
    Diags.error(C.loc(), "call to undefined function '" + C.callee() + "'");
    for (const ExprPtr &A : C.args())
      checkExpr(A.get());
    C.setType(ScalarType::Int);
    return ScalarType::Int;
  }
  if (C.numArgs() != Callee->params().size())
    Diags.error(C.loc(), "'" + C.callee() + "' expects " +
                             std::to_string(Callee->params().size()) +
                             " argument(s), got " +
                             std::to_string(C.numArgs()));
  for (unsigned I = 0; I < C.numArgs(); ++I) {
    ScalarType T = checkExpr(C.arg(I));
    if (I < Callee->params().size() &&
        Callee->params()[I].Type == ScalarType::Int &&
        T == ScalarType::Float)
      Diags.error(C.arg(I)->loc(),
                  "float argument passed to int parameter '" +
                      Callee->params()[I].Name + "'");
  }
  C.setType(Callee->returnType());
  return Callee->returnType();
}

bool vrp::runSema(Program &P, DiagnosticEngine &Diags) {
  unsigned Before = Diags.errorCount();
  SemaVisitor V(P, Diags);
  V.run();
  return Diags.errorCount() == Before;
}
