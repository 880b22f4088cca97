//===- lang/AST.h - VL abstract syntax tree ---------------------*- C++ -*-===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The VL abstract syntax tree. Nodes use LLVM-style kind tags with
/// `classof` so `isa<>/cast<>/dyn_cast<>` from support/Casting.h apply.
/// Semantic analysis (lang/Sema.h) decorates expressions with types and
/// resolves variable references to `VarSymbol`s.
///
//===----------------------------------------------------------------------===//

#ifndef VRP_LANG_AST_H
#define VRP_LANG_AST_H

#include "support/Casting.h"
#include "support/SourceLoc.h"

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace vrp {

/// Scalar value types in VL. Arrays are a property of declarations, not a
/// first-class type (VL arrays cannot be passed or returned).
enum class ScalarType { Int, Float, Void };

const char *scalarTypeName(ScalarType Type);

/// A resolved variable: one per declaration (global, local or parameter).
/// Owned by the Sema symbol arena; AST nodes point at these after Sema.
struct VarSymbol {
  std::string Name;
  ScalarType Type = ScalarType::Int;
  bool IsGlobal = false;
  bool IsParam = false;
  bool IsArray = false;
  int64_t ArraySize = 0;
  unsigned Id = 0; ///< Dense per-program id assigned by Sema.
};

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

class Expr {
public:
  enum class Kind {
    IntLit,
    FloatLit,
    VarRef,
    ArrayIndex,
    Unary,
    Binary,
    Call,
  };

  Expr(Kind K, SourceLoc Loc) : TheKind(K), Loc(Loc) {}
  virtual ~Expr() = default;

  Kind kind() const { return TheKind; }
  SourceLoc loc() const { return Loc; }

  /// The type Sema computed for this expression (Int until Sema runs).
  ScalarType type() const { return Type; }
  void setType(ScalarType T) { Type = T; }

private:
  const Kind TheKind;
  SourceLoc Loc;
  ScalarType Type = ScalarType::Int;
};

using ExprPtr = std::unique_ptr<Expr>;

/// An integer literal, e.g. `42`.
class IntLitExpr : public Expr {
public:
  IntLitExpr(int64_t Value, SourceLoc Loc)
      : Expr(Kind::IntLit, Loc), Value(Value) {}

  int64_t value() const { return Value; }

  static bool classof(const Expr *E) { return E->kind() == Kind::IntLit; }

private:
  int64_t Value;
};

/// A floating-point literal, e.g. `3.5`.
class FloatLitExpr : public Expr {
public:
  FloatLitExpr(double Value, SourceLoc Loc)
      : Expr(Kind::FloatLit, Loc), Value(Value) {}

  double value() const { return Value; }

  static bool classof(const Expr *E) { return E->kind() == Kind::FloatLit; }

private:
  double Value;
};

/// A reference to a scalar variable (or to an array in a `len(a)` call).
class VarRefExpr : public Expr {
public:
  VarRefExpr(std::string Name, SourceLoc Loc)
      : Expr(Kind::VarRef, Loc), Name(std::move(Name)) {}

  const std::string &name() const { return Name; }
  VarSymbol *symbol() const { return Symbol; }
  void setSymbol(VarSymbol *S) { Symbol = S; }

  static bool classof(const Expr *E) { return E->kind() == Kind::VarRef; }

private:
  std::string Name;
  VarSymbol *Symbol = nullptr;
};

/// An array element read, `a[i]`.
class ArrayIndexExpr : public Expr {
public:
  ArrayIndexExpr(std::string Name, ExprPtr Index, SourceLoc Loc)
      : Expr(Kind::ArrayIndex, Loc), Name(std::move(Name)),
        Index(std::move(Index)) {}

  const std::string &name() const { return Name; }
  Expr *index() const { return Index.get(); }
  VarSymbol *symbol() const { return Symbol; }
  void setSymbol(VarSymbol *S) { Symbol = S; }

  static bool classof(const Expr *E) { return E->kind() == Kind::ArrayIndex; }

private:
  std::string Name;
  ExprPtr Index;
  VarSymbol *Symbol = nullptr;
};

enum class UnaryOp { Neg, Not };

/// A unary operation, `-e` or `!e`.
class UnaryExpr : public Expr {
public:
  UnaryExpr(UnaryOp Op, ExprPtr Sub, SourceLoc Loc)
      : Expr(Kind::Unary, Loc), Op(Op), Sub(std::move(Sub)) {}

  UnaryOp op() const { return Op; }
  Expr *sub() const { return Sub.get(); }

  static bool classof(const Expr *E) { return E->kind() == Kind::Unary; }

private:
  UnaryOp Op;
  ExprPtr Sub;
};

enum class BinaryOp {
  Add,
  Sub,
  Mul,
  Div,
  Rem,
  Eq,
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
  LogicalAnd, ///< Short-circuit; lowered to control flow by irgen.
  LogicalOr,  ///< Short-circuit; lowered to control flow by irgen.
};

const char *binaryOpSpelling(BinaryOp Op);

/// A binary operation.
class BinaryExpr : public Expr {
public:
  BinaryExpr(BinaryOp Op, ExprPtr LHS, ExprPtr RHS, SourceLoc Loc)
      : Expr(Kind::Binary, Loc), Op(Op), LHS(std::move(LHS)),
        RHS(std::move(RHS)) {}

  BinaryOp op() const { return Op; }
  Expr *lhs() const { return LHS.get(); }
  Expr *rhs() const { return RHS.get(); }

  static bool classof(const Expr *E) { return E->kind() == Kind::Binary; }

private:
  BinaryOp Op;
  ExprPtr LHS, RHS;
};

/// Intrinsics recognised by Sema; `NotIntrinsic` means a user function call.
enum class Intrinsic {
  NotIntrinsic,
  Input,  ///< input(): reads the next int from the program input stream.
  Print,  ///< print(e): appends a value to the program output.
  Len,    ///< len(a): compile-time array length.
  ToInt,  ///< int(e): float -> int truncation.
  ToFloat,///< float(e): int -> float conversion.
  Abs,    ///< abs(e)
  Min,    ///< min(a, b)
  Max,    ///< max(a, b)
};

/// A call expression: user function or intrinsic.
class CallExpr : public Expr {
public:
  CallExpr(std::string Callee, std::vector<ExprPtr> Args, SourceLoc Loc)
      : Expr(Kind::Call, Loc), Callee(std::move(Callee)),
        Args(std::move(Args)) {}

  const std::string &callee() const { return Callee; }
  const std::vector<ExprPtr> &args() const { return Args; }
  Expr *arg(unsigned I) const { return Args[I].get(); }
  unsigned numArgs() const { return Args.size(); }

  Intrinsic intrinsic() const { return Intr; }
  void setIntrinsic(Intrinsic I) { Intr = I; }

  static bool classof(const Expr *E) { return E->kind() == Kind::Call; }

private:
  std::string Callee;
  std::vector<ExprPtr> Args;
  Intrinsic Intr = Intrinsic::NotIntrinsic;
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

class Stmt {
public:
  enum class Kind {
    Block,
    Decl,
    Assign,
    If,
    While,
    For,
    Break,
    Continue,
    Return,
    ExprStmt,
  };

  Stmt(Kind K, SourceLoc Loc) : TheKind(K), Loc(Loc) {}
  virtual ~Stmt() = default;

  Kind kind() const { return TheKind; }
  SourceLoc loc() const { return Loc; }

private:
  const Kind TheKind;
  SourceLoc Loc;
};

using StmtPtr = std::unique_ptr<Stmt>;

/// A `{ ... }` statement list.
class BlockStmt : public Stmt {
public:
  BlockStmt(std::vector<StmtPtr> Stmts, SourceLoc Loc)
      : Stmt(Kind::Block, Loc), Stmts(std::move(Stmts)) {}

  const std::vector<StmtPtr> &stmts() const { return Stmts; }

  static bool classof(const Stmt *S) { return S->kind() == Kind::Block; }

private:
  std::vector<StmtPtr> Stmts;
};

/// A variable declaration, `var x = e;` / `var a[10]: float;`.
class DeclStmt : public Stmt {
public:
  DeclStmt(std::string Name, ScalarType Type, bool HasExplicitType,
           bool IsArray, int64_t ArraySize, ExprPtr Init, SourceLoc Loc)
      : Stmt(Kind::Decl, Loc), Name(std::move(Name)), Type(Type),
        HasExplicitType(HasExplicitType), IsArray(IsArray),
        ArraySize(ArraySize), Init(std::move(Init)) {}

  const std::string &name() const { return Name; }
  ScalarType type() const { return Type; }
  /// False when the type should be inferred from the initializer.
  bool hasExplicitType() const { return HasExplicitType; }
  void setType(ScalarType T) { Type = T; }
  bool isArray() const { return IsArray; }
  int64_t arraySize() const { return ArraySize; }
  Expr *init() const { return Init.get(); }
  VarSymbol *symbol() const { return Symbol; }
  void setSymbol(VarSymbol *S) { Symbol = S; }

  static bool classof(const Stmt *S) { return S->kind() == Kind::Decl; }

private:
  std::string Name;
  ScalarType Type;
  bool HasExplicitType;
  bool IsArray;
  int64_t ArraySize;
  ExprPtr Init;
  VarSymbol *Symbol = nullptr;
};

/// An assignment to a scalar (`x = e;`) or array element (`a[i] = e;`).
/// Target is either a VarRefExpr or an ArrayIndexExpr.
class AssignStmt : public Stmt {
public:
  AssignStmt(ExprPtr Target, ExprPtr Value, SourceLoc Loc)
      : Stmt(Kind::Assign, Loc), Target(std::move(Target)),
        Value(std::move(Value)) {}

  Expr *target() const { return Target.get(); }
  Expr *value() const { return Value.get(); }

  static bool classof(const Stmt *S) { return S->kind() == Kind::Assign; }

private:
  ExprPtr Target, Value;
};

/// `if (cond) { ... } else { ... }`.
class IfStmt : public Stmt {
public:
  IfStmt(ExprPtr Cond, StmtPtr Then, StmtPtr Else, SourceLoc Loc)
      : Stmt(Kind::If, Loc), Cond(std::move(Cond)), Then(std::move(Then)),
        Else(std::move(Else)) {}

  Expr *cond() const { return Cond.get(); }
  Stmt *thenStmt() const { return Then.get(); }
  Stmt *elseStmt() const { return Else.get(); }

  static bool classof(const Stmt *S) { return S->kind() == Kind::If; }

private:
  ExprPtr Cond;
  StmtPtr Then, Else;
};

/// `while (cond) { ... }`.
class WhileStmt : public Stmt {
public:
  WhileStmt(ExprPtr Cond, StmtPtr Body, SourceLoc Loc)
      : Stmt(Kind::While, Loc), Cond(std::move(Cond)), Body(std::move(Body)) {}

  Expr *cond() const { return Cond.get(); }
  Stmt *body() const { return Body.get(); }

  static bool classof(const Stmt *S) { return S->kind() == Kind::While; }

private:
  ExprPtr Cond;
  StmtPtr Body;
};

/// `for (init; cond; step) { ... }`; init/step are optional statements and
/// cond is an optional expression (absent means `true`).
class ForStmt : public Stmt {
public:
  ForStmt(StmtPtr Init, ExprPtr Cond, StmtPtr Step, StmtPtr Body,
          SourceLoc Loc)
      : Stmt(Kind::For, Loc), Init(std::move(Init)), Cond(std::move(Cond)),
        Step(std::move(Step)), Body(std::move(Body)) {}

  Stmt *init() const { return Init.get(); }
  Expr *cond() const { return Cond.get(); }
  Stmt *step() const { return Step.get(); }
  Stmt *body() const { return Body.get(); }

  static bool classof(const Stmt *S) { return S->kind() == Kind::For; }

private:
  StmtPtr Init;
  ExprPtr Cond;
  StmtPtr Step;
  StmtPtr Body;
};

class BreakStmt : public Stmt {
public:
  explicit BreakStmt(SourceLoc Loc) : Stmt(Kind::Break, Loc) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::Break; }
};

class ContinueStmt : public Stmt {
public:
  explicit ContinueStmt(SourceLoc Loc) : Stmt(Kind::Continue, Loc) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::Continue; }
};

/// `return;` or `return e;`.
class ReturnStmt : public Stmt {
public:
  ReturnStmt(ExprPtr Value, SourceLoc Loc)
      : Stmt(Kind::Return, Loc), Value(std::move(Value)) {}

  Expr *value() const { return Value.get(); }

  static bool classof(const Stmt *S) { return S->kind() == Kind::Return; }

private:
  ExprPtr Value;
};

/// An expression evaluated for effect (a call such as `print(x);`).
class ExprStmt : public Stmt {
public:
  ExprStmt(ExprPtr E, SourceLoc Loc)
      : Stmt(Kind::ExprStmt, Loc), TheExpr(std::move(E)) {}

  Expr *expr() const { return TheExpr.get(); }

  static bool classof(const Stmt *S) { return S->kind() == Kind::ExprStmt; }

private:
  ExprPtr TheExpr;
};

//===----------------------------------------------------------------------===//
// Declarations / program
//===----------------------------------------------------------------------===//

/// One function parameter.
struct ParamDecl {
  std::string Name;
  ScalarType Type = ScalarType::Int;
  SourceLoc Loc;
  VarSymbol *Symbol = nullptr;
};

/// A function definition.
class FunctionDecl {
public:
  FunctionDecl(std::string Name, std::vector<ParamDecl> Params,
               ScalarType ReturnType, StmtPtr Body, SourceLoc Loc)
      : Name(std::move(Name)), Params(std::move(Params)),
        ReturnType(ReturnType), Body(std::move(Body)), Loc(Loc) {}

  const std::string &name() const { return Name; }
  const std::vector<ParamDecl> &params() const { return Params; }
  std::vector<ParamDecl> &params() { return Params; }
  ScalarType returnType() const { return ReturnType; }
  Stmt *body() const { return Body.get(); }
  SourceLoc loc() const { return Loc; }

private:
  std::string Name;
  std::vector<ParamDecl> Params;
  ScalarType ReturnType;
  StmtPtr Body;
  SourceLoc Loc;
};

/// A whole VL translation unit: globals plus functions, plus the symbol
/// arena populated by Sema.
class Program {
public:
  std::vector<std::unique_ptr<DeclStmt>> Globals;

  /// All VarSymbols, owned here; stable addresses.
  std::vector<std::unique_ptr<VarSymbol>> Symbols;

  /// Functions in declaration order.
  const std::vector<std::unique_ptr<FunctionDecl>> &functions() const {
    return Functions;
  }

  void addFunction(std::unique_ptr<FunctionDecl> F) {
    ByName.emplace(F->name(), F.get()); // First declaration wins.
    Functions.push_back(std::move(F));
  }

  /// The first function declared as \p Name, or null.
  FunctionDecl *findFunction(const std::string &Name) const {
    auto It = ByName.find(Name);
    return It == ByName.end() ? nullptr : It->second;
  }

  VarSymbol *makeSymbol() {
    Symbols.push_back(std::make_unique<VarSymbol>());
    VarSymbol *S = Symbols.back().get();
    S->Id = Symbols.size() - 1;
    return S;
  }

private:
  std::vector<std::unique_ptr<FunctionDecl>> Functions;
  /// Name -> first declaration; Sema and IRGen resolve every call site
  /// through it.
  std::unordered_map<std::string, FunctionDecl *> ByName;
};

} // namespace vrp

#endif // VRP_LANG_AST_H
