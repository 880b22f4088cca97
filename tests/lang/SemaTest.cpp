//===- tests/lang/SemaTest.cpp - VL semantic analysis tests ---------------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"
#include "lang/Sema.h"

#include <gtest/gtest.h>

using namespace vrp;

namespace {

std::unique_ptr<Program> semaOk(std::string_view Source) {
  DiagnosticEngine Diags;
  auto P = parseVL(Source, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.firstError();
  EXPECT_TRUE(runSema(*P, Diags)) << Diags.firstError();
  return P;
}

std::string semaError(std::string_view Source) {
  DiagnosticEngine Diags;
  auto P = parseVL(Source, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << "parse should succeed: "
                                  << Diags.firstError();
  EXPECT_FALSE(runSema(*P, Diags));
  return Diags.firstError();
}

//===----------------------------------------------------------------------===//
// Name resolution and scoping
//===----------------------------------------------------------------------===//

TEST(SemaTest, ResolvesLocalsParamsAndGlobals) {
  auto P = semaOk(R"(
    var g = 1;
    fn f(p) {
      var l = p + g;
      return l;
    }
  )");
  const FunctionDecl &F = *P->functions()[0];
  EXPECT_NE(F.params()[0].Symbol, nullptr);
  EXPECT_TRUE(F.params()[0].Symbol->IsParam);
  EXPECT_TRUE(P->Globals[0]->symbol()->IsGlobal);
}

TEST(SemaTest, UndeclaredVariable) {
  EXPECT_NE(semaError("fn f() { return missing; }").find("undeclared"),
            std::string::npos);
}

TEST(SemaTest, RedeclarationInSameScope) {
  semaError("fn f() { var x = 1; var x = 2; }");
}

TEST(SemaTest, ShadowingInNestedScopeIsAllowed) {
  semaOk("fn f() { var x = 1; if (x > 0) { var x = 2; return x; } "
         "return x; }");
}

TEST(SemaTest, BlockScopeEnds) {
  semaError("fn f() { if (1 > 0) { var y = 1; } return y; }");
}

TEST(SemaTest, ForInitScopeCoversLoopOnly) {
  semaError("fn f() { for (var i = 0; i < 3; i = i + 1) { } return i; }");
}

TEST(SemaTest, SelfReferenceInInitializer) {
  semaError("fn f() { var x = x + 1; return x; }");
}

TEST(SemaTest, DuplicateFunction) {
  semaError("fn f() { return 0; } fn f() { return 1; }");
}

TEST(SemaTest, FunctionShadowingIntrinsic) {
  semaError("fn input() { return 0; }");
  semaError("fn max(a, b) { return a; }");
}

TEST(SemaTest, ForwardFunctionReferences) {
  semaOk("fn f() { return g(); } fn g() { return 1; }");
}

//===----------------------------------------------------------------------===//
// Types
//===----------------------------------------------------------------------===//

TEST(SemaTest, TypeInferenceFromInitializer) {
  auto P = semaOk("fn f() { var a = 1; var b = 2.5; var c: float = 3; "
                  "return a; }");
  const auto &Stmts = cast<BlockStmt>(P->functions()[0]->body())->stmts();
  EXPECT_EQ(cast<DeclStmt>(Stmts[0].get())->symbol()->Type,
            ScalarType::Int);
  EXPECT_EQ(cast<DeclStmt>(Stmts[1].get())->symbol()->Type,
            ScalarType::Float);
  EXPECT_EQ(cast<DeclStmt>(Stmts[2].get())->symbol()->Type,
            ScalarType::Float);
}

TEST(SemaTest, FloatIntoIntIsRejected) {
  semaError("fn f() { var x: int = 1.5; return x; }");
  semaError("fn f() { var x = 1; x = 2.5; return x; }");
  semaError("fn f() { return 1.5; }"); // Default return type is int.
  semaError("fn f(p: int) { return 0; } fn g() { return f(1.5); }");
}

TEST(SemaTest, IntPromotesToFloat) {
  semaOk("fn f(): float { var x: float = 1; x = 2; return x + 3; }");
  semaOk("fn f(p: float) { return 0; } fn g() { return f(1); }");
}

TEST(SemaTest, MixedArithmeticIsFloat) {
  auto P = semaOk("fn f(): float { return 1 + 2.5; }");
  const auto *Ret = cast<ReturnStmt>(
      cast<BlockStmt>(P->functions()[0]->body())->stmts()[0].get());
  EXPECT_EQ(Ret->value()->type(), ScalarType::Float);
}

TEST(SemaTest, ComparisonYieldsInt) {
  auto P = semaOk("fn f(a: float, b: float) { return a < b; }");
  const auto *Ret = cast<ReturnStmt>(
      cast<BlockStmt>(P->functions()[0]->body())->stmts()[0].get());
  EXPECT_EQ(Ret->value()->type(), ScalarType::Int);
}

TEST(SemaTest, FloatConditionsAndOperandsRejected) {
  semaError("fn f(x: float) { if (x) { } return 0; }");
  semaError("fn f(x: float) { while (x) { } return 0; }");
  semaError("fn f(x: float) { return x % 2.0; }");
  semaError("fn f(x: float) { return !x; }");
  semaError("fn f(x: float, y: float) { return x && y; }");
}

TEST(SemaTest, ArrayMisuse) {
  semaError("var a[4]; fn f() { return a; }");        // Array as scalar...
  semaError("var a[4]; fn f() { a = 3; return 0; }"); // ...or target.
  semaError("fn f(x) { return x[0]; }");              // Scalar as array.
  semaError("var a[4]; fn f() { return a[1.5]; }");   // Float index.
}

TEST(SemaTest, BreakContinueOutsideLoop) {
  semaError("fn f() { break; return 0; }");
  semaError("fn f() { continue; return 0; }");
  semaOk("fn f() { while (1 > 0) { break; } return 0; }");
}

//===----------------------------------------------------------------------===//
// Intrinsics and calls
//===----------------------------------------------------------------------===//

TEST(SemaTest, IntrinsicArity) {
  semaError("fn f() { return input(1); }");
  semaError("fn f() { return min(1); }");
  semaError("fn f() { return abs(1, 2); }");
  semaError("fn f() { print(); return 0; }");
  semaOk("fn f() { print(min(abs(0 - 3), max(1, 2))); return input(); }");
}

TEST(SemaTest, LenRequiresArray) {
  semaOk("var a[7]; fn f() { return len(a); }");
  semaError("fn f(x) { return len(x); }");
  semaError("fn f() { return len(3); }");
}

TEST(SemaTest, CallArityAndUnknownCallee) {
  semaError("fn f(a, b) { return a + b; } fn g() { return f(1); }");
  semaError("fn g() { return nosuch(1); }");
}

TEST(SemaTest, MinMaxTypePropagation) {
  semaOk("fn f(): float { return min(1.5, 2); }");
  semaOk("fn f(): int { return min(1, 2); }");
  semaError("fn f(): int { return min(1.5, 2); }");
}

} // namespace
