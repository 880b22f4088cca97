//===- tests/lang/ParserTest.cpp - VL parser tests -------------------------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"

#include <gtest/gtest.h>

using namespace vrp;

namespace {

std::unique_ptr<Program> parseOk(std::string_view Source) {
  DiagnosticEngine Diags;
  auto P = parseVL(Source, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.firstError();
  return P;
}

void parseError(std::string_view Source, const char *What) {
  DiagnosticEngine Diags;
  parseVL(Source, Diags);
  EXPECT_TRUE(Diags.hasErrors()) << "expected error: " << What;
}

TEST(ParserTest, EmptyProgram) {
  auto P = parseOk("");
  EXPECT_TRUE(P->functions().empty());
  EXPECT_TRUE(P->Globals.empty());
}

TEST(ParserTest, FunctionWithParamsAndReturnType) {
  auto P = parseOk("fn f(a, b: float, c: int): float { return 0.0; }");
  ASSERT_EQ(P->functions().size(), 1u);
  const FunctionDecl &F = *P->functions()[0];
  EXPECT_EQ(F.name(), "f");
  ASSERT_EQ(F.params().size(), 3u);
  EXPECT_EQ(F.params()[0].Type, ScalarType::Int); // Default.
  EXPECT_EQ(F.params()[1].Type, ScalarType::Float);
  EXPECT_EQ(F.params()[2].Type, ScalarType::Int);
  EXPECT_EQ(F.returnType(), ScalarType::Float);
}

TEST(ParserTest, GlobalDeclarations) {
  auto P = parseOk("var a = 1; var b[10]; var c[4]: float; var d;");
  ASSERT_EQ(P->Globals.size(), 4u);
  EXPECT_FALSE(P->Globals[0]->isArray());
  EXPECT_NE(P->Globals[0]->init(), nullptr);
  EXPECT_TRUE(P->Globals[1]->isArray());
  EXPECT_EQ(P->Globals[1]->arraySize(), 10);
  EXPECT_EQ(P->Globals[2]->type(), ScalarType::Float);
  EXPECT_EQ(P->Globals[3]->init(), nullptr);
}

TEST(ParserTest, PrecedenceMultiplicationBindsTighter) {
  auto P = parseOk("fn f() { return 1 + 2 * 3; }");
  const auto *Ret = cast<ReturnStmt>(
      cast<BlockStmt>(P->functions()[0]->body())->stmts()[0].get());
  const auto *Add = cast<BinaryExpr>(Ret->value());
  EXPECT_EQ(Add->op(), BinaryOp::Add);
  const auto *Mul = cast<BinaryExpr>(Add->rhs());
  EXPECT_EQ(Mul->op(), BinaryOp::Mul);
}

TEST(ParserTest, PrecedenceComparisonOverLogical) {
  // a < b && c > d parses as (a<b) && (c>d).
  auto P = parseOk("fn f(a, b, c, d) { return a < b && c > d; }");
  const auto *Ret = cast<ReturnStmt>(
      cast<BlockStmt>(P->functions()[0]->body())->stmts()[0].get());
  const auto *And = cast<BinaryExpr>(Ret->value());
  EXPECT_EQ(And->op(), BinaryOp::LogicalAnd);
  EXPECT_EQ(cast<BinaryExpr>(And->lhs())->op(), BinaryOp::Lt);
  EXPECT_EQ(cast<BinaryExpr>(And->rhs())->op(), BinaryOp::Gt);
}

TEST(ParserTest, OrBindsLooserThanAnd) {
  auto P = parseOk("fn f(a, b, c) { return a || b && c; }");
  const auto *Ret = cast<ReturnStmt>(
      cast<BlockStmt>(P->functions()[0]->body())->stmts()[0].get());
  const auto *Or = cast<BinaryExpr>(Ret->value());
  EXPECT_EQ(Or->op(), BinaryOp::LogicalOr);
  EXPECT_EQ(cast<BinaryExpr>(Or->rhs())->op(), BinaryOp::LogicalAnd);
}

TEST(ParserTest, UnaryOperatorsNest) {
  auto P = parseOk("fn f(a) { return --a; }"); // Double negation.
  const auto *Ret = cast<ReturnStmt>(
      cast<BlockStmt>(P->functions()[0]->body())->stmts()[0].get());
  const auto *Outer = cast<UnaryExpr>(Ret->value());
  EXPECT_EQ(Outer->op(), UnaryOp::Neg);
  EXPECT_EQ(cast<UnaryExpr>(Outer->sub())->op(), UnaryOp::Neg);
}

TEST(ParserTest, ParenthesesOverridePrecedence) {
  auto P = parseOk("fn f() { return (1 + 2) * 3; }");
  const auto *Ret = cast<ReturnStmt>(
      cast<BlockStmt>(P->functions()[0]->body())->stmts()[0].get());
  const auto *Mul = cast<BinaryExpr>(Ret->value());
  EXPECT_EQ(Mul->op(), BinaryOp::Mul);
  EXPECT_EQ(cast<BinaryExpr>(Mul->lhs())->op(), BinaryOp::Add);
}

TEST(ParserTest, ElseIfChains) {
  auto P = parseOk(R"(
    fn f(x) {
      if (x < 0) { return 0; }
      else if (x < 10) { return 1; }
      else { return 2; }
    }
  )");
  const auto *If = cast<IfStmt>(
      cast<BlockStmt>(P->functions()[0]->body())->stmts()[0].get());
  ASSERT_NE(If->elseStmt(), nullptr);
  EXPECT_TRUE(isa<IfStmt>(If->elseStmt()));
}

TEST(ParserTest, ForLoopClausesAreOptional) {
  auto P = parseOk("fn f() { for (;;) { break; } }");
  const auto *For = cast<ForStmt>(
      cast<BlockStmt>(P->functions()[0]->body())->stmts()[0].get());
  EXPECT_EQ(For->init(), nullptr);
  EXPECT_EQ(For->cond(), nullptr);
  EXPECT_EQ(For->step(), nullptr);
}

TEST(ParserTest, ForLoopWithDeclInit) {
  auto P = parseOk("fn f() { for (var i = 0; i < 3; i = i + 1) { } }");
  const auto *For = cast<ForStmt>(
      cast<BlockStmt>(P->functions()[0]->body())->stmts()[0].get());
  EXPECT_TRUE(isa<DeclStmt>(For->init()));
  EXPECT_TRUE(isa<AssignStmt>(For->step()));
}


TEST(ParserTest, ForLoopWithAssignmentInit) {
  auto P = parseOk(
      "fn f() { var i = 9; for (i = 0; i < 3; i = i + 1) { } return i; }");
  const auto *For = cast<ForStmt>(
      cast<BlockStmt>(P->functions()[0]->body())->stmts()[1].get());
  EXPECT_TRUE(isa<AssignStmt>(For->init()));
}

TEST(ParserTest, ArrayIndexAndCalls) {
  auto P = parseOk("fn f(i) { return g(a[i], h()) + a[i + 1]; }");
  ASSERT_EQ(P->functions().size(), 1u);
  const auto *Ret = cast<ReturnStmt>(
      cast<BlockStmt>(P->functions()[0]->body())->stmts()[0].get());
  const auto *Add = cast<BinaryExpr>(Ret->value());
  const auto *Call = cast<CallExpr>(Add->lhs());
  EXPECT_EQ(Call->callee(), "g");
  EXPECT_EQ(Call->numArgs(), 2u);
  EXPECT_TRUE(isa<ArrayIndexExpr>(Call->arg(0)));
  EXPECT_TRUE(isa<ArrayIndexExpr>(Add->rhs()));
}

TEST(ParserTest, IntAndFloatKeywordsAsConversionCalls) {
  auto P = parseOk("fn f(x: float) { return int(x) + int(float(1)); }");
  EXPECT_EQ(P->functions().size(), 1u);
}

TEST(ParserTest, AssignmentTargets) {
  parseOk("fn f() { var x = 0; x = 1; }");
  parseOk("var a[3]; fn f() { a[0] = 1; a[1 + 1] = 2; }");
  parseError("fn f() { 1 + 2 = 3; }", "assignment to expression");
  parseError("fn f() { f() = 3; }", "assignment to call");
}

TEST(ParserTest, SyntaxErrorsAreDiagnosed) {
  parseError("fn f( { }", "bad parameter list");
  parseError("fn f() { if x { } }", "missing parens");
  parseError("fn f() { var = 3; }", "missing name");
  parseError("fn f() { return 1 }", "missing semicolon");
  parseError("fn f() { var a[0]; }", "zero-size array");
  parseError("fn f() { var a[-1]; }", "negative-size array");
  parseError("fn f() { var a[3] = 1; }", "array initializer");
  parseError("xyz", "stray token at top level");
  parseError("fn f() { (1 + ; }", "unclosed paren");
}

TEST(ParserTest, ErrorRecoveryFindsMultipleErrors) {
  DiagnosticEngine Diags;
  parseVL(R"(
    fn f() {
      var = 1;
      var y = ;
    }
  )", Diags);
  EXPECT_GE(Diags.errorCount(), 2u);
}

TEST(ParserTest, TrueFalseAreIntLiterals) {
  auto P = parseOk("fn f() { return true; }");
  const auto *Ret = cast<ReturnStmt>(
      cast<BlockStmt>(P->functions()[0]->body())->stmts()[0].get());
  EXPECT_EQ(cast<IntLitExpr>(Ret->value())->value(), 1);
}

TEST(ParserTest, CommentsDoNotDisturbStructure) {
  auto P = parseOk(R"(
    // leading comment
    fn f(/* inline */ a) {
      return a; // trailing
    }
    /* between functions */
    fn g() { return 0; }
  )");
  EXPECT_EQ(P->functions().size(), 2u);
}

} // namespace
