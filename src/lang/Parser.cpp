//===- lang/Parser.cpp - VL recursive-descent parser -----------------------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"

using namespace vrp;

const char *vrp::scalarTypeName(ScalarType Type) {
  switch (Type) {
  case ScalarType::Int:
    return "int";
  case ScalarType::Float:
    return "float";
  case ScalarType::Void:
    return "void";
  }
  return "?";
}

const char *vrp::binaryOpSpelling(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Add:
    return "+";
  case BinaryOp::Sub:
    return "-";
  case BinaryOp::Mul:
    return "*";
  case BinaryOp::Div:
    return "/";
  case BinaryOp::Rem:
    return "%";
  case BinaryOp::Eq:
    return "==";
  case BinaryOp::Ne:
    return "!=";
  case BinaryOp::Lt:
    return "<";
  case BinaryOp::Le:
    return "<=";
  case BinaryOp::Gt:
    return ">";
  case BinaryOp::Ge:
    return ">=";
  case BinaryOp::LogicalAnd:
    return "&&";
  case BinaryOp::LogicalOr:
    return "||";
  }
  return "?";
}

bool Parser::accept(TokenKind K) {
  if (!at(K))
    return false;
  consume();
  return true;
}

bool Parser::expect(TokenKind K, const char *Context) {
  if (accept(K))
    return true;
  Diags.error(Tok.Loc, std::string("expected ") + tokenKindName(K) + " " +
                           Context + ", found " + tokenKindName(Tok.Kind));
  return false;
}

bool Parser::atDepthLimit() {
  if (Depth <= MaxRecursionDepth)
    return false;
  if (!DepthReported) {
    DepthReported = true;
    Diags.error(Tok.Loc, "nesting too deep (more than " +
                             std::to_string(MaxRecursionDepth) +
                             " levels); simplify the expression or "
                             "statement structure");
  }
  return true;
}

void Parser::skipToStatementBoundary() {
  while (!at(TokenKind::Eof) && !at(TokenKind::Semicolon) &&
         !at(TokenKind::RBrace))
    consume();
  accept(TokenKind::Semicolon);
}

std::unique_ptr<Program> Parser::parseProgram() {
  auto P = std::make_unique<Program>();
  while (!at(TokenKind::Eof)) {
    if (at(TokenKind::KwFn)) {
      if (auto F = parseFunction())
        P->addFunction(std::move(F));
      continue;
    }
    if (at(TokenKind::KwVar)) {
      if (auto G = parseVarDecl())
        P->Globals.push_back(std::move(G));
      continue;
    }
    Diags.error(Tok.Loc, std::string("expected 'fn' or 'var' at top level, "
                                     "found ") +
                             tokenKindName(Tok.Kind));
    consume();
  }
  return P;
}

ScalarType Parser::parseTypeAnnotation(ScalarType Default) {
  if (!accept(TokenKind::Colon))
    return Default;
  if (accept(TokenKind::KwInt))
    return ScalarType::Int;
  if (accept(TokenKind::KwFloat))
    return ScalarType::Float;
  Diags.error(Tok.Loc, "expected 'int' or 'float' after ':'");
  return Default;
}

std::unique_ptr<FunctionDecl> Parser::parseFunction() {
  SourceLoc Loc = Tok.Loc;
  consume(); // fn
  std::string Name = Tok.Text;
  if (!expect(TokenKind::Identifier, "after 'fn'"))
    return nullptr;
  if (!expect(TokenKind::LParen, "after function name"))
    return nullptr;

  std::vector<ParamDecl> Params;
  if (!at(TokenKind::RParen)) {
    do {
      ParamDecl PD;
      PD.Loc = Tok.Loc;
      PD.Name = Tok.Text;
      if (!expect(TokenKind::Identifier, "in parameter list"))
        return nullptr;
      PD.Type = parseTypeAnnotation(ScalarType::Int);
      Params.push_back(std::move(PD));
    } while (accept(TokenKind::Comma));
  }
  if (!expect(TokenKind::RParen, "after parameters"))
    return nullptr;

  ScalarType RetType = parseTypeAnnotation(ScalarType::Int);
  if (!at(TokenKind::LBrace)) {
    Diags.error(Tok.Loc, "expected function body");
    return nullptr;
  }
  StmtPtr Body = parseBlock();
  return std::make_unique<FunctionDecl>(std::move(Name), std::move(Params),
                                        RetType, std::move(Body), Loc);
}

std::unique_ptr<DeclStmt> Parser::parseVarDecl() {
  SourceLoc Loc = Tok.Loc;
  consume(); // var
  std::string Name = Tok.Text;
  if (!expect(TokenKind::Identifier, "after 'var'")) {
    skipToStatementBoundary();
    return nullptr;
  }
  bool IsArray = false;
  int64_t ArraySize = 0;
  if (accept(TokenKind::LBracket)) {
    IsArray = true;
    if (at(TokenKind::IntLiteral)) {
      ArraySize = Tok.IntValue;
      consume();
    } else {
      Diags.error(Tok.Loc, "array size must be an integer literal");
    }
    expect(TokenKind::RBracket, "after array size");
    if (ArraySize <= 0) {
      Diags.error(Loc, "array size must be positive");
      ArraySize = 1;
    }
  }
  bool HasExplicitType = at(TokenKind::Colon);
  ScalarType Type = parseTypeAnnotation(ScalarType::Int);
  ExprPtr Init;
  if (accept(TokenKind::Assign)) {
    if (IsArray)
      Diags.error(Tok.Loc, "arrays cannot have initializers");
    Init = parseExpr();
  }
  expect(TokenKind::Semicolon, "after variable declaration");
  return std::make_unique<DeclStmt>(std::move(Name), Type, HasExplicitType,
                                    IsArray, ArraySize, std::move(Init),
                                    Loc);
}

StmtPtr Parser::parseBlock() {
  SourceLoc Loc = Tok.Loc;
  expect(TokenKind::LBrace, "to open block");
  std::vector<StmtPtr> Stmts;
  while (!at(TokenKind::RBrace) && !at(TokenKind::Eof)) {
    if (StmtPtr S = parseStmt())
      Stmts.push_back(std::move(S));
  }
  expect(TokenKind::RBrace, "to close block");
  return std::make_unique<BlockStmt>(std::move(Stmts), Loc);
}

StmtPtr Parser::parseStmt() {
  DepthScope Scope(*this);
  if (atDepthLimit()) {
    skipToStatementBoundary();
    return nullptr;
  }
  switch (Tok.Kind) {
  case TokenKind::LBrace:
    return parseBlock();
  case TokenKind::KwVar:
    return parseVarDecl();
  case TokenKind::KwIf:
    return parseIf();
  case TokenKind::KwWhile:
    return parseWhile();
  case TokenKind::KwFor:
    return parseFor();
  case TokenKind::KwReturn:
    return parseReturn();
  case TokenKind::KwBreak: {
    SourceLoc Loc = Tok.Loc;
    consume();
    expect(TokenKind::Semicolon, "after 'break'");
    return std::make_unique<BreakStmt>(Loc);
  }
  case TokenKind::KwContinue: {
    SourceLoc Loc = Tok.Loc;
    consume();
    expect(TokenKind::Semicolon, "after 'continue'");
    return std::make_unique<ContinueStmt>(Loc);
  }
  default:
    return parseSimpleStmt(/*RequireSemi=*/true);
  }
}

StmtPtr Parser::parseIf() {
  // Guarded directly as well: `else if` chains recurse here without
  // passing through parseStmt.
  DepthScope Scope(*this);
  if (atDepthLimit()) {
    skipToStatementBoundary();
    return nullptr;
  }
  SourceLoc Loc = Tok.Loc;
  consume(); // if
  expect(TokenKind::LParen, "after 'if'");
  ExprPtr Cond = parseExpr();
  expect(TokenKind::RParen, "after if condition");
  StmtPtr Then = parseBlock();
  StmtPtr Else;
  if (accept(TokenKind::KwElse)) {
    if (at(TokenKind::KwIf))
      Else = parseIf();
    else
      Else = parseBlock();
  }
  return std::make_unique<IfStmt>(std::move(Cond), std::move(Then),
                                  std::move(Else), Loc);
}

StmtPtr Parser::parseWhile() {
  SourceLoc Loc = Tok.Loc;
  consume(); // while
  expect(TokenKind::LParen, "after 'while'");
  ExprPtr Cond = parseExpr();
  expect(TokenKind::RParen, "after while condition");
  StmtPtr Body = parseBlock();
  return std::make_unique<WhileStmt>(std::move(Cond), std::move(Body), Loc);
}

StmtPtr Parser::parseFor() {
  SourceLoc Loc = Tok.Loc;
  consume(); // for
  expect(TokenKind::LParen, "after 'for'");

  StmtPtr Init;
  if (!at(TokenKind::Semicolon)) {
    if (at(TokenKind::KwVar))
      Init = parseVarDecl(); // consumes the ';'
    else
      Init = parseSimpleStmt(/*RequireSemi=*/true);
  } else {
    consume();
  }

  ExprPtr Cond;
  if (!at(TokenKind::Semicolon))
    Cond = parseExpr();
  expect(TokenKind::Semicolon, "after for condition");

  StmtPtr Step;
  if (!at(TokenKind::RParen))
    Step = parseSimpleStmt(/*RequireSemi=*/false);
  expect(TokenKind::RParen, "after for clauses");

  StmtPtr Body = parseBlock();
  return std::make_unique<ForStmt>(std::move(Init), std::move(Cond),
                                   std::move(Step), std::move(Body), Loc);
}

StmtPtr Parser::parseReturn() {
  SourceLoc Loc = Tok.Loc;
  consume(); // return
  ExprPtr Value;
  if (!at(TokenKind::Semicolon))
    Value = parseExpr();
  expect(TokenKind::Semicolon, "after 'return'");
  return std::make_unique<ReturnStmt>(std::move(Value), Loc);
}

StmtPtr Parser::parseSimpleStmt(bool RequireSemi) {
  SourceLoc Loc = Tok.Loc;
  ExprPtr E = parseExpr();
  if (!E) {
    skipToStatementBoundary();
    return nullptr;
  }
  StmtPtr Result;
  if (at(TokenKind::Assign)) {
    if (!isa<VarRefExpr>(E.get()) && !isa<ArrayIndexExpr>(E.get()))
      Diags.error(Tok.Loc, "assignment target must be a variable or array "
                           "element");
    consume();
    ExprPtr Value = parseExpr();
    Result = std::make_unique<AssignStmt>(std::move(E), std::move(Value), Loc);
  } else {
    Result = std::make_unique<ExprStmt>(std::move(E), Loc);
  }
  if (RequireSemi)
    expect(TokenKind::Semicolon, "after statement");
  return Result;
}

ExprPtr Parser::parseExpr() {
  DepthScope Scope(*this);
  if (atDepthLimit()) {
    SourceLoc Loc = Tok.Loc;
    skipToStatementBoundary();
    return std::make_unique<IntLitExpr>(0, Loc);
  }
  return parseOr();
}

ExprPtr Parser::parseOr() {
  ExprPtr LHS = parseAnd();
  while (at(TokenKind::PipePipe)) {
    SourceLoc Loc = Tok.Loc;
    consume();
    ExprPtr RHS = parseAnd();
    LHS = std::make_unique<BinaryExpr>(BinaryOp::LogicalOr, std::move(LHS),
                                       std::move(RHS), Loc);
  }
  return LHS;
}

ExprPtr Parser::parseAnd() {
  ExprPtr LHS = parseComparison();
  while (at(TokenKind::AmpAmp)) {
    SourceLoc Loc = Tok.Loc;
    consume();
    ExprPtr RHS = parseComparison();
    LHS = std::make_unique<BinaryExpr>(BinaryOp::LogicalAnd, std::move(LHS),
                                       std::move(RHS), Loc);
  }
  return LHS;
}

ExprPtr Parser::parseComparison() {
  ExprPtr LHS = parseAdditive();
  BinaryOp Op;
  switch (Tok.Kind) {
  case TokenKind::EqualEqual:
    Op = BinaryOp::Eq;
    break;
  case TokenKind::BangEqual:
    Op = BinaryOp::Ne;
    break;
  case TokenKind::Less:
    Op = BinaryOp::Lt;
    break;
  case TokenKind::LessEqual:
    Op = BinaryOp::Le;
    break;
  case TokenKind::Greater:
    Op = BinaryOp::Gt;
    break;
  case TokenKind::GreaterEqual:
    Op = BinaryOp::Ge;
    break;
  default:
    return LHS;
  }
  SourceLoc Loc = Tok.Loc;
  consume();
  ExprPtr RHS = parseAdditive();
  return std::make_unique<BinaryExpr>(Op, std::move(LHS), std::move(RHS),
                                      Loc);
}

ExprPtr Parser::parseAdditive() {
  ExprPtr LHS = parseMultiplicative();
  while (at(TokenKind::Plus) || at(TokenKind::Minus)) {
    BinaryOp Op = at(TokenKind::Plus) ? BinaryOp::Add : BinaryOp::Sub;
    SourceLoc Loc = Tok.Loc;
    consume();
    ExprPtr RHS = parseMultiplicative();
    LHS = std::make_unique<BinaryExpr>(Op, std::move(LHS), std::move(RHS),
                                       Loc);
  }
  return LHS;
}

ExprPtr Parser::parseMultiplicative() {
  ExprPtr LHS = parseUnary();
  while (at(TokenKind::Star) || at(TokenKind::Slash) ||
         at(TokenKind::Percent)) {
    BinaryOp Op = at(TokenKind::Star)    ? BinaryOp::Mul
                  : at(TokenKind::Slash) ? BinaryOp::Div
                                         : BinaryOp::Rem;
    SourceLoc Loc = Tok.Loc;
    consume();
    ExprPtr RHS = parseUnary();
    LHS = std::make_unique<BinaryExpr>(Op, std::move(LHS), std::move(RHS),
                                       Loc);
  }
  return LHS;
}

ExprPtr Parser::parseUnary() {
  // Guarded directly as well: unary chains (`----x`) recurse here
  // without passing through parseExpr.
  DepthScope Scope(*this);
  if (atDepthLimit()) {
    SourceLoc Loc = Tok.Loc;
    skipToStatementBoundary();
    return std::make_unique<IntLitExpr>(0, Loc);
  }
  if (at(TokenKind::Minus)) {
    SourceLoc Loc = Tok.Loc;
    consume();
    ExprPtr Sub = parseUnary();
    return std::make_unique<UnaryExpr>(UnaryOp::Neg, std::move(Sub), Loc);
  }
  if (at(TokenKind::Bang)) {
    SourceLoc Loc = Tok.Loc;
    consume();
    ExprPtr Sub = parseUnary();
    return std::make_unique<UnaryExpr>(UnaryOp::Not, std::move(Sub), Loc);
  }
  return parsePrimary();
}

ExprPtr Parser::parsePrimary() {
  SourceLoc Loc = Tok.Loc;
  switch (Tok.Kind) {
  case TokenKind::IntLiteral: {
    int64_t V = Tok.IntValue;
    consume();
    return std::make_unique<IntLitExpr>(V, Loc);
  }
  case TokenKind::FloatLiteral: {
    double V = Tok.FloatValue;
    consume();
    return std::make_unique<FloatLitExpr>(V, Loc);
  }
  case TokenKind::KwTrue:
    consume();
    return std::make_unique<IntLitExpr>(1, Loc);
  case TokenKind::KwFalse:
    consume();
    return std::make_unique<IntLitExpr>(0, Loc);
  case TokenKind::KwInt:
  case TokenKind::KwFloat:
  case TokenKind::Identifier: {
    // `int(` / `float(` parse as conversion intrinsic calls.
    std::string Name = at(TokenKind::KwInt)     ? "int"
                       : at(TokenKind::KwFloat) ? "float"
                                                : Tok.Text;
    consume();
    if (accept(TokenKind::LParen)) {
      std::vector<ExprPtr> Args;
      if (!at(TokenKind::RParen)) {
        do {
          Args.push_back(parseExpr());
        } while (accept(TokenKind::Comma));
      }
      expect(TokenKind::RParen, "after call arguments");
      return std::make_unique<CallExpr>(std::move(Name), std::move(Args),
                                        Loc);
    }
    if (accept(TokenKind::LBracket)) {
      ExprPtr Index = parseExpr();
      expect(TokenKind::RBracket, "after array index");
      return std::make_unique<ArrayIndexExpr>(std::move(Name),
                                              std::move(Index), Loc);
    }
    return std::make_unique<VarRefExpr>(std::move(Name), Loc);
  }
  case TokenKind::LParen: {
    consume();
    ExprPtr E = parseExpr();
    expect(TokenKind::RParen, "after parenthesized expression");
    return E;
  }
  default:
    Diags.error(Loc, std::string("expected expression, found ") +
                         tokenKindName(Tok.Kind));
    consume();
    return nullptr;
  }
}

std::unique_ptr<Program> vrp::parseVL(std::string_view Source,
                                      DiagnosticEngine &Diags) {
  Parser P(Source, Diags);
  return P.parseProgram();
}
