//===- Transforms.cpp -----------------------------------------------------===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//

#include "ast/Transforms.h"

#include "ast/AstContext.h"

#include <cassert>
#include <functional>

using namespace tdr;

namespace {

/// Rewrites every statement slot of a program, bottom-up and in place.
/// The Rewrite callback receives each statement after its children have
/// been processed and returns the statement to put in its slot.
class StmtRewriter {
public:
  explicit StmtRewriter(std::function<Stmt *(Stmt *)> Rewrite)
      : Rewrite(std::move(Rewrite)) {}

  void run(Program &P) {
    for (FuncDecl *F : P.funcs()) {
      Stmt *NewBody = rewriteTree(F->body());
      assert(NewBody == F->body() &&
             "rewrites must not replace a function body block");
      (void)NewBody;
    }
  }

  Stmt *rewriteTree(Stmt *S) {
    switch (S->kind()) {
    case Stmt::Kind::Block: {
      auto *B = cast<BlockStmt>(S);
      for (Stmt *&Child : B->stmts())
        Child = rewriteTree(Child);
      break;
    }
    case Stmt::Kind::If: {
      auto *I = cast<IfStmt>(S);
      I->setThenStmt(rewriteTree(I->thenStmt()));
      if (I->elseStmt())
        I->setElseStmt(rewriteTree(I->elseStmt()));
      break;
    }
    case Stmt::Kind::While: {
      auto *W = cast<WhileStmt>(S);
      W->setBody(rewriteTree(W->body()));
      break;
    }
    case Stmt::Kind::For: {
      auto *F = cast<ForStmt>(S);
      F->setBody(rewriteTree(F->body()));
      break;
    }
    case Stmt::Kind::Async: {
      auto *A = cast<AsyncStmt>(S);
      A->setBody(rewriteTree(A->body()));
      break;
    }
    case Stmt::Kind::Finish: {
      auto *F = cast<FinishStmt>(S);
      F->setBody(rewriteTree(F->body()));
      break;
    }
    case Stmt::Kind::Isolated: {
      auto *I = cast<IsolatedStmt>(S);
      I->setBody(rewriteTree(I->body()));
      break;
    }
    case Stmt::Kind::Forasync: {
      auto *F = cast<ForasyncStmt>(S);
      F->setBody(rewriteTree(F->body()));
      break;
    }
    case Stmt::Kind::VarDecl:
    case Stmt::Kind::Assign:
    case Stmt::Kind::Expr:
    case Stmt::Kind::Return:
    case Stmt::Kind::Future:
      break;
    }
    return Rewrite(S);
  }

private:
  std::function<Stmt *(Stmt *)> Rewrite;
};

} // namespace

unsigned tdr::stripFinishes(Program &P) {
  unsigned Removed = 0;
  StmtRewriter R([&](Stmt *S) -> Stmt * {
    if (auto *F = dyn_cast<FinishStmt>(S)) {
      ++Removed;
      return F->body();
    }
    return S;
  });
  R.run(P);
  return Removed;
}

unsigned tdr::elideParallelism(Program &P) {
  unsigned Removed = 0;
  StmtRewriter R([&](Stmt *S) -> Stmt * {
    if (auto *F = dyn_cast<FinishStmt>(S)) {
      ++Removed;
      return F->body();
    }
    if (auto *A = dyn_cast<AsyncStmt>(S)) {
      ++Removed;
      return A->body();
    }
    // Mutual exclusion is a no-op once all parallelism is gone. Futures
    // stay: the sequential interpreter already evaluates a future's body
    // at its declaration, which *is* the serial elision semantics.
    if (auto *I = dyn_cast<IsolatedStmt>(S)) {
      ++Removed;
      return I->body();
    }
    return S;
  });
  R.run(P);
  return Removed;
}

FinishStmt *tdr::wrapInFinish(AstContext &Ctx, BlockStmt *B, size_t Begin,
                              size_t End) {
  assert(Begin <= End && End < B->stmts().size() &&
         "finish range out of bounds");
  Stmt *First = B->stmts()[Begin];
  Stmt *Body;
  SourceLoc Loc = First->loc();
  if (Begin == End) {
    Body = First;
  } else {
    std::vector<Stmt *> Inner(B->stmts().begin() + Begin,
                              B->stmts().begin() + End + 1);
    Body = Ctx.createStmt<BlockStmt>(std::move(Inner), Loc);
  }
  auto *Finish = Ctx.createStmt<FinishStmt>(Body, Loc);
  Finish->setSynthesized(true);
  auto &Stmts = B->stmts();
  Stmts.erase(Stmts.begin() + Begin, Stmts.begin() + End + 1);
  Stmts.insert(Stmts.begin() + Begin, Finish);
  return Finish;
}

IsolatedStmt *tdr::wrapInIsolated(AstContext &Ctx, BlockStmt *B,
                                  size_t Index) {
  assert(Index < B->stmts().size() && "isolated index out of bounds");
  Stmt *Body = B->stmts()[Index];
  auto *Iso = Ctx.createStmt<IsolatedStmt>(Body, Body->loc());
  Iso->setSynthesized(true);
  B->stmts()[Index] = Iso;
  return Iso;
}

namespace {

/// Builds the desugared form of one forasync loop. \p Seq uniquifies the
/// hoisted helper names across multiple loops in one program.
Stmt *lowerOneForasync(AstContext &Ctx, ForasyncStmt *F, unsigned Seq) {
  SourceLoc Loc = F->loc();
  std::string P = "__fa" + std::to_string(Seq) + "_";
  auto Ref = [&](const std::string &Name) {
    return Ctx.createExpr<VarRefExpr>(Name, Loc);
  };
  auto DeclInt = [&](const std::string &Name, Expr *Init) -> Stmt * {
    VarDecl *D =
        Ctx.createVarDecl(VarDecl::Kind::Local, Name, Ctx.intType(), Loc);
    return Ctx.createStmt<VarDeclStmt>(D, Init, Loc);
  };
  auto Call2 = [&](const char *Name, Expr *A, Expr *B) {
    return Ctx.createExpr<CallExpr>(Name, std::vector<Expr *>{A, B}, Loc);
  };

  // var __faN_lo: int = LO;  var __faN_hi: int = HI;
  // var __faN_ch: int = max(CHUNK, 1);
  Stmt *LoDecl = DeclInt(P + "lo", F->lo());
  Stmt *HiDecl = DeclInt(P + "hi", F->hi());
  Stmt *ChDecl = DeclInt(
      P + "ch", Call2("max", F->chunk(), Ctx.createExpr<IntLitExpr>(1, Loc)));

  // Chunk body:  var __faN_end: int = min(__faN_c + __faN_ch, __faN_hi);
  //              for (var VAR: int = __faN_c; VAR < __faN_end; VAR = VAR+1)
  //                BODY
  Stmt *EndDecl = DeclInt(
      P + "end",
      Call2("min",
            Ctx.createExpr<BinaryExpr>(BinaryOp::Add, Ref(P + "c"),
                                       Ref(P + "ch"), Loc),
            Ref(P + "hi")));
  const std::string &V = F->varName();
  Stmt *InnerInit = DeclInt(V, Ref(P + "c"));
  Expr *InnerCond =
      Ctx.createExpr<BinaryExpr>(BinaryOp::Lt, Ref(V), Ref(P + "end"), Loc);
  Stmt *InnerStep = Ctx.createStmt<AssignStmt>(
      Ref(V),
      Ctx.createExpr<BinaryExpr>(BinaryOp::Add, Ref(V),
                                 Ctx.createExpr<IntLitExpr>(1, Loc), Loc),
      Loc);
  Stmt *InnerFor =
      Ctx.createStmt<ForStmt>(InnerInit, InnerCond, InnerStep, F->body(), Loc);
  auto *AsyncBody = Ctx.createStmt<BlockStmt>(
      std::vector<Stmt *>{EndDecl, InnerFor}, Loc);
  Stmt *Async = Ctx.createStmt<AsyncStmt>(AsyncBody, Loc);

  // for (var __faN_c: int = __faN_lo; __faN_c < __faN_hi;
  //      __faN_c = __faN_c + __faN_ch) async { ... }
  Stmt *OuterInit = DeclInt(P + "c", Ref(P + "lo"));
  Expr *OuterCond = Ctx.createExpr<BinaryExpr>(BinaryOp::Lt, Ref(P + "c"),
                                               Ref(P + "hi"), Loc);
  Stmt *OuterStep = Ctx.createStmt<AssignStmt>(
      Ref(P + "c"),
      Ctx.createExpr<BinaryExpr>(BinaryOp::Add, Ref(P + "c"), Ref(P + "ch"),
                                 Loc),
      Loc);
  Stmt *OuterFor =
      Ctx.createStmt<ForStmt>(OuterInit, OuterCond, OuterStep, Async, Loc);

  return Ctx.createStmt<BlockStmt>(
      std::vector<Stmt *>{LoDecl, HiDecl, ChDecl, OuterFor}, Loc);
}

} // namespace

unsigned tdr::lowerForasync(Program &P, AstContext &Ctx) {
  unsigned Lowered = 0;
  StmtRewriter R([&](Stmt *S) -> Stmt * {
    if (auto *F = dyn_cast<ForasyncStmt>(S))
      return lowerOneForasync(Ctx, F, Lowered++);
    return S;
  });
  R.run(P);
  return Lowered;
}

namespace {
template <typename Fn> void walkStmts(Stmt *S, Fn &&Visit) {
  Visit(S);
  switch (S->kind()) {
  case Stmt::Kind::Block:
    for (Stmt *Child : cast<BlockStmt>(S)->stmts())
      walkStmts(Child, Visit);
    break;
  case Stmt::Kind::If: {
    auto *I = cast<IfStmt>(S);
    walkStmts(I->thenStmt(), Visit);
    if (I->elseStmt())
      walkStmts(I->elseStmt(), Visit);
    break;
  }
  case Stmt::Kind::While:
    walkStmts(cast<WhileStmt>(S)->body(), Visit);
    break;
  case Stmt::Kind::For:
    walkStmts(cast<ForStmt>(S)->body(), Visit);
    break;
  case Stmt::Kind::Async:
    walkStmts(cast<AsyncStmt>(S)->body(), Visit);
    break;
  case Stmt::Kind::Finish:
    walkStmts(cast<FinishStmt>(S)->body(), Visit);
    break;
  case Stmt::Kind::Isolated:
    walkStmts(cast<IsolatedStmt>(S)->body(), Visit);
    break;
  case Stmt::Kind::Forasync:
    walkStmts(cast<ForasyncStmt>(S)->body(), Visit);
    break;
  case Stmt::Kind::VarDecl:
  case Stmt::Kind::Assign:
  case Stmt::Kind::Expr:
  case Stmt::Kind::Return:
  case Stmt::Kind::Future:
    break;
  }
}
} // namespace

std::vector<AsyncStmt *> tdr::collectAsyncs(Program &P) {
  std::vector<AsyncStmt *> Result;
  for (FuncDecl *F : P.funcs())
    walkStmts(F->body(), [&](Stmt *S) {
      if (auto *A = dyn_cast<AsyncStmt>(S))
        Result.push_back(A);
    });
  return Result;
}

std::vector<FinishStmt *> tdr::collectFinishes(Program &P) {
  std::vector<FinishStmt *> Result;
  for (FuncDecl *F : P.funcs())
    walkStmts(F->body(), [&](Stmt *S) {
      if (auto *Fin = dyn_cast<FinishStmt>(S))
        Result.push_back(Fin);
    });
  return Result;
}

unsigned tdr::countStmts(const Program &P) {
  unsigned N = 0;
  for (const FuncDecl *F : P.funcs())
    walkStmts(static_cast<Stmt *>(F->body()), [&](Stmt *) { ++N; });
  return N;
}

namespace {
void walkExpr(const Expr *E, const std::function<void(const Expr *)> &Fn) {
  if (!E)
    return;
  Fn(E);
  switch (E->kind()) {
  case Expr::Kind::Index: {
    const auto *I = cast<IndexExpr>(E);
    walkExpr(I->base(), Fn);
    walkExpr(I->index(), Fn);
    break;
  }
  case Expr::Kind::Call:
    for (const Expr *A : cast<CallExpr>(E)->args())
      walkExpr(A, Fn);
    break;
  case Expr::Kind::Unary:
    walkExpr(cast<UnaryExpr>(E)->operand(), Fn);
    break;
  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    walkExpr(B->lhs(), Fn);
    walkExpr(B->rhs(), Fn);
    break;
  }
  case Expr::Kind::NewArray:
    for (const Expr *D : cast<NewArrayExpr>(E)->dims())
      walkExpr(D, Fn);
    break;
  case Expr::Kind::IntLit:
  case Expr::Kind::DoubleLit:
  case Expr::Kind::BoolLit:
  case Expr::Kind::VarRef:
    break;
  }
}
} // namespace

void tdr::forEachExpr(const Stmt *S,
                      const std::function<void(const Expr *)> &Fn) {
  switch (S->kind()) {
  case Stmt::Kind::Block:
    for (const Stmt *C : cast<BlockStmt>(S)->stmts())
      forEachExpr(C, Fn);
    break;
  case Stmt::Kind::VarDecl:
    walkExpr(cast<VarDeclStmt>(S)->init(), Fn);
    break;
  case Stmt::Kind::Assign: {
    const auto *A = cast<AssignStmt>(S);
    walkExpr(A->target(), Fn);
    walkExpr(A->value(), Fn);
    break;
  }
  case Stmt::Kind::Expr:
    walkExpr(cast<ExprStmt>(S)->expr(), Fn);
    break;
  case Stmt::Kind::If: {
    const auto *I = cast<IfStmt>(S);
    walkExpr(I->cond(), Fn);
    forEachExpr(I->thenStmt(), Fn);
    if (I->elseStmt())
      forEachExpr(I->elseStmt(), Fn);
    break;
  }
  case Stmt::Kind::While: {
    const auto *W = cast<WhileStmt>(S);
    walkExpr(W->cond(), Fn);
    forEachExpr(W->body(), Fn);
    break;
  }
  case Stmt::Kind::For: {
    const auto *F = cast<ForStmt>(S);
    if (F->init())
      forEachExpr(F->init(), Fn);
    walkExpr(F->cond(), Fn);
    if (F->step())
      forEachExpr(F->step(), Fn);
    forEachExpr(F->body(), Fn);
    break;
  }
  case Stmt::Kind::Return:
    walkExpr(cast<ReturnStmt>(S)->value(), Fn);
    break;
  case Stmt::Kind::Async:
    forEachExpr(cast<AsyncStmt>(S)->body(), Fn);
    break;
  case Stmt::Kind::Finish:
    forEachExpr(cast<FinishStmt>(S)->body(), Fn);
    break;
  case Stmt::Kind::Future:
    walkExpr(cast<FutureStmt>(S)->init(), Fn);
    break;
  case Stmt::Kind::Isolated:
    forEachExpr(cast<IsolatedStmt>(S)->body(), Fn);
    break;
  case Stmt::Kind::Forasync: {
    const auto *F = cast<ForasyncStmt>(S);
    walkExpr(F->lo(), Fn);
    walkExpr(F->hi(), Fn);
    walkExpr(F->chunk(), Fn);
    forEachExpr(F->body(), Fn);
    break;
  }
  }
}
