//===- Interpreter.cpp ----------------------------------------------------===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

#include "ast/Ast.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/StringUtils.h"

#include <cmath>

using namespace tdr;

std::string Value::str() const {
  switch (K) {
  case Kind::Int:
    return std::to_string(Payload.I);
  case Kind::Double:
    return strFormat("%.6g", Payload.D);
  case Kind::Bool:
    return Payload.B ? "true" : "false";
  case Kind::Array:
    return Payload.A ? strFormat("array#%u", Payload.A->id()) : "null";
  case Kind::Future:
    return strFormat("future#%u", Payload.F);
  }
  return "?";
}

std::string MemLoc::str() const {
  if (K == Kind::Global)
    return strFormat("global#%u", Id);
  return strFormat("array#%u[%lld]", Id, static_cast<long long>(Index));
}

Interpreter::Interpreter(const Program &P, ExecOptions OptsIn)
    : P(P), Opts(std::move(OptsIn)), Mon(Opts.Monitor),
      CAsyncs(&obs::counter("interp.asyncs")),
      CFinishes(&obs::counter("interp.finishes")),
      CFutures(&obs::counter("interp.futures")),
      CIsolated(&obs::counter("interp.isolated")), Rand(Opts.Seed) {}

Interpreter::~Interpreter() = default;

bool Interpreter::fail(SourceLoc Loc, std::string Msg) {
  if (Error.empty()) {
    Error = std::move(Msg);
    ErrorLoc = Loc;
  }
  return false;
}

bool Interpreter::addWork(uint64_t Units, SourceLoc Loc) {
  Work += Units;
  if (Mon)
    Mon->onWork(Units);
  if (Work > Opts.WorkLimit)
    return fail(Loc, "work limit exceeded (possible runaway loop)");
  return true;
}

/// Default value for a declared-but-uninitialized variable of type \p T.
static Value defaultValue(const Type *T) {
  switch (T->kind()) {
  case Type::Kind::Int:
    return Value::makeInt(0);
  case Type::Kind::Double:
    return Value::makeDouble(0.0);
  case Type::Kind::Bool:
    return Value::makeBool(false);
  case Type::Kind::Array:
    return Value::makeArray(nullptr);
  case Type::Kind::Future:
    // Unreachable: future handles always initialize at the declaration.
    return Value::makeFuture(0);
  case Type::Kind::Void:
    break;
  }
  return Value::makeInt(0);
}

ExecResult Interpreter::run() {
  assert(!Ran && "Interpreter::run() called twice");
  Ran = true;
  obs::ScopedSpan Span(obs::phase::InterpRun);
  obs::counter("interp.runs").inc();

  const FuncDecl *Main = P.mainFunc();
  assert(Main && "sema guarantees a main function");

  // Global initializers execute in declaration order, attributed to a
  // root-level step (Owner == null).
  Globals.reserve(P.globals().size());
  bool InitOk = true;
  for (const VarDecl *G : P.globals()) {
    Value V = defaultValue(G->type());
    if (G->init()) {
      stepPoint(nullptr);
      if (!addWork(1, G->loc()) || !evalExpr(G->init(), V)) {
        InitOk = false;
        Globals.push_back(V);
        break;
      }
    }
    Globals.push_back(V);
    if (Mon && G->init())
      Mon->onWrite(MemLoc::global(G->slot()));
  }

  if (InitOk) {
    // main() executes as a call-body scope at the root.
    Stack.push_back(Frame{std::vector<Value>(Main->numFrameSlots())});
    execBlock(Main->body(), ScopeKind::Call, nullptr, Main);
    Stack.pop_back();
  }

  ExecResult R;
  R.Ok = Error.empty();
  R.Error = Error;
  R.ErrorLoc = ErrorLoc;
  R.Output = std::move(Output);
  R.TotalWork = Work;
  obs::counter("interp.work").inc(Work);
  obs::gauge("interp.last_work").set(static_cast<int64_t>(Work));
  obs::gauge("interp.heap_bytes").set(static_cast<int64_t>(HeapBytes));
  return R;
}

Interpreter::Flow Interpreter::execBlock(const BlockStmt *B, ScopeKind K,
                                         const Stmt *Owner,
                                         const FuncDecl *Callee) {
  if (Mon)
    Mon->onScopeEnter(K, Owner, B, Callee);
  Flow F = Flow::Normal;
  for (const Stmt *S : B->stmts()) {
    F = execStmt(S, S);
    if (F != Flow::Normal)
      break;
  }
  if (Mon)
    Mon->onScopeExit();
  return F;
}

Interpreter::Flow Interpreter::execBody(const Stmt *Body, const Stmt *Owner) {
  if (const auto *B = dyn_cast<BlockStmt>(Body))
    return execBlock(B, ScopeKind::Block, Owner, nullptr);
  return execStmt(Body, Owner);
}

Interpreter::Flow Interpreter::execAssign(const AssignStmt *A) {
  const Expr *Target = A->target();
  if (const auto *Ref = dyn_cast<VarRefExpr>(Target)) {
    const VarDecl *D = Ref->decl();
    Value V;
    if (A->isCompound()) {
      Value Current;
      if (!evalExpr(Target, Current))
        return Flow::Error;
      Value Rhs;
      if (!evalExpr(A->value(), Rhs))
        return Flow::Error;
      if (!applyBinary(A->compoundOp(), Current, Rhs, V, A->loc()))
        return Flow::Error;
    } else if (!evalExpr(A->value(), V)) {
      return Flow::Error;
    }
    if (D->isGlobal()) {
      Globals[D->slot()] = V;
      if (Mon)
        Mon->onWrite(MemLoc::global(D->slot()));
    } else {
      Stack.back().Slots[D->slot()] = V;
    }
    return Flow::Normal;
  }

  // Array element target: evaluate base, then index, then value.
  const auto *Idx = cast<IndexExpr>(Target);
  Value BaseV;
  if (!evalExpr(Idx->base(), BaseV))
    return Flow::Error;
  Value IndexV;
  if (!evalExpr(Idx->index(), IndexV))
    return Flow::Error;
  int64_t I = IndexV.asInt();
  ArrayObj *Arr = checkedArray(BaseV, I, Idx->loc());
  if (!Arr)
    return Flow::Error;

  Value V;
  if (A->isCompound()) {
    if (Mon)
      Mon->onRead(MemLoc::elem(Arr->id(), I));
    Value Current = Arr->elem(static_cast<size_t>(I));
    Value Rhs;
    if (!evalExpr(A->value(), Rhs))
      return Flow::Error;
    if (!applyBinary(A->compoundOp(), Current, Rhs, V, A->loc()))
      return Flow::Error;
  } else if (!evalExpr(A->value(), V)) {
    return Flow::Error;
  }
  Arr->elem(static_cast<size_t>(I)) = V;
  if (Mon)
    Mon->onWrite(MemLoc::elem(Arr->id(), I));
  return Flow::Normal;
}

Interpreter::Flow Interpreter::execStmt(const Stmt *S, const Stmt *Owner) {
  switch (S->kind()) {
  case Stmt::Kind::Block:
    return execBlock(cast<BlockStmt>(S), ScopeKind::Block, Owner, nullptr);

  case Stmt::Kind::VarDecl: {
    const auto *V = cast<VarDeclStmt>(S);
    stepPoint(Owner);
    if (!addWork(1, S->loc()))
      return Flow::Error;
    Value Init = defaultValue(V->decl()->type());
    if (V->init() && !evalExpr(V->init(), Init))
      return Flow::Error;
    Stack.back().Slots[V->decl()->slot()] = Init;
    return Flow::Normal;
  }

  case Stmt::Kind::Assign:
    stepPoint(Owner);
    if (!addWork(1, S->loc()))
      return Flow::Error;
    return execAssign(cast<AssignStmt>(S));

  case Stmt::Kind::Expr: {
    stepPoint(Owner);
    if (!addWork(1, S->loc()))
      return Flow::Error;
    Value Ignored;
    return evalExpr(cast<ExprStmt>(S)->expr(), Ignored) ? Flow::Normal
                                                        : Flow::Error;
  }

  case Stmt::Kind::If: {
    const auto *I = cast<IfStmt>(S);
    stepPoint(Owner);
    if (!addWork(1, S->loc()))
      return Flow::Error;
    Value Cond;
    if (!evalExpr(I->cond(), Cond))
      return Flow::Error;
    if (Cond.asBool())
      return execBody(I->thenStmt(), Owner);
    if (I->elseStmt())
      return execBody(I->elseStmt(), Owner);
    return Flow::Normal;
  }

  case Stmt::Kind::While: {
    const auto *W = cast<WhileStmt>(S);
    while (true) {
      stepPoint(Owner);
      if (!addWork(1, S->loc()))
        return Flow::Error;
      Value Cond;
      if (!evalExpr(W->cond(), Cond))
        return Flow::Error;
      if (!Cond.asBool())
        return Flow::Normal;
      Flow F = execBody(W->body(), Owner);
      if (F != Flow::Normal)
        return F;
    }
  }

  case Stmt::Kind::For: {
    const auto *F = cast<ForStmt>(S);
    if (F->init()) {
      Flow Fl = execStmt(F->init(), Owner);
      if (Fl != Flow::Normal)
        return Fl;
    }
    while (true) {
      stepPoint(Owner);
      if (!addWork(1, S->loc()))
        return Flow::Error;
      if (F->cond()) {
        Value Cond;
        if (!evalExpr(F->cond(), Cond))
          return Flow::Error;
        if (!Cond.asBool())
          return Flow::Normal;
      }
      Flow Fl = execBody(F->body(), Owner);
      if (Fl != Flow::Normal)
        return Fl;
      if (F->step()) {
        stepPoint(Owner);
        Fl = execStmt(F->step(), Owner);
        if (Fl != Flow::Normal)
          return Fl;
      }
    }
  }

  case Stmt::Kind::Return: {
    const auto *R = cast<ReturnStmt>(S);
    stepPoint(Owner);
    if (!addWork(1, S->loc()))
      return Flow::Error;
    if (R->value()) {
      if (!evalExpr(R->value(), RetVal))
        return Flow::Error;
      HasRetVal = true;
    }
    return Flow::Return;
  }

  case Stmt::Kind::Async: {
    const auto *A = cast<AsyncStmt>(S);
    if (InIsolated) {
      fail(S->loc(), "cannot spawn a task inside an isolated section");
      return Flow::Error;
    }
    CAsyncs->inc();
    if (Mon)
      Mon->onAsyncEnter(A, Owner);
    // Depth-first semantics: execute the body now, on a snapshot of the
    // parent frame (by-value capture; sema rejects writes to captured
    // locals, so discarding the snapshot afterwards is unobservable).
    Stack.push_back(Frame{Stack.back().Slots});
    Flow F = execBody(A->body(), A);
    Stack.pop_back();
    if (Mon)
      Mon->onAsyncExit(A);
    return F;
  }

  case Stmt::Kind::Finish: {
    const auto *Fin = cast<FinishStmt>(S);
    if (InIsolated) {
      fail(S->loc(), "'finish' is not allowed inside an isolated section");
      return Flow::Error;
    }
    CFinishes->inc();
    if (Mon)
      Mon->onFinishEnter(Fin, Owner);
    Flow F = execBody(Fin->body(), Fin);
    if (Mon)
      Mon->onFinishExit(Fin);
    return F;
  }

  case Stmt::Kind::Future: {
    const auto *F = cast<FutureStmt>(S);
    if (InIsolated) {
      fail(S->loc(), "cannot spawn a future inside an isolated section");
      return Flow::Error;
    }
    CFutures->inc();
    uint32_t Fid = NextFutureId++;
    if (Mon)
      Mon->onFutureEnter(F, Owner, Fid);
    // Depth-first semantics, like async: evaluate the initializer now on a
    // snapshot of the parent frame.
    Stack.push_back(Frame{Stack.back().Slots});
    stepPoint(F);
    Value V;
    bool Ok = evalExpr(F->init(), V);
    Stack.pop_back();
    if (Mon)
      Mon->onFutureExit(F);
    if (!Ok)
      return Flow::Error;
    if (FutureValues.size() <= Fid)
      FutureValues.resize(Fid + 1);
    FutureValues[Fid] = V;
    // The handle write is a local slot store — not a monitored location.
    Stack.back().Slots[F->decl()->slot()] = Value::makeFuture(Fid);
    // The continuation belongs to the parent's step again.
    stepPoint(Owner);
    return Flow::Normal;
  }

  case Stmt::Kind::Isolated: {
    const auto *I = cast<IsolatedStmt>(S);
    if (InIsolated) {
      fail(S->loc(), "isolated sections do not nest");
      return Flow::Error;
    }
    CIsolated->inc();
    if (Mon)
      Mon->onIsolatedEnter(I, Owner);
    InIsolated = true;
    Flow F = execBody(I->body(), I);
    InIsolated = false;
    if (Mon)
      Mon->onIsolatedExit(I);
    return F;
  }

  case Stmt::Kind::Forasync:
    // Sema lowers every forasync before execution.
    fail(S->loc(), "internal: forasync statement survived lowering");
    return Flow::Error;
  }
  return Flow::Normal;
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

ArrayObj *Interpreter::checkedArray(const Value &BaseV, int64_t Index,
                                    SourceLoc Loc) {
  ArrayObj *Arr = BaseV.asArray();
  if (!Arr) {
    fail(Loc, "null array dereference");
    return nullptr;
  }
  if (Index < 0 || static_cast<size_t>(Index) >= Arr->size()) {
    fail(Loc, strFormat("array index %lld out of bounds [0, %zu)",
                        static_cast<long long>(Index), Arr->size()));
    return nullptr;
  }
  return Arr;
}

bool Interpreter::applyBinary(BinaryOp Op, const Value &L, const Value &R,
                              Value &Out, SourceLoc Loc) {
  switch (Op) {
  case BinaryOp::Add:
  case BinaryOp::Sub:
  case BinaryOp::Mul:
  case BinaryOp::Div:
    if (L.isInt()) {
      int64_t A = L.asInt(), B = R.asInt();
      switch (Op) {
      case BinaryOp::Add: Out = Value::makeInt(A + B); return true;
      case BinaryOp::Sub: Out = Value::makeInt(A - B); return true;
      case BinaryOp::Mul: Out = Value::makeInt(A * B); return true;
      default:
        if (B == 0)
          return fail(Loc, "integer division by zero");
        if (A == INT64_MIN && B == -1)
          return fail(Loc, "integer division overflow");
        Out = Value::makeInt(A / B);
        return true;
      }
    } else {
      double A = L.asDouble(), B = R.asDouble();
      switch (Op) {
      case BinaryOp::Add: Out = Value::makeDouble(A + B); return true;
      case BinaryOp::Sub: Out = Value::makeDouble(A - B); return true;
      case BinaryOp::Mul: Out = Value::makeDouble(A * B); return true;
      default: Out = Value::makeDouble(A / B); return true;
      }
    }
  case BinaryOp::Mod: {
    int64_t A = L.asInt(), B = R.asInt();
    if (B == 0)
      return fail(Loc, "integer modulo by zero");
    if (A == INT64_MIN && B == -1)
      return fail(Loc, "integer modulo overflow");
    Out = Value::makeInt(A % B);
    return true;
  }
  case BinaryOp::BAnd:
    Out = Value::makeInt(L.asInt() & R.asInt());
    return true;
  case BinaryOp::BOr:
    Out = Value::makeInt(L.asInt() | R.asInt());
    return true;
  case BinaryOp::BXor:
    Out = Value::makeInt(L.asInt() ^ R.asInt());
    return true;
  case BinaryOp::Shl: {
    uint64_t Sh = static_cast<uint64_t>(R.asInt()) & 63;
    Out = Value::makeInt(static_cast<int64_t>(
        static_cast<uint64_t>(L.asInt()) << Sh));
    return true;
  }
  case BinaryOp::Shr: {
    // Arithmetic shift, Java-style, with the count masked to 6 bits.
    uint64_t Sh = static_cast<uint64_t>(R.asInt()) & 63;
    Out = Value::makeInt(L.asInt() >> Sh);
    return true;
  }
  case BinaryOp::Lt:
  case BinaryOp::Le:
  case BinaryOp::Gt:
  case BinaryOp::Ge: {
    bool B;
    if (L.isInt()) {
      int64_t A = L.asInt(), C = R.asInt();
      B = Op == BinaryOp::Lt   ? A < C
          : Op == BinaryOp::Le ? A <= C
          : Op == BinaryOp::Gt ? A > C
                               : A >= C;
    } else {
      double A = L.asDouble(), C = R.asDouble();
      B = Op == BinaryOp::Lt   ? A < C
          : Op == BinaryOp::Le ? A <= C
          : Op == BinaryOp::Gt ? A > C
                               : A >= C;
    }
    Out = Value::makeBool(B);
    return true;
  }
  case BinaryOp::Eq:
  case BinaryOp::Ne: {
    bool Equal;
    if (L.isInt())
      Equal = L.asInt() == R.asInt();
    else if (L.isDouble())
      Equal = L.asDouble() == R.asDouble();
    else
      Equal = L.asBool() == R.asBool();
    Out = Value::makeBool(Op == BinaryOp::Eq ? Equal : !Equal);
    return true;
  }
  case BinaryOp::LAnd:
  case BinaryOp::LOr:
    // Handled (with short-circuit) in evalExpr; only compound assignment
    // could reach here, and sema rejects bool compound assignment.
    Out = Value::makeBool(Op == BinaryOp::LAnd
                              ? (L.asBool() && R.asBool())
                              : (L.asBool() || R.asBool()));
    return true;
  }
  return fail(Loc, "unsupported binary operator");
}

bool Interpreter::evalExpr(const Expr *E, Value &Out) {
  if (!addWork(1, E->loc()))
    return false;

  switch (E->kind()) {
  case Expr::Kind::IntLit:
    Out = Value::makeInt(cast<IntLitExpr>(E)->value());
    return true;
  case Expr::Kind::DoubleLit:
    Out = Value::makeDouble(cast<DoubleLitExpr>(E)->value());
    return true;
  case Expr::Kind::BoolLit:
    Out = Value::makeBool(cast<BoolLitExpr>(E)->value());
    return true;

  case Expr::Kind::VarRef: {
    const VarDecl *D = cast<VarRefExpr>(E)->decl();
    assert(D && "sema must bind variable references");
    if (D->isGlobal()) {
      if (Mon)
        Mon->onRead(MemLoc::global(D->slot()));
      Out = Globals[D->slot()];
    } else {
      Out = Stack.back().Slots[D->slot()];
    }
    return true;
  }

  case Expr::Kind::Index: {
    const auto *I = cast<IndexExpr>(E);
    Value BaseV;
    if (!evalExpr(I->base(), BaseV))
      return false;
    Value IndexV;
    if (!evalExpr(I->index(), IndexV))
      return false;
    int64_t Idx = IndexV.asInt();
    ArrayObj *Arr = checkedArray(BaseV, Idx, I->loc());
    if (!Arr)
      return false;
    if (Mon)
      Mon->onRead(MemLoc::elem(Arr->id(), Idx));
    Out = Arr->elem(static_cast<size_t>(Idx));
    return true;
  }

  case Expr::Kind::Call:
    return evalCall(cast<CallExpr>(E), Out);

  case Expr::Kind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    Value V;
    if (!evalExpr(U->operand(), V))
      return false;
    switch (U->op()) {
    case UnaryOp::Neg:
      Out = V.isInt() ? Value::makeInt(-V.asInt())
                      : Value::makeDouble(-V.asDouble());
      return true;
    case UnaryOp::Not:
      Out = Value::makeBool(!V.asBool());
      return true;
    case UnaryOp::BNot:
      Out = Value::makeInt(~V.asInt());
      return true;
    }
    return false;
  }

  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    if (B->op() == BinaryOp::LAnd || B->op() == BinaryOp::LOr) {
      Value L;
      if (!evalExpr(B->lhs(), L))
        return false;
      bool LB = L.asBool();
      if ((B->op() == BinaryOp::LAnd && !LB) ||
          (B->op() == BinaryOp::LOr && LB)) {
        Out = Value::makeBool(LB);
        return true;
      }
      return evalExpr(B->rhs(), Out);
    }
    Value L, R;
    if (!evalExpr(B->lhs(), L) || !evalExpr(B->rhs(), R))
      return false;
    return applyBinary(B->op(), L, R, Out, B->loc());
  }

  case Expr::Kind::NewArray: {
    const auto *N = cast<NewArrayExpr>(E);
    std::vector<int64_t> Dims;
    for (const Expr *D : N->dims()) {
      Value V;
      if (!evalExpr(D, V))
        return false;
      if (V.asInt() < 0)
        return fail(D->loc(), strFormat("negative array dimension %lld",
                                        static_cast<long long>(V.asInt())));
      Dims.push_back(V.asInt());
    }
    return allocArray(N->elemType(), Dims, 0, Out, N->loc());
  }
  }
  return false;
}

bool Interpreter::allocArray(const Type *ElemTy,
                             const std::vector<int64_t> &Dims, size_t Level,
                             Value &Out, SourceLoc Loc) {
  size_t N = static_cast<size_t>(Dims[Level]);
  if (!addWork(N / 8 + 1, Loc))
    return false;
  HeapBytes += sizeof(ArrayObj) + N * sizeof(Value);
  Value Fill;
  if (Level + 1 == Dims.size()) {
    Fill = defaultValue(ElemTy);
    Heap.emplace_back(NextArrayId++, N, Fill);
    Out = Value::makeArray(&Heap.back());
    return true;
  }
  Heap.emplace_back(NextArrayId++, N, Value::makeArray(nullptr));
  ArrayObj *Arr = &Heap.back();
  for (size_t I = 0; I != N; ++I) {
    Value Sub;
    if (!allocArray(ElemTy, Dims, Level + 1, Sub, Loc))
      return false;
    Arr->elem(I) = Sub;
  }
  Out = Value::makeArray(Arr);
  return true;
}

bool Interpreter::evalCall(const CallExpr *C, Value &Out) {
  if (C->builtin() != Builtin::None)
    return evalBuiltin(C, Out);

  const FuncDecl *F = C->callee();
  assert(F && "sema must bind call targets");
  if (Stack.size() >= Opts.MaxCallDepth)
    return fail(C->loc(), "call depth limit exceeded (runaway recursion?)");

  // Evaluate arguments in the caller's context.
  std::vector<Value> ArgVals;
  ArgVals.reserve(C->args().size());
  for (const Expr *A : C->args()) {
    Value V;
    if (!evalExpr(A, V))
      return false;
    ArgVals.push_back(V);
  }

  // The call body is a scope node owned by the caller's current statement.
  const Stmt *Owner = CurOwner;
  Frame NewFrame{std::vector<Value>(F->numFrameSlots())};
  for (size_t I = 0; I != ArgVals.size(); ++I)
    NewFrame.Slots[F->params()[I]->slot()] = ArgVals[I];

  bool SavedHasRet = HasRetVal;
  Value SavedRet = RetVal;
  HasRetVal = false;

  Stack.push_back(std::move(NewFrame));
  if (Mon)
    Mon->onScopeEnter(ScopeKind::Call, Owner, F->body(), F);
  Flow Fl = Flow::Normal;
  for (const Stmt *S : F->body()->stmts()) {
    Fl = execStmt(S, S);
    if (Fl != Flow::Normal)
      break;
  }
  if (Mon)
    Mon->onScopeExit();
  Stack.pop_back();

  if (Fl == Flow::Error) {
    HasRetVal = SavedHasRet;
    RetVal = SavedRet;
    return false;
  }

  Out = HasRetVal ? RetVal : defaultValue(F->returnType());
  HasRetVal = SavedHasRet;
  RetVal = SavedRet;

  // The continuation after the call belongs to the caller's step again.
  stepPoint(Owner);
  return true;
}

bool Interpreter::evalBuiltin(const CallExpr *C, Value &Out) {
  // Evaluate arguments first (all builtins are strict).
  std::vector<Value> A;
  A.reserve(C->args().size());
  for (const Expr *ArgE : C->args()) {
    Value V;
    if (!evalExpr(ArgE, V))
      return false;
    A.push_back(V);
  }

  Out = Value::makeInt(0);
  switch (C->builtin()) {
  case Builtin::None:
    break;
  case Builtin::Print:
    Output += A[0].str();
    Output += '\n';
    return true;
  case Builtin::Len: {
    ArrayObj *Arr = A[0].asArray();
    if (!Arr)
      return fail(C->loc(), "len() of null array");
    Out = Value::makeInt(static_cast<int64_t>(Arr->size()));
    return true;
  }
  case Builtin::Sqrt:
    Out = Value::makeDouble(std::sqrt(A[0].asDouble()));
    return true;
  case Builtin::Sin:
    Out = Value::makeDouble(std::sin(A[0].asDouble()));
    return true;
  case Builtin::Cos:
    Out = Value::makeDouble(std::cos(A[0].asDouble()));
    return true;
  case Builtin::Exp:
    Out = Value::makeDouble(std::exp(A[0].asDouble()));
    return true;
  case Builtin::Log:
    Out = Value::makeDouble(std::log(A[0].asDouble()));
    return true;
  case Builtin::Floor:
    Out = Value::makeDouble(std::floor(A[0].asDouble()));
    return true;
  case Builtin::Abs:
    Out = A[0].isInt() ? Value::makeInt(std::llabs(A[0].asInt()))
                       : Value::makeDouble(std::fabs(A[0].asDouble()));
    return true;
  case Builtin::Min:
    if (A[0].isInt())
      Out = Value::makeInt(std::min(A[0].asInt(), A[1].asInt()));
    else
      Out = Value::makeDouble(std::min(A[0].asDouble(), A[1].asDouble()));
    return true;
  case Builtin::Max:
    if (A[0].isInt())
      Out = Value::makeInt(std::max(A[0].asInt(), A[1].asInt()));
    else
      Out = Value::makeDouble(std::max(A[0].asDouble(), A[1].asDouble()));
    return true;
  case Builtin::Pow:
    Out = Value::makeDouble(std::pow(A[0].asDouble(), A[1].asDouble()));
    return true;
  case Builtin::ToInt:
    Out = Value::makeInt(static_cast<int64_t>(A[0].asDouble()));
    return true;
  case Builtin::ToDouble:
    Out = Value::makeDouble(static_cast<double>(A[0].asInt()));
    return true;
  case Builtin::RandInt: {
    int64_t Bound = A[0].asInt();
    if (Bound <= 0)
      return fail(C->loc(), "randInt bound must be positive");
    Out = Value::makeInt(
        static_cast<int64_t>(Rand.nextBelow(static_cast<uint64_t>(Bound))));
    return true;
  }
  case Builtin::RandSeed:
    Rand = Rng(static_cast<uint64_t>(A[0].asInt()));
    return true;
  case Builtin::Arg: {
    int64_t I = A[0].asInt();
    Out = Value::makeInt(I >= 0 && static_cast<size_t>(I) < Opts.Args.size()
                             ? Opts.Args[static_cast<size_t>(I)]
                             : 0);
    return true;
  }
  case Builtin::Force: {
    if (InIsolated)
      return fail(C->loc(), "force is not allowed inside an isolated section");
    uint32_t Fid = A[0].asFuture();
    assert(Fid < FutureValues.size() &&
           "depth-first execution completes futures before any force");
    if (Mon)
      Mon->onForce(Fid);
    Out = FutureValues[Fid];
    return true;
  }
  }
  return fail(C->loc(), "unknown builtin");
}

ExecResult tdr::runProgram(const Program &P, ExecOptions Opts) {
  Interpreter I(P, std::move(Opts));
  return I.run();
}
