//===- Interpreter.h - Sequential HJ-mini interpreter ------------*- C++ -*-===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instrumented sequential interpreter. It executes a (sema-checked)
/// HJ-mini program in the canonical depth-first order — async bodies run to
/// completion at their spawn point with a by-value snapshot of the parent
/// frame, exactly the execution order the ESP-bags algorithm requires
/// (paper §4.1) — and streams structure/access events to an ExecMonitor.
///
/// Run with no monitor, the same interpreter provides the "HJ-Seq"
/// sequential-time measurements: async/finish contribute nothing but their
/// bodies, so the execution behaves as the serial elision.
///
//===----------------------------------------------------------------------===//

#ifndef TDR_INTERP_INTERPRETER_H
#define TDR_INTERP_INTERPRETER_H

#include "interp/Monitor.h"
#include "interp/Value.h"
#include "support/Rng.h"
#include "support/SourceLoc.h"

#include <deque>
#include <string>
#include <vector>

namespace tdr {

class AssignStmt;
class CallExpr;
class Expr;
class Program;
class Type;
enum class BinaryOp;

namespace obs {
class Counter;
} // namespace obs

/// Knobs for one execution.
struct ExecOptions {
  /// Values returned by the arg(i) builtin; out-of-range reads are 0.
  std::vector<int64_t> Args;
  /// Seed for the randInt builtin.
  uint64_t Seed = 12345;
  /// Abort execution after this many work units (guards runaway loops).
  uint64_t WorkLimit = 4000000000ull;
  /// Abort when user-function call depth exceeds this.
  unsigned MaxCallDepth = 4000;
  /// Receives instrumentation events; may be null.
  ExecMonitor *Monitor = nullptr;
};

/// Outcome of one execution.
struct ExecResult {
  bool Ok = false;
  std::string Error;      ///< runtime error message when !Ok
  SourceLoc ErrorLoc;     ///< location of the failing construct
  std::string Output;     ///< everything print() produced
  uint64_t TotalWork = 0; ///< abstract work units executed
};

/// Executes one HJ-mini program sequentially.
class Interpreter {
public:
  Interpreter(const Program &P, ExecOptions Opts);
  ~Interpreter();

  /// Runs global initializers then main. Call at most once per instance.
  ExecResult run();

private:
  enum class Flow { Normal, Return, Error };

  /// Executes \p S. \p Owner is the statement that owns whatever S-DPST
  /// children this statement produces in the current container: S itself
  /// when S sits directly in a block, or the enclosing structured
  /// statement when S is a non-block body.
  Flow execStmt(const Stmt *S, const Stmt *Owner);
  Flow execBlock(const BlockStmt *B, ScopeKind K, const Stmt *Owner,
                 const FuncDecl *Callee);
  /// Executes a structured statement's body: blocks get a scope node,
  /// other statements execute inline under \p Owner.
  Flow execBody(const Stmt *Body, const Stmt *Owner);
  Flow execAssign(const AssignStmt *A);

  bool evalExpr(const Expr *E, Value &Out);
  bool evalCall(const CallExpr *C, Value &Out);
  bool evalBuiltin(const CallExpr *C, Value &Out);
  bool applyBinary(BinaryOp Op, const Value &L, const Value &R, Value &Out,
                   SourceLoc Loc);
  bool allocArray(const Type *ElemTy, const std::vector<int64_t> &Dims,
                  size_t Level, Value &Out, SourceLoc Loc);
  /// Bounds-checked element access; returns null after reporting a failure.
  ArrayObj *checkedArray(const Value &BaseV, int64_t Index, SourceLoc Loc);

  /// Marks a step point: attributes subsequent work/accesses to \p Owner.
  void stepPoint(const Stmt *Owner) {
    CurOwner = Owner;
    if (Mon)
      Mon->onStepPoint(Owner);
  }

  /// Reports a runtime error; always returns false.
  bool fail(SourceLoc Loc, std::string Msg);
  bool addWork(uint64_t Units, SourceLoc Loc);

  struct Frame {
    std::vector<Value> Slots;
  };

  const Program &P;
  ExecOptions Opts;
  ExecMonitor *Mon;
  // Per-event instruments, bound at construction (see obs/Metrics.h).
  obs::Counter *CAsyncs;
  obs::Counter *CFinishes;
  obs::Counter *CFutures;
  obs::Counter *CIsolated;

  std::vector<Value> Globals;
  std::deque<ArrayObj> Heap;
  /// Bytes held by Heap's arrays (objects plus elements); arrays are never
  /// freed, so this is also the run's peak.
  size_t HeapBytes = 0;
  uint32_t NextArrayId = 1;

  std::vector<Frame> Stack;
  const Stmt *CurOwner = nullptr;

  // Future value store, indexed by dynamic future id. The canonical
  // depth-first execution evaluates a future's initializer at the
  // declaration, so the value is always present when forced.
  std::vector<Value> FutureValues;
  uint32_t NextFutureId = 0;
  // Dynamic isolation guard: sema bans spawns lexically inside isolated,
  // but a called function body can still reach one.
  bool InIsolated = false;

  // Return-value channel for the innermost active call.
  Value RetVal;
  bool HasRetVal = false;

  Rng Rand;
  std::string Output;
  std::string Error;
  SourceLoc ErrorLoc;
  uint64_t Work = 0;
  bool Ran = false;
};

/// Convenience wrapper: construct, run, return the result.
ExecResult runProgram(const Program &P, ExecOptions Opts = ExecOptions());

} // namespace tdr

#endif // TDR_INTERP_INTERPRETER_H
