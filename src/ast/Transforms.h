//===- Transforms.h - AST-to-AST program transforms --------------*- C++ -*-===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// In-place AST transforms used by the repair pipeline and the experiment
/// harness:
///
///  * stripFinishes   — removes every finish statement, producing the
///                      "buggy program" the paper's evaluation starts from
///                      (§7.1: "We removed all finish statements...").
///  * elideParallelism— removes async and finish, producing the serial
///                      elision whose semantics a correct repair preserves.
///  * wrapInFinish    — wraps a statement range of a block in a new finish;
///                      the primitive the static finish placement uses.
///
//===----------------------------------------------------------------------===//

#ifndef TDR_AST_TRANSFORMS_H
#define TDR_AST_TRANSFORMS_H

#include "ast/Ast.h"

#include <cstddef>
#include <functional>
#include <vector>

namespace tdr {

class AstContext;

/// Removes every finish statement from \p P (each finish is replaced by its
/// body). Returns the number of finishes removed.
unsigned stripFinishes(Program &P);

/// Removes every async and finish statement from \p P, yielding the serial
/// elision. Returns the number of statements removed.
unsigned elideParallelism(Program &P);

/// Wraps statements [Begin, End] (inclusive indices) of \p B in a new
/// finish statement, marked synthesized. The finish body is the single
/// statement when Begin == End, otherwise a new block. Returns the finish.
FinishStmt *wrapInFinish(AstContext &Ctx, BlockStmt *B, size_t Begin,
                         size_t End);

/// Wraps statement \p Index of \p B in a new isolated section, marked
/// synthesized. Returns the isolated statement.
IsolatedStmt *wrapInIsolated(AstContext &Ctx, BlockStmt *B, size_t Index);

/// Desugars every forasync loop in \p P into its chunked async/finish-core
/// form (hoisted bounds, a chunk-grained loop of asyncs, and a sequential
/// inner loop per chunk — the recorded chunking policy). Runs bottom-up so
/// nested forasyncs lower inside-out. Returns the number of loops lowered.
/// Called by sema before checking; no layer past the frontend sees a
/// ForasyncStmt.
unsigned lowerForasync(Program &P, AstContext &Ctx);

/// Collects every async statement in the program, in pre-order.
std::vector<AsyncStmt *> collectAsyncs(Program &P);

/// Collects every task-spawning statement (async and future) in the
/// program, in pre-order.
std::vector<Stmt *> collectSpawnSites(Program &P);

/// Collects every finish statement in the program, in pre-order.
std::vector<FinishStmt *> collectFinishes(Program &P);

/// Counts all statements in the program (pre-order walk).
unsigned countStmts(const Program &P);

/// Calls \p Fn on every expression reachable from \p S, including nested
/// statements' expressions (pre-order).
void forEachExpr(const Stmt *S, const std::function<void(const Expr *)> &Fn);

} // namespace tdr

#endif // TDR_AST_TRANSFORMS_H
