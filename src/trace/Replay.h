//===- Replay.h - Verbatim event stream replay -------------------*- C++ -*-===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replays a recorded EventLog into any ExecMonitor, re-emitting exactly
/// the stream the recorded interpretation produced. Replay is the identity:
/// it never adapts a log to an edited program, so a log is only valid for
/// the AST it was recorded against. The repair loop does not replay; every
/// re-detection interprets the edited program afresh.
///
/// Users: the TDR_BACKEND_CHECK differential (race/Detect.cpp feeds the
/// primary run's stream to the Theorem-1 oracle), the fuzz oracle's
/// replay-divergence leg, and the benchmark harness's replay row.
///
//===----------------------------------------------------------------------===//

#ifndef TDR_TRACE_REPLAY_H
#define TDR_TRACE_REPLAY_H

#include "interp/Interpreter.h"
#include "trace/EventLog.h"

namespace tdr::trace {

/// The edits a replay applies to a log: none. Replay is verbatim, so this
/// type carries no state; it survives only in the log-backed detectRaces
/// signatures.
struct ReplayPlan {};

/// Feeds \p Log to \p M verbatim. Runs of same-kind, consecutive-index
/// array accesses are batched into onReadRun/onWriteRun calls; monitors
/// that do not override the run hooks see the identical per-element
/// stream (see ExecMonitor::onReadRun).
void replayEvents(const EventLog &Log, ExecMonitor &M);

/// A recorded interpretation of one test input: the event stream plus the
/// execution outcome (output / error / total work), which stands in for
/// ExecResult on log-backed detections.
struct InputTrace {
  EventLog Log;
  ExecResult Exec;
};

} // namespace tdr::trace

#endif // TDR_TRACE_REPLAY_H
