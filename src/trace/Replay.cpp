//===- Replay.cpp ---------------------------------------------------------===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//

#include "trace/Replay.h"

using namespace tdr;
using namespace tdr::trace;

namespace {

/// Gathers runs of same-kind, same-array, ascending consecutive-index
/// access events — the dominant MRW pattern (array sweeps) — and emits
/// each as one batched onReadRun/onWriteRun call instead of N singles, so
/// replayed detection reaches the detectors' page-sweep fast path. A run
/// is flushed by any non-access event, so the relative order of accesses
/// and structure/step/work events is preserved exactly; monitors that do
/// not override the run hooks unroll them back to the identical
/// per-element stream (see ExecMonitor::onReadRun).
class RunCoalescer {
public:
  explicit RunCoalescer(ExecMonitor &M) : M(M) {}

  void read(MemLoc L) { access(false, L); }
  void write(MemLoc L) { access(true, L); }

  void flush() {
    if (!Count)
      return;
    MemLoc L = MemLoc::elem(Id, Start);
    uint64_t N = Count;
    Count = 0;
    if (N == 1)
      IsWrite ? M.onWrite(L) : M.onRead(L);
    else
      IsWrite ? M.onWriteRun(L, N) : M.onReadRun(L, N);
  }

private:
  void access(bool W, MemLoc L) {
    if (L.K != MemLoc::Kind::Elem) {
      flush();
      W ? M.onWrite(L) : M.onRead(L);
      return;
    }
    if (Count && W == IsWrite && L.Id == Id &&
        L.Index == Start + static_cast<int64_t>(Count)) {
      ++Count;
      return;
    }
    flush();
    IsWrite = W;
    Id = L.Id;
    Start = L.Index;
    Count = 1;
  }

  ExecMonitor &M;
  bool IsWrite = false;
  uint32_t Id = 0;
  int64_t Start = 0;
  uint64_t Count = 0;
};

} // namespace

void trace::replayEvents(const EventLog &Log, ExecMonitor &M) {
  RunCoalescer Runs(M);
  Log.forEach([&](const Event &E) {
    if (E.K != EvKind::Read && E.K != EvKind::Write)
      Runs.flush();
    switch (E.K) {
    case EvKind::AsyncEnter:
      M.onAsyncEnter(static_cast<const AsyncStmt *>(E.P0),
                     static_cast<const Stmt *>(E.P1));
      break;
    case EvKind::AsyncExit:
      M.onAsyncExit(static_cast<const AsyncStmt *>(E.P0));
      break;
    case EvKind::FinishEnter:
      M.onFinishEnter(static_cast<const FinishStmt *>(E.P0),
                      static_cast<const Stmt *>(E.P1));
      break;
    case EvKind::FinishExit:
      M.onFinishExit(static_cast<const FinishStmt *>(E.P0));
      break;
    case EvKind::ScopeEnter:
      M.onScopeEnter(E.scopeKind(), static_cast<const Stmt *>(E.P0),
                     static_cast<const BlockStmt *>(E.P1),
                     reinterpret_cast<const FuncDecl *>(E.U));
      break;
    case EvKind::ScopeExit:
      M.onScopeExit();
      break;
    case EvKind::StepPoint:
      M.onStepPoint(static_cast<const Stmt *>(E.P0));
      break;
    case EvKind::Work:
      M.onWork(E.U);
      break;
    case EvKind::Read:
      Runs.read(E.loc());
      break;
    case EvKind::Write:
      Runs.write(E.loc());
      break;
    case EvKind::FutureEnter:
      M.onFutureEnter(static_cast<const FutureStmt *>(E.P0),
                      static_cast<const Stmt *>(E.P1), E.Id);
      break;
    case EvKind::FutureExit:
      M.onFutureExit(static_cast<const FutureStmt *>(E.P0));
      break;
    case EvKind::Force:
      M.onForce(E.Id);
      break;
    case EvKind::IsolatedEnter:
      M.onIsolatedEnter(static_cast<const IsolatedStmt *>(E.P0),
                        static_cast<const Stmt *>(E.P1));
      break;
    case EvKind::IsolatedExit:
      M.onIsolatedExit(static_cast<const IsolatedStmt *>(E.P0));
      break;
    }
  });
  Runs.flush();
}
