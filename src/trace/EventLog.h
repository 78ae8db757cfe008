//===- EventLog.h - Compact execution event trace ----------------*- C++ -*-===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ExecMonitor event stream of one instrumented interpretation,
/// reified as a compact arena-backed log. RecorderMonitor writes it;
/// replayEvents (see Replay.h) re-emits it verbatim into any monitor, which
/// lets a second detector consume exactly the stream the first one saw.
///
/// One Event is 32 bytes; events are stored in fixed-size chunks bump-
/// allocated from a MonotonicArena, so recording costs one store and a
/// rare slab allocation per event and the log never relocates. Events
/// carry raw AST pointers, so a log must not outlive the program it was
/// recorded from.
///
//===----------------------------------------------------------------------===//

#ifndef TDR_TRACE_EVENTLOG_H
#define TDR_TRACE_EVENTLOG_H

#include "interp/Monitor.h"
#include "obs/Metrics.h"
#include "support/PagedArray.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace tdr::trace {

/// Discriminates Event payloads; one tag per ExecMonitor hook.
enum class EvKind : uint8_t {
  AsyncEnter,
  AsyncExit,
  FinishEnter,
  FinishExit,
  ScopeEnter,
  ScopeExit,
  StepPoint,
  Work,
  Read,
  Write,
  // New construct kinds are appended so recorded numeric values of the
  // original kinds stay stable.
  FutureEnter,
  FutureExit,
  Force,
  IsolatedEnter,
  IsolatedExit,
};

/// One recorded monitor event. Field use per kind:
///
///   AsyncEnter   P0 = AsyncStmt,  P1 = owner
///   AsyncExit    P0 = AsyncStmt
///   FinishEnter  P0 = FinishStmt, P1 = owner
///   FinishExit   P0 = FinishStmt
///   ScopeEnter   SK = scope kind, P0 = owner, P1 = body, U = FuncDecl
///   ScopeExit    —
///   StepPoint    P0 = owner
///   Work         U  = units
///   Read/Write   LK/Id/U = MemLoc kind/id/index
///   FutureEnter  P0 = FutureStmt, P1 = owner, Id = dynamic future id
///   FutureExit   P0 = FutureStmt
///   Force        Id = dynamic future id
///   IsolatedEnter P0 = IsolatedStmt, P1 = owner
///   IsolatedExit P0 = IsolatedStmt
struct Event {
  EvKind K = EvKind::Work;
  uint8_t SK = 0; ///< ScopeKind, narrowed (see scopeKind())
  uint8_t LK = 0;
  uint32_t Id = 0;
  const void *P0 = nullptr;
  const void *P1 = nullptr;
  uint64_t U = 0;

  ScopeKind scopeKind() const { return static_cast<ScopeKind>(SK); }
  MemLoc loc() const {
    MemLoc L;
    L.K = static_cast<MemLoc::Kind>(LK);
    L.Id = Id;
    L.Index = static_cast<int64_t>(U);
    return L;
  }
  static Event access(EvKind K, MemLoc L) {
    Event E;
    E.K = K;
    E.LK = static_cast<uint8_t>(L.K);
    E.Id = L.Id;
    E.U = static_cast<uint64_t>(L.Index);
    return E;
  }
};

static_assert(sizeof(Event) == 32, "Event packing regressed");

/// Append-only, chunked event storage. Chunks never move, so iteration is
/// a flat scan; chunks are bump-allocated from a private arena.
class EventLog {
public:
  static constexpr size_t ChunkEvents = 2048;
  static constexpr size_t ChunkBytes = sizeof(Event) * ChunkEvents;

  void push(const Event &E) {
    if (Count == Chunks.size() * ChunkEvents)
      addChunk();
    Chunks[Count / ChunkEvents][Count % ChunkEvents] = E;
    ++Count;
  }

  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }

  /// Bytes of event storage held by the log.
  size_t bytesReserved() const { return Arena ? Arena->bytesReserved() : 0; }

  /// Visits every event in recording order.
  template <typename Fn> void forEach(Fn &&F) const {
    size_t Rem = Count;
    for (const Event *C : Chunks) {
      size_t N = Rem < ChunkEvents ? Rem : ChunkEvents;
      for (size_t I = 0; I != N; ++I)
        F(C[I]);
      Rem -= N;
    }
  }

private:
  void addChunk() {
    if (!Arena)
      Arena = std::make_unique<MonotonicArena>();
    Chunks.push_back(
        static_cast<Event *>(Arena->allocate(ChunkBytes, alignof(Event))));
  }

  std::vector<Event *> Chunks;
  size_t Count = 0;
  /// Held by pointer so the log stays movable (the arena is not).
  std::unique_ptr<MonotonicArena> Arena;
};

/// ExecMonitor that appends every event to an EventLog. Chain it ahead of
/// the detection monitors (detectRaces keeps caller monitors in front of
/// the fused builder/detector) so it records the raw interpreter stream.
///
/// Work events are coalesced: the interpreter reports one unit per
/// statement, so runs of onWork with no other event in between — every
/// locals-only stretch of computation — collapse into a single summed
/// event. Consumers only ever accumulate units into the current step
/// (DpstBuilder::onWork), and a run cannot span a step boundary because
/// step-delimiting events flush it, so the replayed per-step weights are
/// unchanged while compute-heavy logs shrink by the statement count.
class RecorderMonitor final : public ExecMonitor {
public:
  explicit RecorderMonitor(EventLog &Log)
      : Log(Log), CEvents(&obs::counter("trace.events")) {}

  ~RecorderMonitor() { flush(); }

  /// Appends any pending coalesced work. Called on destruction; call it
  /// explicitly when the log is read while the recorder is still alive.
  void flush() {
    if (!PendingWork)
      return;
    Event E;
    E.K = EvKind::Work;
    E.U = PendingWork;
    PendingWork = 0;
    record(E);
  }

  void onAsyncEnter(const AsyncStmt *S, const Stmt *Owner) override {
    Event E;
    E.K = EvKind::AsyncEnter;
    E.P0 = S;
    E.P1 = Owner;
    record(E);
  }
  void onAsyncExit(const AsyncStmt *S) override {
    Event E;
    E.K = EvKind::AsyncExit;
    E.P0 = S;
    record(E);
  }
  void onFinishEnter(const FinishStmt *S, const Stmt *Owner) override {
    Event E;
    E.K = EvKind::FinishEnter;
    E.P0 = S;
    E.P1 = Owner;
    record(E);
  }
  void onFinishExit(const FinishStmt *S) override {
    Event E;
    E.K = EvKind::FinishExit;
    E.P0 = S;
    record(E);
  }
  void onScopeEnter(ScopeKind K, const Stmt *Owner, const BlockStmt *Body,
                    const FuncDecl *Callee) override {
    Event E;
    E.K = EvKind::ScopeEnter;
    E.SK = static_cast<uint8_t>(K);
    E.P0 = Owner;
    E.P1 = Body;
    E.U = reinterpret_cast<uint64_t>(Callee);
    record(E);
  }
  void onScopeExit() override {
    Event E;
    E.K = EvKind::ScopeExit;
    record(E);
  }
  void onStepPoint(const Stmt *Owner) override {
    Event E;
    E.K = EvKind::StepPoint;
    E.P0 = Owner;
    record(E);
  }
  void onFutureEnter(const FutureStmt *S, const Stmt *Owner,
                     uint32_t Fid) override {
    Event E;
    E.K = EvKind::FutureEnter;
    E.P0 = S;
    E.P1 = Owner;
    E.Id = Fid;
    record(E);
  }
  void onFutureExit(const FutureStmt *S) override {
    Event E;
    E.K = EvKind::FutureExit;
    E.P0 = S;
    record(E);
  }
  void onForce(uint32_t Fid) override {
    Event E;
    E.K = EvKind::Force;
    E.Id = Fid;
    record(E);
  }
  void onIsolatedEnter(const IsolatedStmt *S, const Stmt *Owner) override {
    Event E;
    E.K = EvKind::IsolatedEnter;
    E.P0 = S;
    E.P1 = Owner;
    record(E);
  }
  void onIsolatedExit(const IsolatedStmt *S) override {
    Event E;
    E.K = EvKind::IsolatedExit;
    E.P0 = S;
    record(E);
  }
  void onWork(uint64_t Units) override { PendingWork += Units; }
  void onRead(MemLoc L) override { record(Event::access(EvKind::Read, L)); }
  void onWrite(MemLoc L) override { record(Event::access(EvKind::Write, L)); }

private:
  void record(const Event &E) {
    flushBefore(E);
    Log.push(E);
    CEvents->inc();
  }

  void flushBefore(const Event &Next) {
    if (!PendingWork || Next.K == EvKind::Work)
      return;
    flush();
  }

  EventLog &Log;
  obs::Counter *CEvents;
  uint64_t PendingWork = 0;
};

} // namespace tdr::trace

#endif // TDR_TRACE_EVENTLOG_H
