//===- EspBags.cpp --------------------------------------------------------===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//

#include "race/EspBags.h"

#include "obs/Metrics.h"

#include <bit>
#include <cassert>

using namespace tdr;

EspBagsDetector::EspBagsDetector(Mode M, DpstBuilder &Builder)
    : M(M), Builder(Builder), CChecks(&obs::counter("espbags.checks")),
      CReads(&obs::counter("espbags.reads")),
      CWrites(&obs::counter("espbags.writes")),
      CRaw(&obs::counter("race.reports_raw")),
      CPairs(&obs::counter("race.pairs")) {
  // The root task's S-bag and the implicit root finish's P-bag.
  TaskElems.push_back(Bags.makeSet(BagSet::Tag::S));
  FinishElems.push_back(Bags.makeSet(BagSet::Tag::P));
  CurElem = TaskElems.back();
  SinkSlots.resize(128);
}

void EspBagsDetector::onAsyncEnter(const AsyncStmt *, const Stmt *) {
  CachedStep = nullptr;
  TaskElems.push_back(Bags.makeSet(BagSet::Tag::S));
  CurElem = TaskElems.back();
}

void EspBagsDetector::onAsyncExit(const AsyncStmt *) {
  CachedStep = nullptr;
  uint32_t TaskElem = TaskElems.back();
  TaskElems.pop_back();
  CurElem = TaskElems.back();
  // The completed task's S-bag joins the P-bag of the innermost enclosing
  // finish: it is now parallel to everything the parent does until that
  // finish joins it.
  Bags.merge(FinishElems.back(), TaskElem, BagSet::Tag::P);
}

void EspBagsDetector::onFinishEnter(const FinishStmt *, const Stmt *) {
  CachedStep = nullptr;
  FinishElems.push_back(Bags.makeSet(BagSet::Tag::P));
}

void EspBagsDetector::onFinishExit(const FinishStmt *) {
  CachedStep = nullptr;
  uint32_t FinishElem = FinishElems.back();
  FinishElems.pop_back();
  // Everything the finish joined is now serialized before the parent task.
  Bags.merge(TaskElems.back(), FinishElem, BagSet::Tag::S);
}

void EspBagsDetector::onFutureEnter(const FutureStmt *, const Stmt *,
                                    uint32_t) {
  CachedStep = nullptr;
  SawFuture = true;
  // A future is an async (its body runs in parallel with the continuation
  // until joined) fused with an implicit finish over its initializer.
  TaskElems.push_back(Bags.makeSet(BagSet::Tag::S));
  CurElem = TaskElems.back();
  FinishElems.push_back(Bags.makeSet(BagSet::Tag::P));
}

void EspBagsDetector::onFutureExit(const FutureStmt *) {
  CachedStep = nullptr;
  // Implicit finish exit: anything the initializer spawned is serialized
  // behind the future task itself.
  uint32_t FinishElem = FinishElems.back();
  FinishElems.pop_back();
  Bags.merge(TaskElems.back(), FinishElem, BagSet::Tag::S);
  // Then, like an async, the future joins the enclosing finish's P-bag:
  // parallel to the continuation until forced or joined. The force edge is
  // NOT representable as a bag merge (the element is shared with the whole
  // P-bag), so recordRace confirms bag-positive pairs against the S-DPST
  // once futures are in play.
  uint32_t TaskElem = TaskElems.back();
  TaskElems.pop_back();
  CurElem = TaskElems.back();
  Bags.merge(FinishElems.back(), TaskElem, BagSet::Tag::P);
}

void EspBagsDetector::onForce(uint32_t) {
  // The builder closes the current step (accesses after the force carry
  // the enlarged forced-set); drop the cache so it is re-resolved.
  CachedStep = nullptr;
}

void EspBagsDetector::onIsolatedEnter(const IsolatedStmt *, const Stmt *) {
  CachedStep = nullptr;
}

void EspBagsDetector::onIsolatedExit(const IsolatedStmt *) {
  CachedStep = nullptr;
}

void EspBagsDetector::onScopeEnter(ScopeKind, const Stmt *, const BlockStmt *,
                                   const FuncDecl *) {
  // Scope boundaries close the builder's current step; drop the cache so
  // the next access re-resolves it.
  CachedStep = nullptr;
}

void EspBagsDetector::onScopeExit() { CachedStep = nullptr; }

void EspBagsDetector::recordRace(uint32_t SrcId, AccessKind PrevKind,
                                 DpstNode *CurStep, AccessKind CurKind,
                                 MemLoc L) {
  const Dpst &Tree = Builder.tree();
  // Isolated steps commute under mutual exclusion; the shared S-DPST
  // carries the per-step flag. Suppressed observations bump no counters,
  // so every detector applying the same two checks stays byte-identical.
  if (CurStep->isIsolated() && Tree.node(SrcId)->isIsolated())
    return;
  // With futures in play the bags over-approximate (a force join edge is
  // not a bag merge), so confirm against the S-DPST before recording.
  if (SawFuture && !Tree.mayHappenInParallel(Tree.node(SrcId), CurStep))
    return;
  CRaw->inc();
  ++Report.RawCount;
  // Every sink is the current step, and a closed step is never reopened,
  // so the pairs of an earlier sink can never repeat.
  uint32_t Id = CurStep->id();
  assert(Id >= SinkId && "sink step ids must not decrease");
  if (Id != SinkId) {
    SinkId = Id;
    SinkBegin = static_cast<uint32_t>(Report.Pairs.size());
  }
  SinkSlot &Slot = sinkSlot(SrcId);
  if (Slot.PairPlus1 > SinkBegin) {
    RacePair &Kept = Report.Pairs[Slot.PairPlus1 - 1];
    if (witnessPreferred(Kept, L, PrevKind, CurKind)) {
      Kept.Loc = L;
      Kept.SrcKind = PrevKind;
      Kept.SnkKind = CurKind;
    }
    return;
  }
  CPairs->inc();
  if (SinkRuns.empty() || SinkRuns.back().first != Id)
    SinkRuns.emplace_back(Id, static_cast<uint32_t>(Report.Pairs.size()));
  RacePair R;
  R.Src = Tree.node(SrcId);
  R.Loc = L;
  R.SrcKind = PrevKind;
  R.SnkKind = CurKind;
  Report.Pairs.push_back(R);
  Slot = SinkSlot{SrcId, static_cast<uint32_t>(Report.Pairs.size())};
  if (2 * (Report.Pairs.size() - SinkBegin) > SinkSlots.size())
    growSinkSlots();
}

EspBagsDetector::SinkSlot &EspBagsDetector::sinkSlot(uint32_t SrcId) {
  // Fibonacci hashing: the top log2(size) bits of the product. Linear
  // probing ends at the first slot not live for the current sink (stale
  // slots count as empty).
  size_t Mask = SinkSlots.size() - 1;
  unsigned Shift = std::countl_zero(static_cast<uint64_t>(Mask));
  for (size_t I = (SrcId * 0x9E3779B97F4A7C15ull) >> Shift;;
       I = (I + 1) & Mask) {
    SinkSlot &S = SinkSlots[I];
    if (S.PairPlus1 <= SinkBegin || S.SrcId == SrcId)
      return S;
  }
}

void EspBagsDetector::growSinkSlots() {
  std::vector<SinkSlot> Old(SinkSlots.size() * 2);
  Old.swap(SinkSlots);
  for (const SinkSlot &S : Old)
    if (S.PairPlus1 > SinkBegin)
      sinkSlot(S.SrcId) = S;
}

void EspBagsDetector::onRead(MemLoc L) {
  CReads->inc();
  readSlot(Shadows.slot(L), curStep(), L);
}

void EspBagsDetector::onWrite(MemLoc L) {
  CWrites->inc();
  writeSlot(Shadows.slot(L), curStep(), L);
}

void EspBagsDetector::onReadRun(MemLoc L, uint64_t N) {
  CReads->inc(N);
  DpstNode *Step = curStep();
  Shadows.forRun(L, N,
                 [&](Shadow &S, MemLoc At) { readSlot(S, Step, At); });
}

void EspBagsDetector::onWriteRun(MemLoc L, uint64_t N) {
  CWrites->inc(N);
  DpstNode *Step = curStep();
  Shadows.forRun(L, N,
                 [&](Shadow &S, MemLoc At) { writeSlot(S, Step, At); });
}

void EspBagsDetector::readSlot(Shadow &S, DpstNode *Step, MemLoc L) {
  CChecks->inc(S.Writers.size());
  uint32_t Id = Step->id();

  for (const Access &W : S.Writers)
    if (W.StepId != Id && Bags.isP(W.Elem))
      recordRace(W.StepId, AccessKind::Write, Step, AccessKind::Read, L);

  if (M == Mode::SRW) {
    // Keep a single reader; replace it only when it is serialized with the
    // current step (a parallel reader is the more dangerous witness for
    // future writes).
    if (S.Readers.empty())
      S.Readers.push_back(Access{curTaskElem(), Id});
    else if (!Bags.isP(S.Readers[0].Elem))
      S.Readers[0] = Access{curTaskElem(), Id};
    return;
  }
  // MRW: track every reader, deduplicating per step (accesses between two
  // step boundaries come from one step, so checking the tail suffices).
  if (S.Readers.empty() || S.Readers.back().StepId != Id)
    S.Readers.push_back(Access{curTaskElem(), Id});
}

void EspBagsDetector::writeSlot(Shadow &S, DpstNode *Step, MemLoc L) {
  CChecks->inc(S.Writers.size() + S.Readers.size());
  uint32_t Id = Step->id();

  for (const Access &W : S.Writers)
    if (W.StepId != Id && Bags.isP(W.Elem))
      recordRace(W.StepId, AccessKind::Write, Step, AccessKind::Write, L);
  for (const Access &R : S.Readers)
    if (R.StepId != Id && Bags.isP(R.Elem))
      recordRace(R.StepId, AccessKind::Read, Step, AccessKind::Write, L);

  if (M == Mode::SRW) {
    if (S.Writers.empty())
      S.Writers.push_back(Access{curTaskElem(), Id});
    else
      S.Writers[0] = Access{curTaskElem(), Id};
    return;
  }
  if (S.Writers.empty() || S.Writers.back().StepId != Id)
    S.Writers.push_back(Access{curTaskElem(), Id});
}

RaceReport EspBagsDetector::takeReport() {
  const Dpst &Tree = Builder.tree();
  for (size_t I = 0; I != SinkRuns.size(); ++I) {
    const DpstNode *Snk = Tree.node(SinkRuns[I].first);
    size_t End = I + 1 == SinkRuns.size() ? Report.Pairs.size()
                                          : SinkRuns[I + 1].second;
    for (size_t P = SinkRuns[I].second; P != End; ++P)
      Report.Pairs[P].Snk = Snk;
  }
  SinkRuns.clear();
  return std::move(Report);
}
