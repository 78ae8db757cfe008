//===- EspBags.h - SRW and MRW ESP-bags race detection -----------*- C++ -*-===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ESP-bags data race detector for async-finish programs (Raman et
/// al., FMSD 2012), in the two variants the paper compares (§4.1):
///
///  * SRW (Single Reader-Writer) — the original algorithm: one writer and
///    one reader tracked per memory location. Sound and complete for
///    *detecting whether* a race exists, but reports only a subset of all
///    racing pairs per run, so repair may need multiple iterations.
///  * MRW (Multiple Reader-Writer) — the paper's modification: all readers
///    and writers are tracked, so every racing step pair is reported in a
///    single run.
///
/// The algorithm piggybacks on the canonical sequential depth-first
/// execution. Each async task has an S-bag; each finish (plus the implicit
/// root finish) has a P-bag:
///
///  * async enter: the task's S-bag is the singleton {task};
///  * async exit:  its S-bag merges into the P-bag of the innermost
///    enclosing finish;
///  * finish exit: its P-bag merges into the S-bag of the executing task.
///
/// A recorded access races with the current step iff its task element is
/// currently in a P-tagged bag.
///
/// Detection is the inner loop of the whole repair pipeline, so the
/// per-access path is kept flat:
///
///  * shadow state lives in a paged direct-map ShadowMemory (no hashing);
///  * access lists are SmallVectors of 8-byte (task element, step id)
///    records with inline capacity 2, so SRW and the common MRW case never
///    heap-allocate and a check touches no S-DPST node;
///  * the current step node and task element are cached across each step
///    (invalidated at structure events) instead of being re-derived per
///    access.
///
/// Racing pairs are deduplicated per sink step. The builder creates each
/// step once and never reopens a closed one, so the sink of every
/// observation is the current step, sink ids never decrease, and the pairs
/// of the current sink are exactly the tail [SinkBegin, Pairs.size()) of
/// the report. A small open-addressing table over that tail, keyed by
/// source step id, finds a repeated pair; moving to a new sink empties it
/// in O(1) (see SinkSlot).
///
//===----------------------------------------------------------------------===//

#ifndef TDR_RACE_ESPBAGS_H
#define TDR_RACE_ESPBAGS_H

#include "dpst/Dpst.h"
#include "race/BagSet.h"
#include "race/RaceReport.h"
#include "race/ShadowMemory.h"
#include "support/SmallVector.h"

#include <utility>
#include <vector>

namespace tdr {

namespace obs {
class Counter;
} // namespace obs

/// ESP-bags detector; install in the same monitor pipeline as (and after)
/// the DpstBuilder it reads the current step from.
class EspBagsDetector : public ExecMonitor {
public:
  enum class Mode { SRW, MRW };

  EspBagsDetector(Mode M, DpstBuilder &Builder);

  void onAsyncEnter(const AsyncStmt *S, const Stmt *Owner) override;
  void onAsyncExit(const AsyncStmt *S) override;
  void onFinishEnter(const FinishStmt *S, const Stmt *Owner) override;
  void onFinishExit(const FinishStmt *S) override;
  void onFutureEnter(const FutureStmt *S, const Stmt *Owner,
                     uint32_t Fid) override;
  void onFutureExit(const FutureStmt *S) override;
  void onForce(uint32_t Fid) override;
  void onIsolatedEnter(const IsolatedStmt *S, const Stmt *Owner) override;
  void onIsolatedExit(const IsolatedStmt *S) override;
  void onScopeEnter(ScopeKind K, const Stmt *Owner, const BlockStmt *Body,
                    const FuncDecl *Callee) override;
  void onScopeExit() override;
  void onRead(MemLoc L) override;
  void onWrite(MemLoc L) override;
  void onReadRun(MemLoc L, uint64_t N) override;
  void onWriteRun(MemLoc L, uint64_t N) override;

  /// The detection outcome (valid once execution finished).
  RaceReport takeReport();

  /// Number of distinct racing pairs found so far.
  size_t numPairs() const { return Report.Pairs.size(); }

  /// Shadow-store footprint (see ShadowMemory accounting).
  size_t shadowBytesUsed() const { return Shadows.bytesUsed(); }
  size_t shadowBytesReserved() const { return Shadows.bytesReserved(); }

private:
  struct Access {
    uint32_t Elem = 0;   ///< S-bag element of the accessing task
    uint32_t StepId = 0; ///< S-DPST id of the accessing step
  };

  /// Per-location shadow state. SRW uses [0] of each vector. Inline
  /// capacity 2 keeps the hot path allocation-free until a location sees
  /// three parallel accessors.
  struct Shadow {
    /// Valid when all-zero, so shadow pages materialize with one memset
    /// (see IsAllZeroInit in PagedArray.h).
    static constexpr bool AllZeroInit = true;

    SmallVector<Access, 2> Writers;
    SmallVector<Access, 2> Readers;
  };
  static_assert(sizeof(Shadow) <= 64, "a shadow slot fits one cache line");

  /// One slot of the per-sink dedupe table. Live iff it indexes a pair of
  /// the current sink (PairPlus1 > SinkBegin), so advancing SinkBegin
  /// empties the whole table without touching it.
  struct SinkSlot {
    uint32_t SrcId = 0;
    uint32_t PairPlus1 = 0; ///< index into Report.Pairs, plus one; 0 = empty
  };

  void recordRace(uint32_t SrcId, AccessKind PrevKind, DpstNode *CurStep,
                  AccessKind CurKind, MemLoc L);
  /// The slot holding \p SrcId's pair with the current sink, or the empty
  /// slot where it belongs.
  SinkSlot &sinkSlot(uint32_t SrcId);
  void growSinkSlots();

  /// Per-slot check/update bodies shared by the single-access hooks and
  /// the batched run path, so both orders of entry produce byte-identical
  /// reports by construction.
  void readSlot(Shadow &S, DpstNode *Step, MemLoc L);
  void writeSlot(Shadow &S, DpstNode *Step, MemLoc L);

  /// The step receiving the current access; cached until the next
  /// structure event closes the step.
  DpstNode *curStep() {
    if (DpstNode *S = CachedStep)
      return S;
    return CachedStep = Builder.currentStep();
  }

  /// The executing task's S-bag element, cached across async boundaries.
  uint32_t curTaskElem() const { return CurElem; }

  Mode M;
  DpstBuilder &Builder;
  // Per-event instruments, bound at construction so each per-access hook
  // touches one relaxed atomic (see the scoping contract in obs/Metrics.h).
  obs::Counter *CChecks;
  obs::Counter *CReads;
  obs::Counter *CWrites;
  obs::Counter *CRaw;
  obs::Counter *CPairs;
  BagSet Bags;
  DpstNode *CachedStep = nullptr;    ///< step-boundary-cached current step
  bool SawFuture = false; ///< any future so far => confirm races via S-DPST
  uint32_t CurElem = 0;              ///< cached TaskElems.back()
  std::vector<uint32_t> TaskElems;   ///< S-bag element per active task
  std::vector<uint32_t> FinishElems; ///< P-bag element per active finish
  ShadowMemory<Shadow> Shadows;
  RaceReport Report;
  uint32_t SinkId = 0;    ///< sink step of the report's tail
  uint32_t SinkBegin = 0; ///< first index of that sink's pairs
  /// Power-of-two open-addressing table over the tail's pairs, kept at
  /// most half full.
  std::vector<SinkSlot> SinkSlots;
  /// (sink step id, index of its first pair), one entry per sink. Pairs
  /// get their Snk pointer from here in takeReport: a sink is the current
  /// step, and its task may still be folded into a collapsed leaf (see
  /// DpstBuilder), which frees the step's node. A source is never folded
  /// after it is recorded: its task is closed or has spawned.
  std::vector<std::pair<uint32_t, uint32_t>> SinkRuns;
};

} // namespace tdr

#endif // TDR_RACE_ESPBAGS_H
