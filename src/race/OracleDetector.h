//===- OracleDetector.h - DPST-based reference race detector -----*- C++ -*-===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An independent reference detector used to validate ESP-bags: it keeps
/// the same multiple-reader-writer shadow memory but decides "may these two
/// steps run in parallel?" with the S-DPST structural criterion (Theorem 1,
/// from Raman et al. PLDI 2012) instead of bags. Slower — O(tree depth) per
/// query — but with no shared state with ESP-bags, so agreement between the
/// two is strong evidence of correctness. Property tests assert that this
/// oracle and MRW ESP-bags report identical race pair sets.
///
/// Shares the flat paged ShadowMemory and small-vector access lists with
/// the ESP-bags fast path; the parallelism query stays the structural one.
///
//===----------------------------------------------------------------------===//

#ifndef TDR_RACE_ORACLEDETECTOR_H
#define TDR_RACE_ORACLEDETECTOR_H

#include "dpst/Dpst.h"
#include "race/RaceReport.h"
#include "race/ShadowMemory.h"
#include "support/SmallVector.h"

#include <unordered_map>

namespace tdr {

/// MRW-style detector using Theorem-1 parallelism queries.
class OracleDetector : public ExecMonitor {
public:
  explicit OracleDetector(DpstBuilder &Builder)
      : Tree(Builder.tree()), Builder(Builder) {}

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

  RaceReport takeReport() { return std::move(Report); }

  /// Shadow-store footprint (see ShadowMemory accounting).
  size_t shadowBytesUsed() const { return Shadows.bytesUsed(); }
  size_t shadowBytesReserved() const { return Shadows.bytesReserved(); }

private:
  using AccessList = SmallVector<DpstNode *, 2>;

  struct Shadow {
    /// Valid when all-zero, so shadow pages materialize with one memset
    /// (see IsAllZeroInit in PagedArray.h).
    static constexpr bool AllZeroInit = true;

    AccessList Writers;
    AccessList Readers;
  };

  void check(const AccessList &Prev, AccessKind PrevKind, DpstNode *Step,
             AccessKind CurKind, MemLoc L);

  /// Per-slot check/update bodies shared by the single-access hooks and
  /// the batched run path.
  void readSlot(Shadow &S, DpstNode *Step, MemLoc L);
  void writeSlot(Shadow &S, DpstNode *Step, MemLoc L);

  DpstNode *curStep() {
    if (DpstNode *S = CachedStep)
      return S;
    return CachedStep = Builder.currentStep();
  }

  const Dpst &Tree;
  DpstBuilder &Builder;
  DpstNode *CachedStep = nullptr; ///< step-boundary-cached current step
  ShadowMemory<Shadow> Shadows;
  RaceReport Report;
  /// Pair key -> index into Report.Pairs, so duplicate observations can
  /// upgrade the kept witness (see witnessPreferred).
  std::unordered_map<uint64_t, uint32_t> SeenPairs;
};

} // namespace tdr

#endif // TDR_RACE_ORACLEDETECTOR_H
