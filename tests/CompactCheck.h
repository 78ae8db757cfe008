//===- CompactCheck.h - Compact vs full S-DPST equivalence -------*- C++ -*-===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One check shared by the suite, construct, trophy and random-program
/// tests: detection on the compact S-DPST (spawn-free task subtrees folded
/// into collapsed leaves) answers every question the pipeline asks exactly
/// as detection on the full tree does.
///
//===----------------------------------------------------------------------===//

#ifndef TDR_TESTS_COMPACTCHECK_H
#define TDR_TESTS_COMPACTCHECK_H

#include "dpst/Dpst.h"
#include "race/Detect.h"
#include "sched/Schedule.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace tdr {
namespace test {

/// The non-scope proper ancestors of \p N, innermost first (the task
/// spine a witness prints).
inline std::vector<uint32_t> nonScopeSpine(const DpstNode *N) {
  std::vector<uint32_t> Ids;
  for (const DpstNode *X = N->parent(); X; X = X->parent())
    if (!X->isScope())
      Ids.push_back(X->id());
  return Ids;
}

inline void expectSameStep(const DpstNode *C, const DpstNode *F,
                           const std::string &Ctx) {
  EXPECT_EQ(C->id(), F->id()) << Ctx;
  EXPECT_TRUE(C->isStep()) << Ctx;
  EXPECT_EQ(C->owner(), F->owner()) << Ctx;
  EXPECT_EQ(C->ownerLast(), F->ownerLast()) << Ctx;
  EXPECT_EQ(C->weight(), F->weight()) << Ctx;
  EXPECT_EQ(C->label(), F->label()) << Ctx;
  EXPECT_EQ(C->isIsolated(), F->isIsolated()) << Ctx;
  EXPECT_EQ(nonScopeSpine(C), nonScopeSpine(F)) << Ctx;
}

/// Detects races in \p P on the compact and on the full S-DPST, in MRW
/// and SRW mode, and expects the same report, node count, T1/Tinf/TP at
/// P = 1, 4 and 12, CPL, and per pair the same NS-LCA, parallelism verdict
/// and endpoint steps. Returns the number of ids the compact trees folded.
inline size_t expectCompactMatchesFull(const Program &P,
                                       const ExecOptions &Exec,
                                       const std::string &Ctx) {
  size_t Folded = 0;
  for (EspBagsDetector::Mode Mode :
       {EspBagsDetector::Mode::MRW, EspBagsDetector::Mode::SRW}) {
    std::string MCtx =
        Ctx + (Mode == EspBagsDetector::Mode::MRW ? " mrw" : " srw");
    Detection C = detectRaces(P, DetectOptions{Mode}, Exec);
    Detection F = detectRaces(P, DetectOptions{Mode, DpstShape::Full}, Exec);
    EXPECT_EQ(C.ok(), F.ok()) << MCtx;
    if (!C.ok() || !F.ok())
      continue;
    EXPECT_EQ(renderRaceReportKey(C.Report), renderRaceReportKey(F.Report))
        << MCtx;
    EXPECT_EQ(C.Tree->numNodes(), F.Tree->numNodes()) << MCtx;
    EXPECT_EQ(F.Tree->numKept(), F.Tree->numNodes()) << MCtx;
    EXPECT_EQ(F.Tree->numCollapsed(), 0u) << MCtx;
    Folded += C.Tree->numNodes() - C.Tree->numKept();
    for (unsigned Procs : {1u, 4u, 12u}) {
      ParallelismStats SC = analyzeDpst(*C.Tree, Procs);
      ParallelismStats SF = analyzeDpst(*F.Tree, Procs);
      EXPECT_EQ(SC.T1, SF.T1) << MCtx << " P=" << Procs;
      EXPECT_EQ(SC.Tinf, SF.Tinf) << MCtx << " P=" << Procs;
      EXPECT_EQ(SC.TP, SF.TP) << MCtx << " P=" << Procs;
    }
    EXPECT_EQ(C.Tree->subtreeCpl(C.Tree->root()),
              F.Tree->subtreeCpl(F.Tree->root()))
        << MCtx;
    EXPECT_EQ(C.Tree->subtreeWork(C.Tree->root()),
              F.Tree->subtreeWork(F.Tree->root()))
        << MCtx;
    if (C.Report.Pairs.size() != F.Report.Pairs.size())
      continue; // the report key mismatch above already failed
    for (size_t I = 0; I != C.Report.Pairs.size(); ++I) {
      const RacePair &A = C.Report.Pairs[I], &B = F.Report.Pairs[I];
      std::string PCtx = MCtx + " pair " + std::to_string(I);
      EXPECT_EQ(C.Tree->nsLca(A.Src, A.Snk)->id(),
                F.Tree->nsLca(B.Src, B.Snk)->id())
          << PCtx;
      EXPECT_EQ(C.Tree->mayHappenInParallel(A.Src, A.Snk),
                F.Tree->mayHappenInParallel(B.Src, B.Snk))
          << PCtx;
      expectSameStep(A.Src, B.Src, PCtx + " src");
      expectSameStep(A.Snk, B.Snk, PCtx + " snk");
    }
  }
  return Folded;
}

} // namespace test
} // namespace tdr

#endif // TDR_TESTS_COMPACTCHECK_H
