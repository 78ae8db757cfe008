//===- Detect.h - One-call race detection driver -----------------*- C++ -*-===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wires the sequential interpreter, the S-DPST builder, and a race
/// detector into the single "instrument and execute" stage of the tool
/// (paper Figure 6, first box).
///
/// ESP-bags (the paper's algorithm; see EspBags.h) is the one production
/// detector, in SRW or MRW mode. The Theorem-1 OracleDetector (see
/// OracleDetector.h) is its independent reference: it shares no state with
/// the bags and answers the parallelism query structurally on the S-DPST.
///
/// TDR_BACKEND_CHECK=1 in the environment turns every detection into a
/// differential: the primary run's event stream is replayed through the
/// oracle (off the metrics books, so counter-exact tests are unaffected).
/// In MRW mode the two reports must render byte-identically; in SRW mode
/// the ESP-bags pair set must be a subset of the oracle's (see
/// srwConsistentWith).
///
//===----------------------------------------------------------------------===//

#ifndef TDR_RACE_DETECT_H
#define TDR_RACE_DETECT_H

#include "interp/Interpreter.h"
#include "race/EspBags.h"
#include "trace/Replay.h"

#include <memory>
#include <string>

namespace tdr {

/// Fuses the S-DPST builder and a detector into ONE monitor: the
/// interpreter pays a single virtual dispatch per event, and the inner
/// builder/detector calls are devirtualized (statically qualified). This
/// is the detection fast path — when the caller supplies no extra monitor,
/// detectRaces hands this object to the interpreter directly instead of
/// routing every access through a MonitorPipeline fan-out.
template <typename DetectorT> class FusedDetectMonitor final : public ExecMonitor {
public:
  FusedDetectMonitor(DpstBuilder &B, DetectorT &D) : B(B), D(D) {}

  void onAsyncEnter(const AsyncStmt *S, const Stmt *Owner) override {
    B.DpstBuilder::onAsyncEnter(S, Owner);
    D.DetectorT::onAsyncEnter(S, Owner);
  }
  void onAsyncExit(const AsyncStmt *S) override {
    B.DpstBuilder::onAsyncExit(S);
    D.DetectorT::onAsyncExit(S);
  }
  void onFinishEnter(const FinishStmt *S, const Stmt *Owner) override {
    B.DpstBuilder::onFinishEnter(S, Owner);
    D.DetectorT::onFinishEnter(S, Owner);
  }
  void onFinishExit(const FinishStmt *S) override {
    B.DpstBuilder::onFinishExit(S);
    D.DetectorT::onFinishExit(S);
  }
  void onFutureEnter(const FutureStmt *S, const Stmt *Owner,
                     uint32_t Fid) override {
    B.DpstBuilder::onFutureEnter(S, Owner, Fid);
    D.DetectorT::onFutureEnter(S, Owner, Fid);
  }
  void onFutureExit(const FutureStmt *S) override {
    B.DpstBuilder::onFutureExit(S);
    D.DetectorT::onFutureExit(S);
  }
  void onForce(uint32_t Fid) override {
    B.DpstBuilder::onForce(Fid);
    D.DetectorT::onForce(Fid);
  }
  void onIsolatedEnter(const IsolatedStmt *S, const Stmt *Owner) override {
    B.DpstBuilder::onIsolatedEnter(S, Owner);
    D.DetectorT::onIsolatedEnter(S, Owner);
  }
  void onIsolatedExit(const IsolatedStmt *S) override {
    B.DpstBuilder::onIsolatedExit(S);
    D.DetectorT::onIsolatedExit(S);
  }
  void onScopeEnter(ScopeKind K, const Stmt *Owner, const BlockStmt *Body,
                    const FuncDecl *Callee) override {
    B.DpstBuilder::onScopeEnter(K, Owner, Body, Callee);
    D.DetectorT::onScopeEnter(K, Owner, Body, Callee);
  }
  void onScopeExit() override {
    B.DpstBuilder::onScopeExit();
    D.DetectorT::onScopeExit();
  }
  void onStepPoint(const Stmt *Owner) override {
    B.DpstBuilder::onStepPoint(Owner);
    D.DetectorT::onStepPoint(Owner);
  }
  void onWork(uint64_t Units) override {
    B.DpstBuilder::onWork(Units);
    D.DetectorT::onWork(Units);
  }
  // The builder ignores accesses (steps are created lazily by the
  // detector's currentStep() pull), so reads/writes go straight to the
  // detector. The batched run entry points forward statically as well, so
  // a detector's page-sweep fast path (see ShadowMemory::forRun) is
  // reached without any per-element virtual dispatch; detectors without an
  // override inherit the ExecMonitor unrolling default.
  void onRead(MemLoc L) override { D.DetectorT::onRead(L); }
  void onWrite(MemLoc L) override { D.DetectorT::onWrite(L); }
  void onReadRun(MemLoc L, uint64_t N) override {
    D.DetectorT::onReadRun(L, N);
  }
  void onWriteRun(MemLoc L, uint64_t N) override {
    D.DetectorT::onWriteRun(L, N);
  }

private:
  DpstBuilder &B;
  DetectorT &D;
};

/// TDR_BACKEND_CHECK in the environment (non-empty, not "0"): check every
/// detection against the oracle (see the file comment).
bool backendCheckEnv();

/// Per-run detection configuration. Mode picks the shadow-memory policy
/// (SRW/MRW, paper §4.1).
struct DetectOptions {
  EspBagsDetector::Mode Mode = EspBagsDetector::Mode::MRW;
  /// The S-DPST to build (see Dpst.h). The race report, node count and
  /// T1/Tinf/TP are the same either way; the callers that edit or print
  /// the scopes and steps inside spawn-free tasks (repair placement,
  /// `tdr dot`) ask for the full tree.
  DpstShape Shape = DpstShape::Compact;
};

/// Everything one detection run produces.
struct Detection {
  std::unique_ptr<Dpst> Tree; ///< the S-DPST of the execution
  RaceReport Report;          ///< detected races (steps point into Tree)
  ExecResult Exec;            ///< program outcome (output, errors, work)
  /// Shadow-store footprint of the run; published as the
  /// shadow.bytes_used / shadow.bytes_reserved gauges, so
  /// `tdr races/repair --metrics-json` reports both.
  size_t ShadowBytesUsed = 0;
  size_t ShadowBytesReserved = 0;

  bool ok() const { return Exec.Ok; }
};

/// Executes \p P sequentially with the given input, building the S-DPST
/// and detecting races with ESP-bags in the configured mode.
Detection detectRaces(const Program &P, const DetectOptions &Opts,
                      ExecOptions Exec = ExecOptions());

/// Mode-only convenience for the DetectOptions overload.
Detection detectRaces(const Program &P,
                      EspBagsDetector::Mode Mode = EspBagsDetector::Mode::MRW,
                      ExecOptions Exec = ExecOptions());

/// Like detectRaces but using the Theorem-1 oracle detector on the full
/// S-DPST (slow; validation only).
Detection detectRacesOracle(const Program &P, ExecOptions Exec = ExecOptions());

/// Log-backed detection: instead of interpreting, re-feeds the event
/// stream recorded in \p T verbatim through the builder + detector
/// (\p Plan is the empty identity plan, see trace/Replay.h), so \p T must
/// have been recorded from \p P as it is now. Detection.Exec is the
/// recorded outcome.
Detection detectRaces(const Program &P, const DetectOptions &Opts,
                      const trace::InputTrace &T,
                      const trace::ReplayPlan &Plan);

/// Mode-only convenience for the log-backed overload.
Detection detectRaces(const Program &P, EspBagsDetector::Mode Mode,
                      const trace::InputTrace &T,
                      const trace::ReplayPlan &Plan);

/// Log-backed oracle detection (validation only).
Detection detectRacesOracle(const Program &P, const trace::InputTrace &T,
                            const trace::ReplayPlan &Plan);

/// The SRW-vs-MRW agreement the oracle checks enforce: every (src, snk)
/// step pair of the SRW report \p Srw is also in the MRW detection
/// \p Mrw, and \p Srw is empty exactly when \p Mrw's report is (SRW
/// detects as completely as MRW, it only enumerates less). Both must come
/// from the same event stream, so node ids line up. The completeness half
/// is the paper's SRW guarantee for async/finish programs and does not
/// survive the construct extensions: an isolated write that commutes with
/// the shadowed writer replaces it without a report, and a forced future's
/// reader (parallel to the bags, ordered by the force) keeps the single
/// reader slot from a later future's reader. So when \p Mrw's tree has an
/// isolated step or a future an empty \p Srw is accepted.
bool srwConsistentWith(const RaceReport &Srw, const Detection &Mrw);

/// Stable textual rendering of a report — step ids, locations, access
/// kinds, raw count — used for the byte-identical replayed-vs-fresh
/// comparison (the fuzz oracle's replay-divergence leg) and the
/// ESP-bags-vs-oracle comparison (TDR_BACKEND_CHECK; mirrors the
/// RefDetectors differential pattern).
/// Detector-agnostic: it reads only RaceReport, and node ids are creation-
/// order indices, so identical event streams render identically across
/// independent detection runs regardless of the detector that found the
/// races.
std::string renderRaceReportKey(const RaceReport &R);

} // namespace tdr

#endif // TDR_RACE_DETECT_H
