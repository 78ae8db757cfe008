//===- RepairDriver.h - Test-driven repair tool driver -----------*- C++ -*-===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The top of the tool (paper Figure 6): iterate { detect races on the
/// test input -> dynamic finish placement -> static finish placement }
/// until the program is race free for that input.
///
/// Within one detection run, races are grouped by NS-LCA; groups are
/// solved deepest-first with the placement DP, each solution is applied to
/// the AST and replicated across the S-DPST, resolved races are dropped,
/// and remaining races are regrouped (their NS-LCAs may have changed —
/// paper step 3(f)). With the MRW detector one run normally suffices; with
/// SRW the outer loop iterates (paper §7.3).
///
//===----------------------------------------------------------------------===//

#ifndef TDR_REPAIR_REPAIRDRIVER_H
#define TDR_REPAIR_REPAIRDRIVER_H

#include "diag/RunReport.h"
#include "race/Detect.h"
#include "repair/StaticPlacer.h"

#include <string>
#include <vector>

namespace tdr {

/// Repair configuration.
struct RepairOptions {
  EspBagsDetector::Mode Mode = EspBagsDetector::Mode::MRW;
  ExecOptions Exec;            ///< the test input (args, seed, limits)
  unsigned MaxIterations = 8;  ///< outer detect/repair rounds (must be >= 1)
  /// Record-once / replay-many: the first detection run interprets the
  /// program and records its event stream; later iterations replay the
  /// stream through the detector (owners remapped through the finish edit
  /// map) instead of re-interpreting. Off = every iteration interprets
  /// (the --no-replay escape hatch).
  bool UseReplay = true;
  /// Runs every replayed detection a second time, freshly interpreted,
  /// and fails the repair unless the two ESP-bags reports are
  /// byte-identical. Also enabled by the TDR_REPLAY_CHECK environment
  /// variable. Independent of TDR_BACKEND_CHECK, which checks each
  /// detection against the Theorem-1 oracle (see race/Detect.h).
  bool ReplayCheck = false;
  /// Optional shared trace store: the driver records into / replays from
  /// entry InputIndex and broadcasts every AST edit to all recorded
  /// entries (multi-input repair keeps one log per input alive across the
  /// whole session). Null = a private store per repairProgram call.
  trace::TraceStore *Store = nullptr;
  size_t InputIndex = 0;
  /// Collect explainable diagnostics into RepairResult::Diag: one witness
  /// list per detection run (race witnesses with refined access sites) and
  /// one provenance record per inserted finish (the --report path). Off by
  /// default — witness reconstruction replays the recorded log once more
  /// per racy iteration.
  bool CollectDiag = false;
  /// Source manager used to resolve witness/provenance positions to
  /// line/col plus line text; null degrades positions to "unknown".
  /// repairSource supplies its own.
  const SourceManager *SM = nullptr;
  /// Allowlist of repair constructs the per-edge chooser may use (see
  /// repair/ConstructChoice.h). The default enables finish and
  /// future-forcing; `isolated` is opt-in (--constructs
  /// finish,future,isolated) because it reorders rather than orders the
  /// racing accesses.
  unsigned Constructs = constructs::Default;
};

/// Per-run measurements (the columns of Tables 2 and 3).
///
/// Derived from the obs metrics registry rather than hand-maintained:
/// Iterations and FinishesInserted are deltas of the `repair.iterations` /
/// `repair.finishes_inserted` counters over this run, and the first-run
/// shape fields read the `detect.*` gauges the detector publishes. The
/// same numbers therefore appear in `--metrics-json` dumps.
struct RepairStats {
  /// Wall-clock of each detection run (S-DPST construction + detection).
  std::vector<double> DetectMs;
  /// Wall-clock of each repair phase (grouping + DP + static placement).
  std::vector<double> RepairMs;
  size_t DpstNodes = 0;     ///< S-DPST nodes in the first detection run
  uint64_t RawRaces = 0;    ///< races reported (first run, pre-dedup)
  size_t RacePairs = 0;     ///< distinct racing step pairs (first run)
  unsigned Iterations = 0;  ///< detection runs performed
  unsigned FinishesInserted = 0;
  unsigned ForcesInserted = 0;   ///< `force(f);` statements inserted
  unsigned IsolatedInserted = 0; ///< `isolated { }` sections inserted
  unsigned Interpretations = 0; ///< detection runs that interpreted
  unsigned Replays = 0;         ///< detection runs that replayed the log

  double totalDetectMs() const {
    double T = 0;
    for (double D : DetectMs)
      T += D;
    return T;
  }
  double totalRepairMs() const {
    double T = 0;
    for (double D : RepairMs)
      T += D;
    return T;
  }
};

/// Outcome of a repair.
struct RepairResult {
  bool Success = false;      ///< race free for the input after repair
  std::string Error;         ///< failure description when !Success
  RepairStats Stats;
  /// Locations (in the pre-repair program text) where finishes were added.
  std::vector<SourceLoc> InsertedAt;
  /// Witnesses and provenance (populated when RepairOptions::CollectDiag).
  diag::RunDiag Diag;
};

/// Repairs \p P in place for the test input in \p Opts. The program must
/// have passed sema. On success the AST contains the synthesized finish
/// statements (print it with printProgram to obtain the repaired source).
RepairResult repairProgram(Program &P, AstContext &Ctx,
                           const RepairOptions &Opts = RepairOptions());

/// Full source-to-source pipeline: parse + sema + repair + print. Returns
/// the repaired source in \p RepairedOut. Convenience for tools/tests.
RepairResult repairSource(const std::string &Source, std::string &RepairedOut,
                          const RepairOptions &Opts = RepairOptions());

} // namespace tdr

#endif // TDR_REPAIR_REPAIRDRIVER_H
