//===- Oracle.h - Differential correctness oracle for fuzzing ----*- C++ -*-===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The failure predicate of the fuzz farm: runs one HJ-mini program
/// through ESP-bags (both modes, fresh and replayed), the Theorem-1
/// reference detector, and the repair loop, and reports any disagreement
/// or unconverged repair as a typed Finding. This is the
/// industrialized form of the loops in race_test / shadow_diff_test /
/// trace_replay_test — one call answers "does the whole detection and
/// repair stack agree with itself on this program?", which makes it
/// reusable as the fuzz driver's oracle, the delta-debugging reducer's
/// predicate, and the trophy runner's regression check.
///
//===----------------------------------------------------------------------===//

#ifndef TDR_FUZZ_ORACLE_H
#define TDR_FUZZ_ORACLE_H

#include "race/Detect.h"

#include <string>
#include <string_view>
#include <vector>

namespace tdr {
namespace fuzz {

/// What went wrong. Every kind names one cross-checked invariant of the
/// pipeline; a healthy tree produces none of them on any input.
enum class FindingKind : uint8_t {
  /// A generated program failed to parse or type-check (generator
  /// invariant: every emitted program is well-formed).
  ParseError,
  /// Interpretation or replay of a well-formed program failed.
  ExecError,
  /// ESP-bags vs the Theorem-1 reference: the fresh ESP-bags report
  /// disagrees with detectRacesOracle's for the same execution (MRW: the
  /// rendered reports differ; SRW: the pairs are not a consistent subset,
  /// see srwConsistentWith).
  BackendMismatch,
  /// A replayed detection's report differs from the fresh report of the
  /// recorded execution.
  ReplayDivergence,
  /// Two repair loops disagreed on the outcome. No leg produces it since
  /// the repair loop has a single detection path; the kind stays so
  /// trophies filed under it still load.
  RepairDisagree,
  /// A repair reported success but the repaired program is malformed,
  /// fails to execute, or still races.
  RepairNotConverged,
};

/// Stable kebab-case name ("backend-mismatch", ...) used in summaries,
/// trophy files, and CI logs.
const char *findingKindName(FindingKind K);

/// Parses a findingKindName spelling; returns false on anything else,
/// leaving \p Out untouched.
bool parseFindingKind(std::string_view Name, FindingKind &Out);

/// Which combinations the oracle runs.
struct OracleConfig {
  /// Run the repair loop and require a successful repair to converge to a
  /// race-free program.
  bool CheckRepair = true;
  /// Repair with the full construct vocabulary (finish, future, isolated)
  /// instead of the default allowlist.
  bool AllConstructs = false;
};

/// One invariant violation.
struct Finding {
  FindingKind Kind = FindingKind::BackendMismatch;
  /// The combination that diverged, e.g. "mrw/oracle/fresh" or
  /// "repair/verify".
  std::string Config;
  /// Human-readable summary.
  std::string Detail;
  /// Reference and divergent values (rendered report keys, outcomes, or
  /// diagnostics — whatever the kind compares).
  std::string Expected;
  std::string Actual;
};

/// Everything one oracle evaluation produced.
struct OracleOutcome {
  std::vector<Finding> Findings;
  unsigned DetectRuns = 0; ///< fresh detections performed
  unsigned ReplayRuns = 0; ///< replayed detections performed
  unsigned RepairRuns = 0; ///< full repair-loop runs performed

  bool clean() const { return Findings.empty(); }
};

/// Runs the full differential oracle over \p Source: both detector modes,
/// ESP-bags fresh and replayed against a recorded event log and checked
/// against the Theorem-1 reference, and (optionally) the repair loop end
/// to end.
OracleOutcome runOracle(const std::string &Source, const OracleConfig &C);

/// Reducer/trophy predicate: does \p Source still exhibit a finding of
/// kind \p K under \p C? (Any matching finding counts; the reducer pins
/// the kind, not the exact config, so a shrink that moves the divergence
/// between modes still reproduces.)
bool oracleFires(const std::string &Source, const OracleConfig &C,
                 FindingKind K);

} // namespace fuzz
} // namespace tdr

#endif // TDR_FUZZ_ORACLE_H
