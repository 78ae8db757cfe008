//===- RunReport.h - Structured run reports ----------------------*- C++ -*-===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The machine-readable output of a tool run: a schema-versioned JSON
/// document (`--report out.json` on `tdr races/repair/batch`) carrying,
/// per job, the run stats, every iteration's race witnesses (see
/// Witness.h) and the provenance of every inserted finish — which
/// dependence edges forced it, what it cost on the critical path, and
/// which placements the DP tried but the AST mapping rejected.
///
/// The schema is additive: "schema" names the document family,
/// "version" bumps on breaking changes; validators (tools/check_report.py)
/// and `tdr explain` accept the pair they know.
///
//===----------------------------------------------------------------------===//

#ifndef TDR_DIAG_RUNREPORT_H
#define TDR_DIAG_RUNREPORT_H

#include "diag/Witness.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace tdr {

namespace json {
class Value;
} // namespace json

namespace diag {

/// Document family / version emitted by renderRunReportJson.
///
/// Version 2 generalized the provenance from "inserted finishes" to
/// per-construct repairs: each provenance entry carries a "construct"
/// member ("finish" | "force" | "isolated") and an "alternatives" array
/// (the other constructs considered for the entry's edges, with modeled
/// costs), and job stats grew "forces_inserted" / "isolated_inserted".
///
/// Version 3 dropped the top-level "backend" member: ESP-bags is the only
/// production detector.
inline constexpr const char *ReportSchemaName = "tdr-report";
inline constexpr int ReportSchemaVersion = 3;

/// A placement the DP proposed but the static placer could not map onto
/// the AST (and why) — the "rejected placements" part of provenance.
struct PlacementRejection {
  uint32_t Begin = 0; ///< first covered non-scope child index
  uint32_t End = 0;   ///< last covered non-scope child index
  std::string Reason;
};

/// A repair construct the chooser considered for an edge and did not
/// pick: either feasible but costlier, or inapplicable (Reason says why).
struct RepairAlternative {
  std::string Construct; ///< "finish" | "force" | "isolated"
  bool Feasible = false;
  uint64_t Cost = 0;     ///< modeled group cost when feasible
  std::string Reason;
};

/// Why one synthesized repair (finish, force, or isolated) exists.
struct FinishProvenance {
  unsigned Iteration = 0;    ///< repair-loop iteration that inserted it
  uint32_t GroupLcaId = 0;   ///< NS-LCA node of the dependence group
  /// The construct this entry inserted ("finish" | "force" | "isolated").
  std::string Construct = "finish";
  SourcePos Anchor;          ///< where the repair applies (pre-repair text)
  unsigned DynamicInstances = 0; ///< dynamic sites this edit covers
  /// Critical path of the group's placement problem with no repairs vs
  /// with the chosen plan (work units; the chooser's objective, isolated
  /// penalties included).
  uint64_t CostBefore = 0;
  uint64_t CostAfter = 0;
  /// Dependence edges (source, sink child indices) this repair cuts —
  /// the races that forced it.
  std::vector<std::pair<uint32_t, uint32_t>> ForcedEdges;
  /// Constructs considered for those edges and not chosen, with costs.
  std::vector<RepairAlternative> Alternatives;
  /// Placements the DP probed that failed AST mapping (first repair of
  /// the group carries them; capped).
  std::vector<PlacementRejection> Rejected;
};

/// One detection run's worth of explanations.
struct IterationDiag {
  unsigned Iteration = 0;
  std::vector<RaceWitness> Witnesses;
};

/// Everything diagnostic a repair run produced.
struct RunDiag {
  std::vector<IterationDiag> Iterations;
  std::vector<FinishProvenance> Repairs;
};

/// Table-2/3 style scalars, flattened for the report.
struct JobStats {
  unsigned Iterations = 0;
  unsigned FinishesInserted = 0;
  unsigned ForcesInserted = 0;
  unsigned IsolatedInserted = 0;
  unsigned Interpretations = 0;
  unsigned Replays = 0;
  uint64_t RawRaces = 0;
  uint64_t RacePairs = 0;
  uint64_t DpstNodes = 0;
};

/// One program (one batch job, or the single program of races/repair).
struct JobReport {
  std::string Name;
  std::vector<int64_t> Args;
  bool Success = false;
  std::string Error;
  JobStats Stats;
  RunDiag Diag;
};

/// The whole document.
struct RunReport {
  std::string Tool; ///< "races" | "repair" | "batch"
  std::string Mode; ///< "mrw" | "srw"
  std::vector<JobReport> Jobs;
};

/// Serializes \p R as the versioned JSON document (stable member order,
/// so identical race reports render identical witness sections).
std::string renderRunReportJson(const RunReport &R);

/// Writes the document to \p Path. False on I/O failure (message in
/// \p Error when non-null).
bool writeRunReport(const RunReport &R, const std::string &Path,
                    std::string *Error = nullptr);

/// Pretty-prints a parsed report document (`tdr explain`): witnesses with
/// carets, provenance, stats. Tolerates unknown members; returns false
/// (with a message in \p Error) when \p Doc is not a tdr-report this
/// version understands.
bool renderExplainText(const json::Value &Doc, bool Color, std::string &Out,
                       std::string &Error);

} // namespace diag
} // namespace tdr

#endif // TDR_DIAG_RUNREPORT_H
