//===- Witness.h - Race witness reconstruction -------------------*- C++ -*-===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Explainable race diagnostics. A detector's RacePair says only *which*
/// two S-DPST steps conflicted on *which* location; a RaceWitness says
/// *why* the user should believe it:
///
///  * both accesses with their source position (line/col, with the source
///    line text captured so renderers can draw carets without the file);
///  * the task spine of each step — the chain of async/finish nodes from
///    the step to the root, i.e. "how execution got there";
///  * the NS-LCA of the two steps and the *breaking async edge*: by
///    Theorem 1 (Raman et al.), two steps may run in parallel iff the
///    non-scope child of their NS-LCA toward the earlier step is a task
///    node (an async or a future) — that task, unjoined at the NS-LCA, is
///    the structural reason no happens-before edge orders the accesses,
///    and wrapping it in a finish is exactly what the repair will do.
///
/// Access positions are refined by re-interpretation: detectors attribute
/// an access to a *step*, but a step spans several statements.
/// buildWitnesses interprets the program once more on the same input
/// under a scratch DPST builder (same event stream as the detection run,
/// so node ids line up) and captures the innermost statement executing at
/// each racing access. Without a program it falls back to the step's first
/// owner statement.
///
/// A witness holds only resolved plain data (ids, positions, line text) —
/// no AST or DPST pointers — so it stays valid after the per-job contexts
/// that produced it are gone (batch reports, serialized run reports).
///
//===----------------------------------------------------------------------===//

#ifndef TDR_DIAG_WITNESS_H
#define TDR_DIAG_WITNESS_H

#include "dpst/Dpst.h"
#include "interp/Interpreter.h"
#include "race/RaceReport.h"
#include "support/SourceLoc.h"

#include <string>
#include <vector>

namespace tdr {

class SourceManager;

namespace diag {

/// A resolved source position; Line == 0 means "unknown" (synthesized
/// node or no source manager).
struct SourcePos {
  uint32_t Line = 0; ///< 1-based
  uint32_t Col = 0;  ///< 1-based
  std::string LineText;

  bool valid() const { return Line != 0; }
};

/// Resolves \p Loc against \p SM (null-tolerant on both sides).
SourcePos resolvePos(const SourceManager *SM, SourceLoc Loc);

/// One side of a racing access.
struct AccessDesc {
  uint32_t Step = 0; ///< S-DPST step node id
  AccessKind Kind = AccessKind::Read;
  SourcePos Pos; ///< the statement executing at the access
};

/// One async/future/finish/root node on the path from a step to the root.
struct SpineEntry {
  uint32_t Id = 0;
  DpstKind Kind = DpstKind::Root;
  SourcePos Pos;
};

/// A full explanation of one detected race.
struct RaceWitness {
  std::string Location; ///< MemLoc::str() of the witness location
  AccessDesc Src;       ///< earlier access (depth-first order)
  AccessDesc Snk;       ///< later access
  uint32_t LcaId = 0;   ///< NS-LCA node of the two steps
  DpstKind LcaKind = DpstKind::Root;
  /// Theorem-1 evidence: the task child (async or future) of the NS-LCA
  /// toward the earlier step. Always present for a true race;
  /// HasBreakingAsync false would mean the pair is ordered (a detector bug
  /// a validator can flag).
  bool HasBreakingAsync = false;
  uint32_t BreakingAsyncId = 0;
  SourcePos BreakingAsyncPos;
  std::vector<SpineEntry> SrcSpine; ///< step-to-root, nearest first
  std::vector<SpineEntry> SnkSpine;
};

/// Reconstructs a witness per report pair. \p P and \p Exec (the program
/// and input the detection ran, unedited since) enable per-access site
/// refinement by re-interpreting \p P; Exec.Monitor is ignored. With a
/// null \p P positions degrade to each step's owner statement. Order
/// follows Report.Pairs, so witnesses inherit the report's determinism.
std::vector<RaceWitness> buildWitnesses(const Dpst &Tree,
                                        const RaceReport &Report,
                                        const SourceManager *SM,
                                        const Program *P = nullptr,
                                        ExecOptions Exec = ExecOptions());

/// Lowercase display names ("async", "write", ...).
const char *dpstKindName(DpstKind K);
const char *accessKindName(AccessKind K);

/// Renders one witness (or a report's worth) as human-readable text with
/// source excerpts and carets; \p Color adds ANSI SGR highlighting.
std::string renderWitnessText(const RaceWitness &W, bool Color = false);
std::string renderWitnessesText(const std::vector<RaceWitness> &Ws,
                                bool Color = false);

} // namespace diag
} // namespace tdr

#endif // TDR_DIAG_WITNESS_H
