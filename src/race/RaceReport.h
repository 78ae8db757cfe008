//===- RaceReport.h - Data race records --------------------------*- C++ -*-===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Race records shared by the detectors and the repair pipeline. A race is
/// an ordered pair of S-DPST steps: the *source* executes first in the
/// canonical depth-first order, the *sink* second (paper §4.2).
///
//===----------------------------------------------------------------------===//

#ifndef TDR_RACE_RACEREPORT_H
#define TDR_RACE_RACEREPORT_H

#include "interp/Value.h"

#include <cstdint>
#include <tuple>
#include <vector>

namespace tdr {

class DpstNode;

enum class AccessKind : uint8_t { Read, Write };

/// One detected data race between two steps.
struct RacePair {
  const DpstNode *Src = nullptr; ///< earlier step (depth-first order)
  const DpstNode *Snk = nullptr; ///< later step
  MemLoc Loc;                    ///< one location they both touch
  AccessKind SrcKind = AccessKind::Write;
  AccessKind SnkKind = AccessKind::Write;
};

/// Packs two step ids into the 64-bit key the Theorem-1 oracle dedupes
/// racing pairs on (ESP-bags dedupes per sink step instead). Normalized on the unordered pair — (A,B) and (B,A) yield the
/// same key — so the same race observed under different access orders
/// (e.g. across re-detection after a partial repair) dedupes consistently.
/// Each id keeps its own 32-bit half, so distinct unordered pairs never
/// collide even when ids coincide across the halves.
inline uint64_t packRacePairKey(uint32_t A, uint32_t B) {
  uint32_t Lo = A < B ? A : B;
  uint32_t Hi = A < B ? B : A;
  return (static_cast<uint64_t>(Lo) << 32) | Hi;
}

/// True when the witness payload (\p L, \p SrcK, \p SnkK) is strictly
/// preferred over the one currently kept in \p R for the same step pair.
/// Every detector applies the same rule, so the witness a deduplicated
/// pair keeps is a function of the set of conflicting accesses — not of
/// the order a detector, shadow policy, or replay happened to visit them:
/// more writes win (a write/write witness explains the race best), then
/// the lowest location, then the lowest access-kind pair.
inline bool witnessPreferred(const RacePair &R, MemLoc L, AccessKind SrcK,
                             AccessKind SnkK) {
  auto Writes = [](AccessKind A, AccessKind B) {
    return (A == AccessKind::Write ? 1 : 0) + (B == AccessKind::Write ? 1 : 0);
  };
  if (Writes(SrcK, SnkK) != Writes(R.SrcKind, R.SnkKind))
    return Writes(SrcK, SnkK) > Writes(R.SrcKind, R.SnkKind);
  auto LocKey = [](MemLoc M) {
    return std::make_tuple(static_cast<uint8_t>(M.K), M.Id, M.Index);
  };
  if (!(L == R.Loc))
    return LocKey(L) < LocKey(R.Loc);
  return std::make_tuple(static_cast<uint8_t>(SrcK),
                         static_cast<uint8_t>(SnkK)) <
         std::make_tuple(static_cast<uint8_t>(R.SrcKind),
                         static_cast<uint8_t>(R.SnkKind));
}

/// Result of one detection run.
struct RaceReport {
  /// Distinct racing step pairs (the input to repair). Deduplicated on
  /// (Src, Snk); Loc/kinds describe the preferred witness access pair
  /// (see witnessPreferred — deterministic across detectors and replay).
  std::vector<RacePair> Pairs;
  /// Total race reports before deduplication (every conflicting access
  /// pair observed) — the "number of data races" the paper's tables count.
  uint64_t RawCount = 0;

  bool empty() const { return Pairs.empty(); }
};

} // namespace tdr

#endif // TDR_RACE_RACEREPORT_H
