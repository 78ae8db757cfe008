//===- Fuzzer.h - Parallel differential fuzz farm ----------------*- C++ -*-===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `tdr fuzz` engine: generates seeded random HJ-mini programs on the
/// src/batch worker pool, runs each through the differential oracle
/// (ESP-bags fresh and replayed in both shadow modes, checked against the
/// Theorem-1 reference, and the repair loop with and without replay — see
/// Oracle.h), delta-minimizes every finding with
/// the ddmin reducer (Reduce.h), and persists minimized reproducers as
/// trophies (Trophy.h). The run is deterministic for a fixed seed:
/// per-program seeds are derived by index (not by worker) and results and
/// per-program metric registries are collected/merged in submission order,
/// so --jobs changes wall-clock time but not programs, findings, or any
/// event counter (only the *_ms timing histograms vary run to run).
///
//===----------------------------------------------------------------------===//

#ifndef TDR_FUZZ_FUZZER_H
#define TDR_FUZZ_FUZZER_H

#include "fuzz/Oracle.h"

#include <cstdint>
#include <string>
#include <vector>

namespace tdr {
namespace fuzz {

/// fuzz-summary JSON schema tag and version; tools/check_fuzz.py is the
/// matching validator and must move in lockstep.
inline constexpr const char *FuzzSummarySchema = "tdr-fuzz-summary";
inline constexpr int FuzzSummaryVersion = 1;

struct FuzzOptions {
  size_t Programs = 2000;   ///< programs to generate and check
  uint64_t Seed = 1;        ///< base seed; program i's seed derives from it
  unsigned Jobs = 1;        ///< worker threads for the oracle phase
  std::string TrophyDir = "fuzz-trophies"; ///< where findings are persisted
  double TimeBudgetSec = 0; ///< stop generating after this long (0 = off)
  bool Reduce = true;       ///< ddmin-minimize findings and write trophies
  bool CheckRepair = true;  ///< include the repair legs in the oracle
};

/// Generator profile of one program (rotated by index so every run
/// exercises plain async-finish, the full construct vocabulary, and the
/// sparse-heap access shape).
enum class FuzzProfile : uint8_t { Default, Constructs, Sparse };

const char *fuzzProfileName(FuzzProfile P);

/// One failing program, with its reduction and trophy bookkeeping.
struct FuzzFinding {
  size_t ProgramIndex = 0;  ///< index within the run
  uint64_t Seed = 0;        ///< derived per-program seed
  FuzzProfile Profile = FuzzProfile::Default;
  Finding First;            ///< first oracle finding (the minimized kind)
  size_t FindingCount = 0;  ///< total findings the oracle reported
  bool Reduced = false;     ///< reducer ran and the predicate held
  bool Minimal = false;     ///< reducer reached its fixpoint in budget
  size_t ReduceTests = 0;   ///< predicate evaluations spent minimizing
  size_t SourceLines = 0;   ///< line count of the (minimized) reproducer
  std::string TrophyName;   ///< persisted trophy stem ("" if not persisted)
  std::string Source;       ///< minimized (or original) reproducer text
};

struct FuzzSummary {
  size_t ProgramsRun = 0;
  size_t ProgramsSkipped = 0; ///< skipped by the time budget
  unsigned DetectRuns = 0;
  unsigned ReplayRuns = 0;
  unsigned RepairRuns = 0;
  std::vector<FuzzFinding> Findings;
  double WallSec = 0;
  /// Merged per-program obs registry dump (submission order; every event
  /// counter is --jobs-independent, timing histograms are not), embedded
  /// in the summary JSON as "counters".
  std::string CountersJson;

  bool clean() const { return Findings.empty(); }
};

/// Runs the farm. Progress lines go to \p Progress when non-null (one line
/// per phase and per finding; CI logs stay readable at --programs 10^6).
FuzzSummary runFuzz(const FuzzOptions &O, std::string *Progress = nullptr);

/// Renders the schema-versioned fuzz-summary JSON document.
std::string renderFuzzSummaryJson(const FuzzSummary &S, const FuzzOptions &O);

/// The per-program seed and profile derivation, exposed so tests and
/// triage can regenerate program \p Index of a run seeded with \p Base.
uint64_t fuzzProgramSeed(uint64_t Base, size_t Index);
FuzzProfile fuzzProgramProfile(size_t Index);

/// Generates program \p Index of a run: seed + profile derivation plus the
/// profile's generator switches, in one place for farm, tests, and triage.
std::string generateFuzzProgram(uint64_t Base, size_t Index);

} // namespace fuzz
} // namespace tdr

#endif // TDR_FUZZ_FUZZER_H
