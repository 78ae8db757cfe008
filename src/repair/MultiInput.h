//===- MultiInput.h - Multi-input repair and coverage analysis ---*- C++ -*-===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two pieces around the single-input core:
///
///  * Multi-input repair — the tool "is applied iteratively for different
///    test inputs" (paper §2): repair for input 1, re-detect with input 2,
///    repair the residue, and so on, until every test input is race free.
///
///  * Test-coverage analysis — a §9 future-work item ("test coverage
///    analysis to evaluate the suitability of a given set of test cases
///    for program repair"): a repair is only as trustworthy as the inputs
///    that drove it, so report which async sites the inputs actually
///    exercised. An async statement that never spawned cannot have had
///    its races observed or repaired.
///
//===----------------------------------------------------------------------===//

#ifndef TDR_REPAIR_MULTIINPUT_H
#define TDR_REPAIR_MULTIINPUT_H

#include "repair/RepairDriver.h"

#include <string>
#include <vector>

namespace tdr {

class AsyncStmt;

/// Outcome of a multi-input repair.
struct MultiRepairResult {
  bool Success = false;     ///< race free for every input, verified
  std::string Error;
  unsigned FinishesInserted = 0;
  /// Per input: detection runs the driver needed (1 = already race free).
  std::vector<unsigned> IterationsPerInput;
  /// Inputs (indices) that triggered at least one new finish.
  std::vector<size_t> InputsThatContributed;
  /// True once the final verification pass re-checked every input against
  /// the fully repaired program.
  bool FinalVerified = false;
  /// Index of the input the final verification found racy (or failing at
  /// run time); SIZE_MAX when verification passed or was never reached.
  size_t FailedVerifyInput = static_cast<size_t>(-1);
};

/// Repairs \p P for every input in \p Inputs, in order. Later inputs see
/// the finishes earlier inputs introduced, so the finish set only grows.
/// Finish insertion is strictly restrictive (it only adds ordering), but
/// SRW detection may surface races for an earlier input only after a later
/// input reshaped the tree — so a final verification pass re-detects on
/// every input and Success is claimed only when all of them come back
/// race free.
MultiRepairResult repairProgramForInputs(Program &P, AstContext &Ctx,
                                         const std::vector<ExecOptions> &Inputs,
                                         EspBagsDetector::Mode Mode =
                                             EspBagsDetector::Mode::MRW);

/// Coverage of one async site across a set of test inputs.
struct AsyncSiteCoverage {
  const AsyncStmt *Site = nullptr;
  SourceLoc Loc;
  /// Dynamic instances per input (parallel to the inputs vector).
  std::vector<uint64_t> InstancesPerInput;

  uint64_t totalInstances() const {
    uint64_t T = 0;
    for (uint64_t I : InstancesPerInput)
      T += I;
    return T;
  }
  bool exercised() const { return totalInstances() != 0; }
};

/// Suitability report for a test-input set (paper §9 future work).
struct CoverageReport {
  /// An input the program failed to execute: it contributes no coverage,
  /// which is different from executing and spawning nothing.
  struct FailedInput {
    size_t Index = 0;
    std::string Error;
  };

  std::vector<AsyncSiteCoverage> Sites;
  std::vector<FailedInput> FailedInputs;
  size_t NumExercised = 0;
  size_t NumUnexercised = 0;

  /// Fraction of async sites exercised by at least one input.
  double asyncCoverage() const {
    size_t N = Sites.size();
    return N ? static_cast<double>(NumExercised) / static_cast<double>(N)
             : 1.0;
  }
  /// A test set is suitable for repair when every async site spawned at
  /// least once (otherwise some potential races were never observable) and
  /// every input actually executed (a crashing input observed nothing).
  bool suitable() const { return NumUnexercised == 0 && FailedInputs.empty(); }
};

/// Runs \p P on every input, counting dynamic instances of every async
/// statement. Inputs that fail at run time are recorded in
/// CoverageReport::FailedInputs rather than silently skipped.
CoverageReport analyzeTestCoverage(Program &P,
                                   const std::vector<ExecOptions> &Inputs);

} // namespace tdr

#endif // TDR_REPAIR_MULTIINPUT_H
