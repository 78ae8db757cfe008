//===- MultiInput.cpp -----------------------------------------------------===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//

#include "repair/MultiInput.h"

#include "ast/Transforms.h"
#include "support/StringUtils.h"

#include <unordered_map>

using namespace tdr;

MultiRepairResult
tdr::repairProgramForInputs(Program &P, AstContext &Ctx,
                            const std::vector<ExecOptions> &Inputs,
                            EspBagsDetector::Mode Mode) {
  MultiRepairResult R;
  const DetectOptions Detect{Mode};
  for (size_t I = 0; I != Inputs.size(); ++I) {
    RepairOptions Opts;
    Opts.Mode = Mode;
    Opts.Exec = Inputs[I];
    RepairResult One = repairProgram(P, Ctx, Opts);
    R.IterationsPerInput.push_back(One.Stats.Iterations);
    if (!One.Success) {
      R.Error = strFormat("input %zu: %s", I, One.Error.c_str());
      return R;
    }
    if (One.Stats.FinishesInserted) {
      R.FinishesInserted += One.Stats.FinishesInserted;
      R.InputsThatContributed.push_back(I);
    }
  }

  // Final verification: re-detect on every input against the finished
  // program. The per-input loop above proves each input race free *at the
  // time it was processed*; this pass proves the conjunction holds for the
  // final finish set and names the offending input when it does not.
  for (size_t I = 0; I != Inputs.size(); ++I) {
    Detection D = detectRaces(P, Detect, Inputs[I]);
    if (!D.ok()) {
      R.FailedVerifyInput = I;
      R.Error = strFormat("verification: input %zu failed at run time: %s", I,
                          D.Exec.Error.c_str());
      return R;
    }
    if (!D.Report.Pairs.empty()) {
      R.FailedVerifyInput = I;
      R.Error = strFormat("verification: input %zu still has %zu racing "
                          "pair(s) after repair",
                          I, D.Report.Pairs.size());
      return R;
    }
  }
  R.FinalVerified = true;
  R.Success = true;
  return R;
}

namespace {

/// Counts dynamic async and future instances per static site.
class SpawnCounter : public ExecMonitor {
public:
  void onAsyncEnter(const AsyncStmt *S, const Stmt *) override {
    ++Counts[S];
  }
  void onFutureEnter(const FutureStmt *S, const Stmt *, uint32_t) override {
    ++Counts[S];
  }
  std::unordered_map<const Stmt *, uint64_t> Counts;
};

} // namespace

CoverageReport tdr::analyzeTestCoverage(Program &P,
                                        const std::vector<ExecOptions> &Inputs) {
  CoverageReport Report;
  for (Stmt *S : collectSpawnSites(P)) {
    SpawnSiteCoverage C;
    C.Site = S;
    C.Loc = S->loc();
    C.InstancesPerInput.assign(Inputs.size(), 0);
    Report.Sites.push_back(std::move(C));
  }

  for (size_t I = 0; I != Inputs.size(); ++I) {
    SpawnCounter Counter;
    ExecOptions Opts = Inputs[I];
    Opts.Monitor = &Counter;
    ExecResult R = runProgram(P, Opts);
    if (!R.Ok) {
      // A crashing input exercises nothing reliably — record it so callers
      // can distinguish "ran and spawned nothing" from "never ran".
      Report.FailedInputs.push_back({I, R.Error});
      continue;
    }
    for (SpawnSiteCoverage &C : Report.Sites) {
      auto It = Counter.Counts.find(C.Site);
      if (It != Counter.Counts.end())
        C.InstancesPerInput[I] = It->second;
    }
  }

  for (const SpawnSiteCoverage &C : Report.Sites)
    if (C.exercised())
      ++Report.NumExercised;
    else
      ++Report.NumUnexercised;
  return Report;
}
