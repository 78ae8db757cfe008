//===- construct_repair_test.cpp - Per-edge construct choice --------------===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
// The construct-choosing repair layer end to end: the allowlist parser,
// the force-aware cost evaluator, the greedy per-edge chooser on synthetic
// placement problems, and the acceptance programs of the construct suite —
// FuturePipeline must be repaired by forcing the future, IsolatedAccum by
// isolating the accumulator updates (when allowed), ForasyncStencil by the
// classic finish — each non-finish choice strictly cheaper than the best
// finish insertion, with the losing alternatives recorded in provenance.
//
//===----------------------------------------------------------------------===//

#include "CompactCheck.h"
#include "TestUtil.h"

#include "race/Detect.h"
#include "repair/ConstructChoice.h"
#include "repair/RepairDriver.h"
#include "suite/Constructs.h"

#include <algorithm>

using namespace tdr;
using namespace tdr::test;

namespace {

//===----------------------------------------------------------------------===//
// Allowlist parsing
//===----------------------------------------------------------------------===//

TEST(ConstructList, ParsesValidCombinations) {
  unsigned Mask = 0;
  std::string Err;
  ASSERT_TRUE(parseConstructList("finish", Mask, Err)) << Err;
  EXPECT_EQ(Mask, constructs::Finish);
  ASSERT_TRUE(parseConstructList("finish,future", Mask, Err)) << Err;
  EXPECT_EQ(Mask, constructs::Default);
  ASSERT_TRUE(parseConstructList("isolated,future,finish", Mask, Err)) << Err;
  EXPECT_EQ(Mask, constructs::All);
  EXPECT_EQ(formatConstructMask(constructs::All), "finish,future,isolated");
  EXPECT_EQ(formatConstructMask(constructs::Default), "finish,future");
}

TEST(ConstructList, RejectsMalformedSpecs) {
  unsigned Mask = 0;
  std::string Err;
  EXPECT_FALSE(parseConstructList("", Mask, Err));
  EXPECT_FALSE(parseConstructList("future", Mask, Err));
  EXPECT_NE(Err.find("finish"), std::string::npos) << Err;
  EXPECT_FALSE(parseConstructList("finish,barrier", Mask, Err));
  EXPECT_NE(Err.find("barrier"), std::string::npos) << Err;
  EXPECT_FALSE(parseConstructList("finish,finish", Mask, Err));
  EXPECT_NE(Err.find("twice"), std::string::npos) << Err;
  EXPECT_FALSE(parseConstructList("finish,,future", Mask, Err));
}

//===----------------------------------------------------------------------===//
// Force-aware cost evaluator
//===----------------------------------------------------------------------===//

/// nodes: [async w=10][async w=50][step w=1][async w=5], edge (0, 2).
PlacementProblem pipelineProblem() {
  PlacementProblem P;
  P.Times = {10, 50, 1, 5};
  P.IsAsync = {true, true, false, true};
  P.Edges = {{0, 2}};
  return P;
}

TEST(EvalConstructCost, EmptyForceSetMatchesPlacementCost) {
  PlacementProblem P = pipelineProblem();
  for (const std::vector<std::pair<uint32_t, uint32_t>> &F :
       {std::vector<std::pair<uint32_t, uint32_t>>{},
        std::vector<std::pair<uint32_t, uint32_t>>{{0, 0}},
        std::vector<std::pair<uint32_t, uint32_t>>{{0, 1}}})
    EXPECT_EQ(evalConstructCost(P, F, {}), evalPlacementCost(P, F));
}

TEST(EvalConstructCost, ForceEdgeJoinsOnlyTheFuture) {
  PlacementProblem P = pipelineProblem();
  // No repair: everything is concurrent after its spawn point.
  //   async0 ends 10, async1 ends 50, step ends 1, async3 ends 1+5.
  EXPECT_EQ(evalPlacementCost(P, {}), 50u);
  // Finish [0,0] joins the future before anything else runs:
  //   10 + max(50, 1 + 5) = 60.
  EXPECT_EQ(evalPlacementCost(P, {{0, 0}}), 60u);
  // Finish [0,1] joins both asyncs: max(10,50) + 1 + 5 = 56.
  EXPECT_EQ(evalPlacementCost(P, {{0, 1}}), 56u);
  // Force (0,2) raises only the step's clock to the future's completion:
  //   async1 still ends at 50; the step runs 10..11; async3 ends 16.
  EXPECT_EQ(evalConstructCost(P, {}, {{0, 2}}), 50u);
}

TEST(EvalConstructCost, ForceIntoFinishRangeDelaysTheRange) {
  // [async w=20][finish range around step w=3 forced by the async]
  PlacementProblem P;
  P.Times = {20, 3, 4};
  P.IsAsync = {true, false, false};
  P.Edges = {{0, 1}};
  // Force (0,1): step1 waits for the async (20), runs to 23, step2 to 27.
  EXPECT_EQ(evalConstructCost(P, {}, {{0, 1}}), 27u);
}

//===----------------------------------------------------------------------===//
// Greedy per-edge chooser on synthetic problems
//===----------------------------------------------------------------------===//

SolveFinishFn unconstrainedSolver(const PlacementProblem &P) {
  return [&P](const std::vector<std::pair<uint32_t, uint32_t>> &Edges) {
    PlacementProblem Sub = P;
    Sub.Edges = Edges;
    return placeFinishes(Sub, [](uint32_t, uint32_t) { return true; });
  };
}

TEST(PlanConstructs, PicksForceWhenStrictlyCheaper) {
  PlacementProblem P = pipelineProblem();
  std::vector<EdgeCandidate> Cands(1);
  Cands[0].CanForce = true;
  GroupPlan Plan =
      planConstructs(P, constructs::Default, Cands, unconstrainedSolver(P));
  ASSERT_TRUE(Plan.Feasible);
  ASSERT_EQ(Plan.Edges.size(), 1u);
  EXPECT_EQ(Plan.Edges[0].Construct, RepairConstruct::ForceFuture);
  EXPECT_EQ(Plan.Cost, 50u);
  EXPECT_EQ(Plan.AllFinishCost, 56u);
  EXPECT_TRUE(Plan.FinishRanges.empty());
  ASSERT_EQ(Plan.ForceEdges.size(), 1u);
  // The losing finish is reported as a feasible, costlier alternative.
  ASSERT_EQ(Plan.Edges[0].Alternatives.size(), 1u);
  const ConstructAlternative &Alt = Plan.Edges[0].Alternatives[0];
  EXPECT_EQ(Alt.Construct, RepairConstruct::Finish);
  EXPECT_TRUE(Alt.Feasible);
  EXPECT_GT(Alt.Cost, Plan.Cost);
}

TEST(PlanConstructs, TieKeepsThePaperFinishRepair) {
  // Two parallel steps of equal weight racing: finish [0,0] costs 2+2=4;
  // isolating costs max + penalty = 2 + 2 = 4 as well. The tie must keep
  // finish (the plan only deviates when strictly cheaper).
  PlacementProblem P;
  P.Times = {2, 2};
  P.IsAsync = {true, true};
  P.Edges = {{0, 1}};
  std::vector<EdgeCandidate> Cands(1);
  Cands[0].CanIsolate = true;
  Cands[0].IsolatedPenalty = 2;
  GroupPlan Plan =
      planConstructs(P, constructs::All, Cands, unconstrainedSolver(P));
  ASSERT_TRUE(Plan.Feasible);
  EXPECT_EQ(Plan.Edges[0].Construct, RepairConstruct::Finish);
  EXPECT_EQ(Plan.Cost, Plan.AllFinishCost);
}

TEST(PlanConstructs, PicksIsolatedWhenPenaltyIsSmall) {
  // Two heavy asyncs (w=30 each) with one edge; isolating costs
  // 30 + penalty(2) = 32 < finish [0,0] = 60.
  PlacementProblem P;
  P.Times = {30, 30};
  P.IsAsync = {true, true};
  P.Edges = {{0, 1}};
  std::vector<EdgeCandidate> Cands(1);
  Cands[0].CanIsolate = true;
  Cands[0].IsolatedPenalty = 2;
  GroupPlan Plan =
      planConstructs(P, constructs::All, Cands, unconstrainedSolver(P));
  ASSERT_TRUE(Plan.Feasible);
  EXPECT_EQ(Plan.Edges[0].Construct, RepairConstruct::Isolated);
  EXPECT_EQ(Plan.Cost, 32u);
  EXPECT_EQ(Plan.AllFinishCost, 60u);
  // The mask gates the same choice off.
  GroupPlan Gated =
      planConstructs(P, constructs::Default, Cands, unconstrainedSolver(P));
  ASSERT_TRUE(Gated.Feasible);
  EXPECT_EQ(Gated.Edges[0].Construct, RepairConstruct::Finish);
}

TEST(PlanConstructs, InapplicableConstructsSurfaceTheirReason) {
  PlacementProblem P = pipelineProblem();
  std::vector<EdgeCandidate> Cands(1);
  Cands[0].CanForce = false;
  Cands[0].ForceReason = "edge source is not a future";
  Cands[0].CanIsolate = false;
  Cands[0].IsolateReason = "racing statement is a loop";
  GroupPlan Plan =
      planConstructs(P, constructs::All, Cands, unconstrainedSolver(P));
  ASSERT_TRUE(Plan.Feasible);
  EXPECT_EQ(Plan.Edges[0].Construct, RepairConstruct::Finish);
  ASSERT_EQ(Plan.Edges[0].Alternatives.size(), 2u);
  for (const ConstructAlternative &Alt : Plan.Edges[0].Alternatives) {
    EXPECT_FALSE(Alt.Feasible);
    EXPECT_FALSE(Alt.Reason.empty());
  }
}

//===----------------------------------------------------------------------===//
// Acceptance: the construct suite programs
//===----------------------------------------------------------------------===//

RepairOptions repairOpts(const BenchmarkSpec &Spec, unsigned Constructs) {
  RepairOptions Opts;
  Opts.Exec.Args = Spec.RepairArgs;
  Opts.Constructs = Constructs;
  Opts.CollectDiag = true;
  return Opts;
}

/// Serial interpretation of \p Source (the elision semantics the repair
/// must preserve).
std::string serialOutput(const char *Source, const std::vector<int64_t> &Args) {
  ParsedProgram P = parseAndCheck(Source);
  EXPECT_TRUE(P.ok()) << P.errors();
  ExecOptions Exec;
  Exec.Args = Args;
  Interpreter I(*P.Prog, Exec);
  ExecResult R = I.run();
  EXPECT_TRUE(R.Ok) << R.Error;
  return R.Output;
}

/// Reparses \p Repaired and asserts it is race free on \p Args with the
/// elision output \p Expected.
void expectRaceFreeWithOutput(const std::string &Repaired,
                              const std::vector<int64_t> &Args,
                              const std::string &Expected) {
  ParsedProgram P = parseAndCheck(Repaired);
  ASSERT_TRUE(P.ok()) << P.errors() << "\n" << Repaired;
  ExecOptions Exec;
  Exec.Args = Args;
  Detection D = detectRaces(*P.Prog, EspBagsDetector::Mode::MRW, Exec);
  ASSERT_TRUE(D.ok()) << D.Exec.Error;
  EXPECT_TRUE(D.Report.Pairs.empty()) << Repaired;
  EXPECT_EQ(D.Exec.Output, Expected) << Repaired;
}

TEST(ConstructSuite, FuturePipelineIsRepairedByForcing) {
  const BenchmarkSpec *Spec = findConstructBenchmark("FuturePipeline");
  ASSERT_NE(Spec, nullptr);
  std::string Repaired;
  RepairResult R = repairSource(Spec->Source, Repaired,
                                repairOpts(*Spec, constructs::Default));
  ASSERT_TRUE(R.Success) << R.Error;
  // A mixed repair: the a[1] edge is cut by forcing the future, while the
  // b-reduction edges (plain asyncs, not forceable) still take a finish —
  // the per-edge choice at work within one program.
  EXPECT_EQ(R.Stats.ForcesInserted, 1u);
  EXPECT_EQ(R.Stats.FinishesInserted, 1u);
  EXPECT_EQ(R.Stats.IsolatedInserted, 0u);
  EXPECT_NE(Repaired.find("force(f);"), std::string::npos) << Repaired;

  // Provenance: the force entry carries the losing finish with a strictly
  // higher modeled cost.
  ASSERT_EQ(R.Diag.Repairs.size(), 2u);
  auto ProvIt =
      std::find_if(R.Diag.Repairs.begin(), R.Diag.Repairs.end(),
                   [](const diag::FinishProvenance &P) {
                     return P.Construct == "force";
                   });
  ASSERT_NE(ProvIt, R.Diag.Repairs.end());
  const diag::FinishProvenance &Prov = *ProvIt;
  auto Fin = std::find_if(Prov.Alternatives.begin(), Prov.Alternatives.end(),
                          [](const diag::RepairAlternative &A) {
                            return A.Construct == "finish";
                          });
  ASSERT_NE(Fin, Prov.Alternatives.end());
  EXPECT_TRUE(Fin->Feasible);
  EXPECT_GT(Fin->Cost, Prov.CostAfter);

  expectRaceFreeWithOutput(Repaired, Spec->RepairArgs,
                           serialOutput(Spec->Source, Spec->RepairArgs));
}

TEST(ConstructSuite, IsolatedAccumIsRepairedByIsolatingWhenAllowed) {
  const BenchmarkSpec *Spec = findConstructBenchmark("IsolatedAccum");
  ASSERT_NE(Spec, nullptr);
  std::string Repaired;
  RepairResult R = repairSource(Spec->Source, Repaired,
                                repairOpts(*Spec, constructs::All));
  ASSERT_TRUE(R.Success) << R.Error;
  EXPECT_EQ(R.Stats.IsolatedInserted, 1u);
  EXPECT_EQ(R.Stats.FinishesInserted, 0u);
  EXPECT_NE(Repaired.find("isolated"), std::string::npos) << Repaired;

  ASSERT_EQ(R.Diag.Repairs.size(), 1u);
  const diag::FinishProvenance &Prov = R.Diag.Repairs[0];
  EXPECT_EQ(Prov.Construct, "isolated");
  auto Fin = std::find_if(Prov.Alternatives.begin(), Prov.Alternatives.end(),
                          [](const diag::RepairAlternative &A) {
                            return A.Construct == "finish";
                          });
  ASSERT_NE(Fin, Prov.Alternatives.end());
  EXPECT_TRUE(Fin->Feasible);
  EXPECT_GT(Fin->Cost, Prov.CostAfter);

  // Isolation reorders the two updates but addition commutes, so the
  // repaired program still matches the serial elision on this input — and
  // must be race free (the isolated steps commute for the detector).
  expectRaceFreeWithOutput(Repaired, Spec->RepairArgs,
                           serialOutput(Spec->Source, Spec->RepairArgs));
}

TEST(ConstructSuite, IsolatedAccumFallsBackToFinishByDefault) {
  const BenchmarkSpec *Spec = findConstructBenchmark("IsolatedAccum");
  ASSERT_NE(Spec, nullptr);
  std::string Repaired;
  RepairResult R = repairSource(Spec->Source, Repaired,
                                repairOpts(*Spec, constructs::Default));
  ASSERT_TRUE(R.Success) << R.Error;
  EXPECT_EQ(R.Stats.IsolatedInserted, 0u);
  EXPECT_GE(R.Stats.FinishesInserted, 1u);
  expectRaceFreeWithOutput(Repaired, Spec->RepairArgs,
                           serialOutput(Spec->Source, Spec->RepairArgs));
}

TEST(ConstructSuite, ForasyncStencilIsRepairedByFinish) {
  const BenchmarkSpec *Spec = findConstructBenchmark("ForasyncStencil");
  ASSERT_NE(Spec, nullptr);
  std::string Repaired;
  RepairResult R = repairSource(Spec->Source, Repaired,
                                repairOpts(*Spec, constructs::All));
  ASSERT_TRUE(R.Success) << R.Error;
  EXPECT_GE(R.Stats.FinishesInserted, 1u);
  EXPECT_EQ(R.Stats.ForcesInserted, 0u);
  EXPECT_EQ(R.Stats.IsolatedInserted, 0u);
  expectRaceFreeWithOutput(Repaired, Spec->RepairArgs,
                           serialOutput(Spec->Source, Spec->RepairArgs));
}

//===----------------------------------------------------------------------===//
// Differential discipline on the construct programs
//===----------------------------------------------------------------------===//

TEST(ConstructSuite, DetectionMatchesOracle) {
  for (const BenchmarkSpec &Spec : constructBenchmarks()) {
    ParsedProgram P = parseAndCheck(Spec.Source);
    ASSERT_TRUE(P.ok()) << Spec.Name << ": " << P.errors();
    ExecOptions Exec;
    Exec.Args = Spec.RepairArgs;
    Detection D = detectRaces(*P.Prog, DetectOptions(), Exec);
    ASSERT_TRUE(D.ok()) << Spec.Name << ": " << D.Exec.Error;
    EXPECT_FALSE(D.Report.Pairs.empty()) << Spec.Name;
    Detection O = detectRacesOracle(*P.Prog, Exec);
    ASSERT_TRUE(O.ok()) << Spec.Name << ": " << O.Exec.Error;
    EXPECT_EQ(renderRaceReportKey(D.Report), renderRaceReportKey(O.Report))
        << Spec.Name << ": espbags vs oracle";
  }
}

TEST(ConstructSuite, CompactDetectionMatchesFullTree) {
  // At PerfArgs the future, the isolated program's heavy tasks and the
  // forasync chunks are large enough to fold.
  size_t Folded = 0;
  for (const BenchmarkSpec &Spec : constructBenchmarks()) {
    ParsedProgram P = parseAndCheck(Spec.Source);
    ASSERT_TRUE(P.ok()) << Spec.Name << ": " << P.errors();
    for (const std::vector<int64_t> *Args :
         {&Spec.RepairArgs, &Spec.PerfArgs}) {
      ExecOptions Exec;
      Exec.Args = *Args;
      Folded += expectCompactMatchesFull(*P.Prog, Exec, Spec.Name);
    }
  }
  EXPECT_GT(Folded, 0u);
}

TEST(ConstructSuite, RepairsWithTheFullAllowlist) {
  // Every repair round re-interprets the edited program, so force and
  // isolated edits are verified by a fresh detection like finishes are.
  for (const BenchmarkSpec &Spec : constructBenchmarks()) {
    std::string Repaired;
    RepairOptions Opts = repairOpts(Spec, constructs::All);
    Opts.CollectDiag = false;
    RepairResult R = repairSource(Spec.Source, Repaired, Opts);
    EXPECT_TRUE(R.Success) << Spec.Name << ": " << R.Error;
    EXPECT_EQ(R.Stats.Interpretations, R.Stats.Iterations) << Spec.Name;
  }
}

} // namespace
