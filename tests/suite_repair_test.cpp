//===- suite_repair_test.cpp - §7.1 experiment on all 12 benchmarks -------===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
// The paper's central evaluation (§7.1): remove all finish statements from
// each benchmark, run the repair tool on the buggy program with the repair
// input, and check that one tool run yields a program that (a) is race
// free for that input, (b) has the serial elision's semantics, and (c)
// retains parallelism comparable to the expert-written original.
//
//===----------------------------------------------------------------------===//

#include "CompactCheck.h"
#include "TestUtil.h"

#include "ast/Transforms.h"
#include "obs/Metrics.h"
#include "suite/Experiment.h"

using namespace tdr;

namespace {

class SuiteRepairTest : public ::testing::TestWithParam<const char *> {};

TEST_P(SuiteRepairTest, OriginalIsRaceFree) {
  const BenchmarkSpec *Spec = findBenchmark(GetParam());
  ASSERT_NE(Spec, nullptr);
  LoadedBenchmark B = loadBenchmark(Spec->Source);
  ExecOptions Exec;
  Exec.Args = Spec->RepairArgs;
  Detection D = detectRaces(*B.Prog, EspBagsDetector::Mode::MRW, Exec);
  ASSERT_TRUE(D.ok()) << D.Exec.Error;
  EXPECT_TRUE(D.Report.Pairs.empty())
      << Spec->Name << ": expert version must be race free, found "
      << D.Report.Pairs.size() << " racing pairs, first at "
      << D.Report.Pairs.front().Loc.str();
}

TEST_P(SuiteRepairTest, StrippedHasRaces) {
  const BenchmarkSpec *Spec = findBenchmark(GetParam());
  ASSERT_NE(Spec, nullptr);
  LoadedBenchmark B = loadBenchmark(Spec->Source);
  unsigned Removed = stripFinishes(*B.Prog);
  EXPECT_GT(Removed, 0u) << Spec->Name << " has no finishes to strip";
  ExecOptions Exec;
  Exec.Args = Spec->RepairArgs;
  Detection D = detectRaces(*B.Prog, EspBagsDetector::Mode::MRW, Exec);
  ASSERT_TRUE(D.ok()) << D.Exec.Error;
  EXPECT_GT(D.Report.Pairs.size(), 0u)
      << Spec->Name << ": stripping finishes must introduce races";
}

TEST_P(SuiteRepairTest, CompactDetectionMatchesFullTree) {
  const BenchmarkSpec *Spec = findBenchmark(GetParam());
  ASSERT_NE(Spec, nullptr);
  LoadedBenchmark B = loadBenchmark(Spec->Source);
  stripFinishes(*B.Prog);
  ExecOptions Exec;
  Exec.Args = Spec->RepairArgs;
  test::expectCompactMatchesFull(*B.Prog, Exec, Spec->Name);
}

TEST_P(SuiteRepairTest, RepairRestoresCorrectnessAndParallelism) {
  const BenchmarkSpec *Spec = findBenchmark(GetParam());
  ASSERT_NE(Spec, nullptr);
  RepairExperiment R =
      runRepairExperiment(*Spec, EspBagsDetector::Mode::MRW);
  ASSERT_TRUE(R.Ok) << Spec->Name << ": " << R.Error << "\n"
                    << R.RepairedSource;
  EXPECT_TRUE(R.RaceFreeAfter);
  EXPECT_TRUE(R.OutputMatchesElision);
  EXPECT_GT(R.Finishes, 0u);

  // Parallelism of the repair is comparable to the expert original: the
  // repaired critical path is within 25% of the original's (paper §7.1:
  // "comparable parallelism to that created by the experts").
  EXPECT_LE(R.Repaired.Tinf,
            R.Original.Tinf + R.Original.Tinf / 4)
      << Spec->Name << ": original Tinf=" << R.Original.Tinf
      << " repaired Tinf=" << R.Repaired.Tinf << "\n"
      << R.RepairedSource;
  // And the work is essentially unchanged (finishes add no work).
  EXPECT_NEAR(static_cast<double>(R.Repaired.T1),
              static_cast<double>(R.Original.T1),
              static_cast<double>(R.Original.T1) * 0.02);
}

TEST_P(SuiteRepairTest, SrwRepairConvergesWithinTwoIterations) {
  const BenchmarkSpec *Spec = findBenchmark(GetParam());
  ASSERT_NE(Spec, nullptr);
  RepairExperiment R =
      runRepairExperiment(*Spec, EspBagsDetector::Mode::SRW);
  ASSERT_TRUE(R.Ok) << Spec->Name << ": " << R.Error;
  // Paper §7.3: "only two SRW iterations were needed in each case (one for
  // repair, and one to confirm)". Allow three for safety on our suite.
  EXPECT_LE(R.Iterations, 3u) << Spec->Name;
}

// At the performance inputs (Table 1 column 5) one NS-LCA group has
// hundreds of vertices (LUFact: 884,352 racing pairs). The work after
// detection must stay near-linear in races + edges, plus the DP's own N^3,
// so it is gated on the deterministic repair.oracle_steps count rather
// than on wall time: the children the validity oracle indexes and the
// races the liveness scan visits. The bounds are 1.25x today's counts
// (LUFact 2,657,074, Series 98,567); per-range rescans of every race,
// edge and child cost orders of magnitude more (Series: 1.6e9).
class SuitePerfRepairTest
    : public ::testing::TestWithParam<std::pair<const char *, uint64_t>> {};

TEST_P(SuitePerfRepairTest, RepairsWithinWorkBound) {
  auto [Name, MaxOracleSteps] = GetParam();
  const BenchmarkSpec *Spec = findBenchmark(Name);
  ASSERT_NE(Spec, nullptr);
  LoadedBenchmark B = loadBenchmark(Spec->Source);
  ASSERT_GT(stripFinishes(*B.Prog), 0u);

  obs::MetricsRegistry Reg;
  RepairResult R;
  {
    obs::ScopedMetrics Scope(Reg);
    RepairOptions Opts;
    Opts.Exec.Args = Spec->PerfArgs;
    R = repairProgram(*B.Prog, *B.Ctx, Opts);
  }
  ASSERT_TRUE(R.Success) << Name << ": " << R.Error;
  EXPECT_GT(R.Stats.FinishesInserted, 0u);
  EXPECT_LE(Reg.counterValue("repair.oracle_steps"), MaxOracleSteps) << Name;

  ExecOptions Exec;
  Exec.Args = Spec->PerfArgs;
  Detection D = detectRacesOracle(*B.Prog, Exec);
  ASSERT_TRUE(D.ok()) << D.Exec.Error;
  EXPECT_TRUE(D.Report.Pairs.empty())
      << Name << ": " << D.Report.Pairs.size() << " racing pairs remain";
}

INSTANTIATE_TEST_SUITE_P(
    PerfArgs, SuitePerfRepairTest,
    ::testing::Values(std::make_pair("LUFact", uint64_t{3300000}),
                      std::make_pair("Series", uint64_t{125000})),
    [](const auto &Info) { return std::string(Info.param.first); });

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, SuiteRepairTest,
    ::testing::Values("Fibonacci", "Quicksort", "Mergesort", "Spanning Tree",
                      "Nqueens", "Series", "SOR", "Crypt", "Sparse", "LUFact",
                      "FannKuch", "Mandelbrot"),
    [](const ::testing::TestParamInfo<const char *> &Info) {
      std::string Name = Info.param;
      Name.erase(std::remove(Name.begin(), Name.end(), ' '), Name.end());
      return Name;
    });

} // namespace
