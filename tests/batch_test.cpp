//===- batch_test.cpp - Parallel batch repair runner tests ----------------===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
// The batch runner's contract: N workers produce byte-identical repaired
// programs and identical per-run stats to a sequential run, results come
// back in submission order, and per-job metrics land in per-job
// registries that merge deterministically into the caller's.
//
//===----------------------------------------------------------------------===//

#include "batch/BatchRepair.h"
#include "obs/Metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <vector>

using namespace tdr;

namespace {

/// Two unsynchronized asyncs accumulating into a shared cell.
const char *RacyAccumulator = R"(
var a: int[];
func main() {
  a = new int[1];
  async { a[0] = a[0] + 1; }
  async { a[0] = a[0] + 2; }
  print(a[0]);
}
)";

/// Race only observable when arg(0) > 10.
const char *InputDependent = R"(
var X: int = 0;
var Y: int = 0;
func main() {
  var n: int = arg(0);
  async { X = n; }
  if (n > 10) {
    async { Y = n; }
  }
  print(X + Y);
}
)";

/// Recursive fork/join with a racy reduction into r[0].
const char *RacySum = R"(
var r: int[];
func sum(lo: int, hi: int) {
  if (hi - lo < 4) {
    var s: int = 0;
    for (var i: int = lo; i < hi; i = i + 1) { s = s + i; }
    r[0] = r[0] + s;
    return;
  }
  var mid: int = (lo + hi) / 2;
  async sum(lo, mid);
  async sum(mid, hi);
}
func main() {
  r = new int[1];
  sum(0, arg(0));
  print(r[0]);
}
)";

/// Already race free; the repair must be the identity.
const char *AlreadyClean = R"(
var Z: int = 0;
func main() {
  finish {
    async { Z = 1; }
  }
  print(Z);
}
)";

std::vector<RepairJob> mixedJobs() {
  std::vector<RepairJob> Jobs;
  RepairJob J;
  J.Name = "accumulator";
  J.Source = RacyAccumulator;
  Jobs.push_back(J);
  J.Name = "input-dependent";
  J.Source = InputDependent;
  J.Opts.Exec.Args = {20};
  Jobs.push_back(J);
  J.Name = "racy-sum";
  J.Source = RacySum;
  J.Opts.Exec.Args = {32};
  Jobs.push_back(J);
  J.Name = "already-clean";
  J.Source = AlreadyClean;
  J.Opts.Exec.Args = {};
  Jobs.push_back(J);
  return Jobs;
}

TEST(RunJobsOrdered, EveryIndexExactlyOnce) {
  constexpr size_t N = 100;
  std::vector<std::atomic<unsigned>> Hits(N);
  runJobsOrdered(N, 4, [&](size_t I) { Hits[I].fetch_add(1); });
  for (size_t I = 0; I != N; ++I)
    EXPECT_EQ(Hits[I].load(), 1u) << "index " << I;
}

TEST(RunJobsOrdered, MoreWorkersThanJobs) {
  std::vector<std::atomic<unsigned>> Hits(3);
  runJobsOrdered(3, 16, [&](size_t I) { Hits[I].fetch_add(1); });
  for (size_t I = 0; I != 3; ++I)
    EXPECT_EQ(Hits[I].load(), 1u);
}

TEST(RunJobsOrdered, EmptyAndZeroWorkers) {
  std::atomic<unsigned> Calls{0};
  runJobsOrdered(0, 4, [&](size_t) { Calls.fetch_add(1); });
  EXPECT_EQ(Calls.load(), 0u);
  // Workers == 0 is clamped to one worker, not a no-op.
  runJobsOrdered(5, 0, [&](size_t) { Calls.fetch_add(1); });
  EXPECT_EQ(Calls.load(), 5u);
}

TEST(Batch, ResultsInSubmissionOrder) {
  std::vector<RepairJob> Jobs = mixedJobs();
  BatchSummary S = BatchRepairRunner(4).run(Jobs);
  ASSERT_EQ(S.Results.size(), Jobs.size());
  for (size_t I = 0; I != Jobs.size(); ++I)
    EXPECT_EQ(S.Results[I].Name, Jobs[I].Name);
  EXPECT_EQ(S.NumSucceeded, Jobs.size());
  EXPECT_EQ(S.NumFailed, 0u);
}

TEST(Batch, ParallelMatchesSequentialByteForByte) {
  std::vector<RepairJob> Jobs = mixedJobs();
  BatchSummary Seq = BatchRepairRunner(1).run(Jobs);
  for (unsigned Workers : {4u, 8u}) {
    BatchSummary Par = BatchRepairRunner(Workers).run(Jobs);
    ASSERT_EQ(Par.Results.size(), Seq.Results.size());
    for (size_t I = 0; I != Seq.Results.size(); ++I) {
      const BatchJobResult &A = Seq.Results[I];
      const BatchJobResult &B = Par.Results[I];
      EXPECT_EQ(A.Repair.Success, B.Repair.Success) << A.Name;
      // The repaired program text is byte-identical...
      EXPECT_EQ(A.RepairedSource, B.RepairedSource) << A.Name;
      // ...and so is every deterministic per-run stat.
      EXPECT_EQ(A.Repair.Stats.Iterations, B.Repair.Stats.Iterations);
      EXPECT_EQ(A.Repair.Stats.FinishesInserted,
                B.Repair.Stats.FinishesInserted);
      EXPECT_EQ(A.Repair.Stats.DpstNodes, B.Repair.Stats.DpstNodes);
      EXPECT_EQ(A.Repair.Stats.RawRaces, B.Repair.Stats.RawRaces);
      EXPECT_EQ(A.Repair.Stats.RacePairs, B.Repair.Stats.RacePairs);
    }
  }
}

TEST(Batch, RepairsActuallyInsertFinishes) {
  std::vector<RepairJob> Jobs = mixedJobs();
  BatchSummary S = BatchRepairRunner(4).run(Jobs);
  // Every racy job gained at least one finish; the clean one gained none.
  EXPECT_GE(S.Results[0].Repair.Stats.FinishesInserted, 1u);
  EXPECT_GE(S.Results[1].Repair.Stats.FinishesInserted, 1u);
  EXPECT_GE(S.Results[2].Repair.Stats.FinishesInserted, 1u);
  EXPECT_EQ(S.Results[3].Repair.Stats.FinishesInserted, 0u);
  EXPECT_NE(S.Results[0].RepairedSource.find("finish"), std::string::npos);
}

TEST(Batch, PerJobMetricsAreIsolatedAndMerged) {
  std::vector<RepairJob> Jobs = mixedJobs();

  uint64_t GlobalJobsBefore =
      obs::MetricsRegistry::global().counterValue("batch.jobs");
  obs::MetricsRegistry Parent;
  BatchSummary S;
  {
    obs::ScopedMetrics Scope(Parent);
    S = BatchRepairRunner(4).run(Jobs);
  }

  for (const BatchJobResult &R : S.Results) {
    // Every job carries its own non-trivial metrics dump.
    EXPECT_NE(R.MetricsJson.find("\"detect.runs\""), std::string::npos)
        << R.Name;
    EXPECT_NE(R.MetricsJson.find("\"repair.iterations\""), std::string::npos)
        << R.Name;
  }
  // The caller's registry saw the whole batch: detect.runs merged across
  // jobs matches the per-job iteration counts (each iteration performs
  // exactly one detection run).
  uint64_t DetectRunsAcrossJobs = 0;
  for (const BatchJobResult &R : S.Results)
    DetectRunsAcrossJobs += R.Repair.Stats.Iterations;
  EXPECT_EQ(Parent.counterValue("detect.runs"), DetectRunsAcrossJobs);
  EXPECT_EQ(Parent.counterValue("batch.jobs"), Jobs.size());
  EXPECT_EQ(Parent.counterValue("repair.finishes_inserted"),
            S.Results[0].Repair.Stats.FinishesInserted +
                S.Results[1].Repair.Stats.FinishesInserted +
                S.Results[2].Repair.Stats.FinishesInserted +
                S.Results[3].Repair.Stats.FinishesInserted);
  // Nothing leaked into the global registry from the scoped batch.
  EXPECT_EQ(obs::MetricsRegistry::global().counterValue("batch.jobs"),
            GlobalJobsBefore);
}

TEST(Batch, MergedMetricsMatchSequentialRun) {
  std::vector<RepairJob> Jobs = mixedJobs();

  obs::MetricsRegistry SeqReg, ParReg;
  {
    obs::ScopedMetrics Scope(SeqReg);
    BatchRepairRunner(1).run(Jobs);
  }
  {
    obs::ScopedMetrics Scope(ParReg);
    BatchRepairRunner(8).run(Jobs);
  }
  // Counters add the same totals and gauges keep the submission-order
  // "last run" value either way. (The full dumps are not compared: the
  // repair.*_ms histograms record wall-clock times.)
  for (const char *C :
       {"detect.runs", "espbags.checks", "espbags.reads", "espbags.writes",
        "race.reports_raw", "race.pairs", "dpst.nodes", "dpst.mhp_queries",
        "repair.iterations", "repair.finishes_inserted", "repair.groups",
        "dp.runs", "dp.subproblems", "frontend.parses", "sema.runs",
        "interp.asyncs", "interp.finishes", "batch.jobs"})
    EXPECT_EQ(SeqReg.counterValue(C), ParReg.counterValue(C)) << C;
  for (const char *G :
       {"detect.dpst_nodes", "detect.races_raw", "detect.race_pairs"})
    EXPECT_EQ(SeqReg.gaugeValue(G), ParReg.gaugeValue(G)) << G;
}

TEST(Batch, FailingJobIsReportedNotDropped) {
  std::vector<RepairJob> Jobs = mixedJobs();
  RepairJob Bad;
  Bad.Name = "does-not-compile";
  Bad.Source = "func main() { undeclared = 1; }";
  Jobs.insert(Jobs.begin() + 1, Bad);

  BatchSummary S = BatchRepairRunner(4).run(Jobs);
  ASSERT_EQ(S.Results.size(), Jobs.size());
  EXPECT_EQ(S.NumFailed, 1u);
  EXPECT_EQ(S.NumSucceeded, Jobs.size() - 1);
  EXPECT_FALSE(S.Results[1].Repair.Success);
  EXPECT_FALSE(S.Results[1].Repair.Error.empty());
  // The failure did not shift or corrupt its neighbors.
  EXPECT_EQ(S.Results[0].Name, "accumulator");
  EXPECT_EQ(S.Results[2].Name, "input-dependent");
  EXPECT_TRUE(S.Results[2].Repair.Success);
}

} // namespace
