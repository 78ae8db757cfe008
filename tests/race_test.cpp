//===- race_test.cpp - ESP-bags race detection tests ----------------------===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
// Unit tests on the paper's examples (Figures 5, 7, 8), property tests
// validating MRW ESP-bags against the independent Theorem-1 oracle on
// random programs, the per-sink pair dedupe against the frozen reference
// detector, and the TDR_BACKEND_CHECK differential that checks every
// detection against that oracle.
//
//===----------------------------------------------------------------------===//

#include "RandomProgram.h"
#include "TestUtil.h"

#include "obs/Metrics.h"
#include "race/Detect.h"
#include "race/OracleDetector.h"
#include "race/RefDetectors.h"
#include "repair/RepairDriver.h"
#include "trace/EventLog.h"

#include <algorithm>
#include <cstdlib>
#include <set>

using namespace tdr;
using namespace tdr::test;

namespace {

Detection detect(ParsedProgram &P, EspBagsDetector::Mode Mode,
                 std::vector<int64_t> Args = {}) {
  ExecOptions Exec;
  Exec.Args = std::move(Args);
  return detectRaces(*P.Prog, Mode, Exec);
}

TEST(EspBags, NoRaceInSequentialProgram) {
  ParsedProgram P = parseAndCheck(R"(
var X: int = 0;
func main() {
  X = 1;
  X = X + 1;
  print(X);
}
)");
  ASSERT_TRUE(P.ok()) << P.errors();
  Detection D = detect(P, EspBagsDetector::Mode::MRW);
  EXPECT_TRUE(D.Report.Pairs.empty());
  EXPECT_EQ(D.Exec.Output, "2\n");
}

TEST(EspBags, AsyncWriteRacesWithParentRead) {
  ParsedProgram P = parseAndCheck(R"(
var X: int = 0;
func main() {
  async { X = 1; }
  print(X);
}
)");
  ASSERT_TRUE(P.ok()) << P.errors();
  Detection D = detect(P, EspBagsDetector::Mode::MRW);
  ASSERT_EQ(D.Report.Pairs.size(), 1u);
  EXPECT_EQ(D.Report.Pairs[0].SrcKind, AccessKind::Write);
  EXPECT_EQ(D.Report.Pairs[0].SnkKind, AccessKind::Read);
}

TEST(EspBags, FinishOrdersAsyncBeforeRead) {
  ParsedProgram P = parseAndCheck(R"(
var X: int = 0;
func main() {
  finish {
    async { X = 1; }
  }
  print(X);
}
)");
  ASSERT_TRUE(P.ok()) << P.errors();
  Detection D = detect(P, EspBagsDetector::Mode::MRW);
  EXPECT_TRUE(D.Report.Pairs.empty());
  EXPECT_EQ(D.Exec.Output, "1\n");
}

TEST(EspBags, SiblingAsyncsRace) {
  ParsedProgram P = parseAndCheck(R"(
var X: int = 0;
func main() {
  finish {
    async { X = 1; }
    async { X = 2; }
  }
  print(X);
}
)");
  ASSERT_TRUE(P.ok()) << P.errors();
  Detection D = detect(P, EspBagsDetector::Mode::MRW);
  EXPECT_EQ(D.Report.Pairs.size(), 1u);
}

TEST(EspBags, Figure7MrwReportsBothReaders) {
  // Paper Figure 7: two async readers of x then an async writer. SRW keeps
  // one reader so it reports one race; MRW reports both.
  ParsedProgram P1 = parseAndCheck(R"(
var X: int = 0;
func main() {
  finish {
    async { var a: int = X; }
    async { var b: int = X; }
    async { X = 1; }
  }
}
)");
  ASSERT_TRUE(P1.ok()) << P1.errors();
  Detection Mrw = detect(P1, EspBagsDetector::Mode::MRW);
  EXPECT_EQ(Mrw.Report.Pairs.size(), 2u);

  ParsedProgram P2 = parseAndCheck(R"(
var X: int = 0;
func main() {
  finish {
    async { var a: int = X; }
    async { var b: int = X; }
    async { X = 1; }
  }
}
)");
  Detection Srw = detect(P2, EspBagsDetector::Mode::SRW);
  EXPECT_EQ(Srw.Report.Pairs.size(), 1u);
}

TEST(EspBags, Figure5TwoRaces) {
  // Paper Figure 5: A2 -> A4 (x) and A3 -> A4 (y).
  ParsedProgram P = parseAndCheck(R"(
var X: int = 0;
var Y: int = 0;
var Z: int = 0;
func main() {
  if (arg(0) > 0) {
    async { Z = 1; }
    async { X = 1; }
  }
  async { Y = 1; }
  async { Z = X + Y; }
}
)");
  ASSERT_TRUE(P.ok()) << P.errors();
  Detection D = detect(P, EspBagsDetector::Mode::MRW, {1});
  // Races: A1/Z vs A4/Z write-write, A2/X vs A4 read, A3/Y vs A4 read.
  EXPECT_GE(D.Report.Pairs.size(), 2u);
  bool HasXRace = false, HasYRace = false;
  for (const RacePair &R : D.Report.Pairs) {
    if (R.Loc.K == MemLoc::Kind::Global && R.Loc.Id == 0)
      HasXRace = true;
    if (R.Loc.K == MemLoc::Kind::Global && R.Loc.Id == 1)
      HasYRace = true;
  }
  EXPECT_TRUE(HasXRace);
  EXPECT_TRUE(HasYRace);
}

TEST(EspBags, TransitiveJoinThroughNestedFinish) {
  // The outer finish joins grandchild asyncs spawned without their own
  // finish (terminally strict semantics).
  ParsedProgram P = parseAndCheck(R"(
var X: int = 0;
func main() {
  finish {
    async {
      async { X = 1; }
    }
  }
  print(X);
}
)");
  ASSERT_TRUE(P.ok()) << P.errors();
  Detection D = detect(P, EspBagsDetector::Mode::MRW);
  EXPECT_TRUE(D.Report.Pairs.empty());
}

TEST(EspBags, FinishDoesNotOrderAgainstLaterAsync) {
  // finish { async w } then async r: no ordering issue — the finish
  // happens before the second async spawns.
  ParsedProgram P = parseAndCheck(R"(
var X: int = 0;
func main() {
  finish {
    async { X = 1; }
  }
  async { X = 2; }
  print(0);
}
)");
  ASSERT_TRUE(P.ok()) << P.errors();
  Detection D = detect(P, EspBagsDetector::Mode::MRW);
  // X=1 ordered before X=2 by the finish; X=2 races with nothing (the
  // print does not touch X).
  EXPECT_TRUE(D.Report.Pairs.empty());
}

TEST(EspBags, ReadsDoNotRaceWithReads) {
  ParsedProgram P = parseAndCheck(R"(
var X: int = 5;
func main() {
  finish {
    async { var a: int = X; }
    async { var b: int = X; }
  }
  print(X);
}
)");
  ASSERT_TRUE(P.ok()) << P.errors();
  Detection D = detect(P, EspBagsDetector::Mode::MRW);
  EXPECT_TRUE(D.Report.Pairs.empty());
}

TEST(EspBags, ArrayElementGranularity) {
  // Disjoint elements do not race; the same element does.
  ParsedProgram P = parseAndCheck(R"(
var A: int[];
func main() {
  A = new int[4];
  finish {
    async { A[0] = 1; }
    async { A[1] = 2; }
  }
  finish {
    async { A[2] = 3; }
    async { A[2] = 4; }
  }
}
)");
  ASSERT_TRUE(P.ok()) << P.errors();
  Detection D = detect(P, EspBagsDetector::Mode::MRW);
  ASSERT_EQ(D.Report.Pairs.size(), 1u);
  EXPECT_EQ(D.Report.Pairs[0].Loc.Index, 2);
}

TEST(EspBags, RawCountCountsEveryConflict) {
  ParsedProgram P = parseAndCheck(R"(
var X: int = 0;
func main() {
  async { X = 1; }
  var a: int = X;
  var b: int = X;
}
)");
  ASSERT_TRUE(P.ok()) << P.errors();
  Detection D = detect(P, EspBagsDetector::Mode::MRW);
  // One pair of steps, but two conflicting reads reported.
  EXPECT_EQ(D.Report.Pairs.size(), 1u);
  EXPECT_EQ(D.Report.RawCount, 2u);
}

//===----------------------------------------------------------------------===//
// Caller-supplied monitors keep observing through a detection run
//===----------------------------------------------------------------------===//

/// Counts the events it sees; stands in for a caller's tracer/profiler.
struct CountingMonitor : ExecMonitor {
  unsigned Asyncs = 0, Reads = 0, Writes = 0, Work = 0;
  void onAsyncEnter(const AsyncStmt *, const Stmt *) override { ++Asyncs; }
  void onRead(MemLoc) override { ++Reads; }
  void onWrite(MemLoc) override { ++Writes; }
  void onWork(uint64_t) override { ++Work; }
};

TEST(Detect, CallerMonitorStillObservesExecution) {
  // Regression: detectRaces used to overwrite Exec.Monitor with its own
  // builder/detector pipeline, silently disconnecting the caller's
  // monitor. It must be chained in front instead.
  ParsedProgram P = parseAndCheck(R"(
var X: int = 0;
func main() {
  async { X = 1; }
  print(X);
}
)");
  ASSERT_TRUE(P.ok()) << P.errors();

  CountingMonitor Mon;
  ExecOptions Exec;
  Exec.Monitor = &Mon;
  Detection D = detectRaces(*P.Prog, EspBagsDetector::Mode::MRW, Exec);

  // Detection itself still works...
  ASSERT_TRUE(D.ok());
  EXPECT_EQ(D.Report.Pairs.size(), 1u);
  // ...and the caller's monitor saw the same execution.
  EXPECT_EQ(Mon.Asyncs, 1u);
  EXPECT_GE(Mon.Writes, 1u);
  EXPECT_GE(Mon.Reads, 1u);
  EXPECT_GT(Mon.Work, 0u);
}

TEST(Detect, CallerMonitorStillObservesOracleExecution) {
  ParsedProgram P = parseAndCheck(R"(
var X: int = 0;
func main() {
  finish {
    async { X = 1; }
    async { X = 2; }
  }
}
)");
  ASSERT_TRUE(P.ok()) << P.errors();

  CountingMonitor Mon;
  ExecOptions Exec;
  Exec.Monitor = &Mon;
  Detection D = detectRacesOracle(*P.Prog, Exec);
  ASSERT_TRUE(D.ok());
  EXPECT_EQ(D.Report.Pairs.size(), 1u);
  EXPECT_EQ(Mon.Asyncs, 2u);
  // Two async writes plus the global's initialization.
  EXPECT_GE(Mon.Writes, 2u);
}

//===----------------------------------------------------------------------===//
// Property: MRW ESP-bags == Theorem-1 oracle on random programs
//===----------------------------------------------------------------------===//

std::set<std::pair<uint32_t, uint32_t>> pairSet(const RaceReport &R) {
  std::set<std::pair<uint32_t, uint32_t>> S;
  for (const RacePair &P : R.Pairs)
    S.insert({P.Src->id(), P.Snk->id()});
  return S;
}

class EspBagsVsOracle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EspBagsVsOracle, IdenticalRacePairSets) {
  Rng SeedGen(GetParam());
  for (int Trial = 0; Trial != 25; ++Trial) {
    RandomProgramGen Gen(SeedGen.next());
    std::string Src = Gen.generate();
    ParsedProgram P = parseAndCheck(Src);
    ASSERT_TRUE(P.ok()) << P.errors() << "\n" << Src;

    Detection Bags = detect(P, EspBagsDetector::Mode::MRW);
    ASSERT_TRUE(Bags.ok()) << Bags.Exec.Error << "\n" << Src;
    ExecOptions Exec;
    Detection Oracle = detectRacesOracle(*P.Prog, Exec);
    ASSERT_TRUE(Oracle.ok());

    EXPECT_EQ(pairSet(Bags.Report), pairSet(Oracle.Report))
        << "trial " << Trial << "\n"
        << Src;
    EXPECT_EQ(Bags.Report.RawCount, Oracle.Report.RawCount)
        << "trial " << Trial << "\n"
        << Src;
  }
}

TEST_P(EspBagsVsOracle, SrwPairsAreSubsetOfMrw) {
  Rng SeedGen(GetParam() ^ 0xabcdef);
  for (int Trial = 0; Trial != 25; ++Trial) {
    RandomProgramGen Gen(SeedGen.next());
    std::string Src = Gen.generate();
    ParsedProgram P = parseAndCheck(Src);
    ASSERT_TRUE(P.ok()) << P.errors();

    Detection Mrw = detect(P, EspBagsDetector::Mode::MRW);
    Detection Srw = detect(P, EspBagsDetector::Mode::SRW);
    auto MrwSet = pairSet(Mrw.Report);
    auto SrwSet = pairSet(Srw.Report);
    EXPECT_TRUE(std::includes(MrwSet.begin(), MrwSet.end(), SrwSet.begin(),
                              SrwSet.end()))
        << Src;
    // SRW finds a race iff MRW does (detection, not enumeration, is
    // equally complete).
    EXPECT_EQ(SrwSet.empty(), MrwSet.empty()) << Src;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EspBagsVsOracle,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

TEST(SrwConsistentWith, SubsetAndEmptinessDecideAgreement) {
  ParsedProgram P = parseAndCheck(R"(
var X: int = 0;
func main() {
  async { X = 1; }
  async { X = 2; }
  print(X);
}
)");
  ASSERT_TRUE(P.ok()) << P.errors();
  Detection Mrw = detect(P, EspBagsDetector::Mode::MRW);
  Detection Srw = detect(P, EspBagsDetector::Mode::SRW);
  ASSERT_GT(Mrw.Report.Pairs.size(), Srw.Report.Pairs.size());
  ASSERT_FALSE(Srw.Report.Pairs.empty());
  EXPECT_TRUE(srwConsistentWith(Srw.Report, Mrw));
  // A race SRW sees but MRW misses, or MRW races SRW drops entirely.
  EXPECT_FALSE(srwConsistentWith(Mrw.Report, Srw));
  EXPECT_FALSE(srwConsistentWith(RaceReport(), Mrw));

  ParsedProgram Serial = parseAndCheck(R"(
var X: int = 0;
func main() {
  finish { async { X = 1; } }
  print(X);
}
)");
  ASSERT_TRUE(Serial.ok()) << Serial.errors();
  Detection Clean = detect(Serial, EspBagsDetector::Mode::MRW);
  ASSERT_TRUE(Clean.Report.Pairs.empty());
  EXPECT_TRUE(srwConsistentWith(RaceReport(), Clean));
  EXPECT_FALSE(srwConsistentWith(Srw.Report, Clean));
}

TEST(SrwConsistentWith, ConstructsExcuseAnEmptySrwReport) {
  // Isolated: the main task's isolated write commutes with the async's, so
  // SRW's single writer slot moves to it without a report and the async
  // write vs the final read is never checked. Future: the forced fu0's
  // read stays parallel to the bags, so it keeps the reader slot and the
  // unforced fu1's read, the one that races with the final write, is
  // dropped. MRW keeps every access in both programs.
  for (const char *Src : {R"(
var D: int[];
func main() {
  D = new int[8];
  async {
    isolated { D[3] = D[3] + 1; }
  }
  isolated { D[3] = D[3] + 2; }
  print(D[3]);
}
)",
                          R"(
var D1: int[];
var D2: int[];
func fwork(i: int): int {
  return D1[i] + i;
}
func main() {
  D1 = new int[8];
  D2 = new int[8];
  future fu0 = fwork(7);
  D2[7] = force(fu0);
  future fu1 = fwork(7);
  D1[7] += 3;
}
)"}) {
    ParsedProgram P = parseAndCheck(Src);
    ASSERT_TRUE(P.ok()) << P.errors();
    Detection Mrw = detect(P, EspBagsDetector::Mode::MRW);
    Detection Srw = detect(P, EspBagsDetector::Mode::SRW);
    ASSERT_FALSE(Mrw.Report.Pairs.empty()) << Src;
    ASSERT_TRUE(Srw.Report.Pairs.empty()) << Src;
    EXPECT_TRUE(srwConsistentWith(Srw.Report, Mrw)) << Src;
  }
}

//===----------------------------------------------------------------------===//
// Per-sink pair dedupe: the sink of every observation is the current step
//===----------------------------------------------------------------------===//

/// Streams a synthetic execution into \p Mon: \p Sources parallel tasks,
/// each reading cell 7 and writing cells 9 and 3, then two sink steps of
/// the root task. The first writes cell 7 (a read-write race with every
/// task), then cell 9 (each witness upgrades to write-write), then cell 3
/// (each upgrades to the lower location), then cell 9 again (no upgrade);
/// the second reads cell 9. Every task step is itself the sink of a
/// write-write race with each earlier task.
void emitManySourcesTwoSinks(ExecMonitor &Mon, uint32_t Sources) {
  for (uint32_t I = 0; I != Sources; ++I) {
    Mon.onAsyncEnter(nullptr, nullptr);
    Mon.onStepPoint(nullptr);
    Mon.onRead(MemLoc::elem(1, 7));
    Mon.onWrite(MemLoc::elem(1, 9));
    Mon.onWrite(MemLoc::elem(1, 3));
    Mon.onAsyncExit(nullptr);
  }
  Mon.onScopeEnter(ScopeKind::Block, nullptr, nullptr, nullptr);
  Mon.onStepPoint(nullptr);
  for (int64_t Cell : {7, 9, 3, 9})
    Mon.onWrite(MemLoc::elem(1, Cell));
  Mon.onScopeExit();
  Mon.onScopeEnter(ScopeKind::Block, nullptr, nullptr, nullptr);
  Mon.onStepPoint(nullptr);
  Mon.onRead(MemLoc::elem(1, 9));
  Mon.onScopeExit();
}

TEST(SinkDedupe, ManySourcesMatchTheFrozenReference) {
  // 100 sources outgrow the dedupe table's initial 64 live entries.
  const uint32_t Sources = 100;
  for (EspBagsDetector::Mode Mode :
       {EspBagsDetector::Mode::MRW, EspBagsDetector::Mode::SRW}) {
    Dpst Tree;
    DpstBuilder Builder(Tree);
    EspBagsDetector Det(Mode, Builder);
    FusedDetectMonitor<EspBagsDetector> Fused(Builder, Det);
    emitManySourcesTwoSinks(Fused, Sources);
    RaceReport Report = Det.takeReport();

    Dpst RefTree;
    DpstBuilder RefBuilder(RefTree);
    RefEspBagsDetector Ref(Mode, RefBuilder);
    MonitorPipeline Pipeline;
    Pipeline.add(&RefBuilder);
    Pipeline.add(&Ref);
    emitManySourcesTwoSinks(Pipeline, Sources);

    EXPECT_EQ(renderRaceReportKey(Report),
              renderRaceReportKey(Ref.takeReport()));
    if (Mode == EspBagsDetector::Mode::SRW)
      continue;
    // The first sink keeps one pair per task, upgraded to a write-write
    // witness on cell 3; the second sink's pairs start over.
    ASSERT_FALSE(Report.Pairs.empty());
    const DpstNode *Second = Report.Pairs.back().Snk;
    auto Before = std::find_if(
        Report.Pairs.rbegin(), Report.Pairs.rend(),
        [&](const RacePair &P) { return P.Snk != Second; });
    ASSERT_NE(Before, Report.Pairs.rend());
    const DpstNode *First = Before->Snk;
    uint32_t FirstPairs = 0, SecondPairs = 0;
    for (const RacePair &P : Report.Pairs) {
      if (P.Snk == First) {
        ++FirstPairs;
        EXPECT_TRUE(P.Loc == MemLoc::elem(1, 3));
        EXPECT_EQ(P.SrcKind, AccessKind::Write);
        EXPECT_EQ(P.SnkKind, AccessKind::Write);
      } else if (P.Snk == Second) {
        ++SecondPairs;
        EXPECT_TRUE(P.Loc == MemLoc::elem(1, 9));
        EXPECT_EQ(P.SrcKind, AccessKind::Write);
        EXPECT_EQ(P.SnkKind, AccessKind::Read);
      }
    }
    EXPECT_EQ(FirstPairs, Sources);
    EXPECT_EQ(SecondPairs, Sources);
  }
}

/// Asserts the pairs of \p R come grouped by sink, in step order.
void expectSinksNonDecreasing(const RaceReport &R, const std::string &Src) {
  for (size_t I = 1; I < R.Pairs.size(); ++I)
    ASSERT_LE(R.Pairs[I - 1].Snk->id(), R.Pairs[I].Snk->id())
        << "pair " << I << "\n"
        << Src;
}

TEST(SinkDedupe, PairsAreOrderedBySinkFreshAndReplayed) {
  Rng SeedGen(0x51DE);
  for (int Trial = 0; Trial != 40; ++Trial) {
    RandomProgramGen Gen(SeedGen.next());
    if (Trial % 2)
      Gen.enableConstructs();
    std::string Src = Gen.generate();
    ParsedProgram P = parseAndCheck(Src);
    ASSERT_TRUE(P.ok()) << P.errors() << "\n" << Src;

    trace::InputTrace T;
    trace::RecorderMonitor Recorder(T.Log);
    ExecOptions Exec;
    Exec.Monitor = &Recorder;
    T.Exec = runProgram(*P.Prog, std::move(Exec));
    Recorder.flush();
    ASSERT_TRUE(T.Exec.Ok) << T.Exec.Error << "\n" << Src;

    for (EspBagsDetector::Mode Mode :
         {EspBagsDetector::Mode::MRW, EspBagsDetector::Mode::SRW}) {
      Detection Fresh = detect(P, Mode);
      ASSERT_TRUE(Fresh.ok()) << Fresh.Exec.Error << "\n" << Src;
      expectSinksNonDecreasing(Fresh.Report, Src);
      Detection Replayed = detectRaces(*P.Prog, Mode, T, trace::ReplayPlan());
      ASSERT_TRUE(Replayed.ok()) << Replayed.Exec.Error << "\n" << Src;
      expectSinksNonDecreasing(Replayed.Report, Src);
    }
  }
}

//===----------------------------------------------------------------------===//
// TDR_BACKEND_CHECK: every detection is checked against the oracle
//===----------------------------------------------------------------------===//

/// Scoped environment variable: sets on construction, restores the prior
/// value (or unsets) on destruction.
class EnvVar {
public:
  EnvVar(const char *Name, const char *Value) : Name(Name) {
    if (const char *Old = std::getenv(Name)) {
      Saved = Old;
      Had = true;
    }
    if (Value)
      setenv(Name, Value, 1);
    else
      unsetenv(Name);
  }
  ~EnvVar() {
    if (Had)
      setenv(Name, Saved.c_str(), 1);
    else
      unsetenv(Name);
  }

private:
  const char *Name;
  std::string Saved;
  bool Had = false;
};

const char *RacySource = R"(
func work(a: int[], i: int) {
  a[i] = a[i] + 1;
  a[0] = a[0] + i;
}

func main() {
  var n: int = arg(0);
  var a: int[] = new int[n + 1];
  for (var i: int = 1; i <= n; i = i + 1) {
    async work(a, i);
  }
  print(a[0]);
}
)";

/// The counters one detection leaves in a fresh registry, with or without
/// the check: the oracle leg must not add to any of them.
struct CheckedRun {
  std::string Key;
  uint64_t Checks, Runs, Replays, Nodes, EspChecks, ReplayMs;
};

CheckedRun detectCounted(ParsedProgram &P, EspBagsDetector::Mode Mode,
                         const char *Check, const trace::InputTrace *T) {
  EnvVar E("TDR_BACKEND_CHECK", Check);
  obs::MetricsRegistry Reg;
  obs::ScopedMetrics Scope(Reg);
  ExecOptions Exec;
  Exec.Args = {5};
  Detection D = T ? detectRaces(*P.Prog, Mode, *T, trace::ReplayPlan())
                  : detectRaces(*P.Prog, Mode, Exec);
  EXPECT_TRUE(D.ok()) << D.Exec.Error;
  return {renderRaceReportKey(D.Report),
          Reg.counterValue("detect.backend_checks"),
          Reg.counterValue("detect.runs"),
          Reg.counterValue("detect.replays"),
          Reg.counterValue("dpst.nodes"),
          Reg.counterValue("espbags.checks"),
          Reg.histogram("trace.replay_ms").snapshot().Count};
}

void expectOffTheBooks(const CheckedRun &Checked, const CheckedRun &Plain) {
  EXPECT_EQ(Checked.Checks, 1u);
  EXPECT_EQ(Plain.Checks, 0u);
  EXPECT_EQ(Checked.Key, Plain.Key);
  EXPECT_EQ(Checked.Runs, Plain.Runs);
  EXPECT_EQ(Checked.Replays, Plain.Replays);
  EXPECT_EQ(Checked.Nodes, Plain.Nodes);
  EXPECT_EQ(Checked.EspChecks, Plain.EspChecks);
  EXPECT_EQ(Checked.ReplayMs, Plain.ReplayMs);
}

TEST(BackendCheck, FreshDetectionIsCheckedAgainstTheOracle) {
  ParsedProgram P = parseAndCheck(RacySource);
  ASSERT_TRUE(P.ok()) << P.errors();
  for (EspBagsDetector::Mode Mode :
       {EspBagsDetector::Mode::MRW, EspBagsDetector::Mode::SRW}) {
    CheckedRun Checked = detectCounted(P, Mode, "1", nullptr);
    CheckedRun Plain = detectCounted(P, Mode, nullptr, nullptr);
    expectOffTheBooks(Checked, Plain);
    EXPECT_EQ(Checked.Runs, 1u);
    EXPECT_EQ(Checked.ReplayMs, 0u);
  }
}

TEST(BackendCheck, ReplayedDetectionIsCheckedAgainstTheOracle) {
  ParsedProgram P = parseAndCheck(RacySource);
  ASSERT_TRUE(P.ok()) << P.errors();
  trace::InputTrace T;
  trace::RecorderMonitor Recorder(T.Log);
  ExecOptions Exec;
  Exec.Args = {5};
  Exec.Monitor = &Recorder;
  T.Exec = runProgram(*P.Prog, std::move(Exec));
  Recorder.flush();
  ASSERT_TRUE(T.Exec.Ok) << T.Exec.Error;

  for (EspBagsDetector::Mode Mode :
       {EspBagsDetector::Mode::MRW, EspBagsDetector::Mode::SRW}) {
    CheckedRun Checked = detectCounted(P, Mode, "1", &T);
    CheckedRun Plain = detectCounted(P, Mode, nullptr, &T);
    expectOffTheBooks(Checked, Plain);
    EXPECT_EQ(Checked.Replays, 1u);
    EXPECT_EQ(Checked.Key, detectCounted(P, Mode, nullptr, nullptr).Key);
  }
}

TEST(BackendCheck, ZeroAndUnsetDisableTheCheck) {
  ParsedProgram P = parseAndCheck(RacySource);
  ASSERT_TRUE(P.ok()) << P.errors();
  ExecOptions Exec;
  Exec.Args = {3};
  for (const char *Off : {static_cast<const char *>(nullptr), "0"}) {
    EnvVar E("TDR_BACKEND_CHECK", Off);
    EXPECT_FALSE(backendCheckEnv());
    obs::MetricsRegistry Reg;
    obs::ScopedMetrics Scope(Reg);
    Detection D = detectRaces(*P.Prog, EspBagsDetector::Mode::MRW, Exec);
    ASSERT_TRUE(D.ok());
    EXPECT_EQ(Reg.counterValue("detect.backend_checks"), 0u);
  }
  EnvVar E("TDR_BACKEND_CHECK", "1");
  EXPECT_TRUE(backendCheckEnv());
}

TEST(BackendCheck, WholeRepairRunsCheckedInBothModes) {
  // End-to-end: a full (replaying) repair under TDR_BACKEND_CHECK still
  // succeeds and produces the same program as without the check — every
  // detection along the way was checked against the oracle.
  for (EspBagsDetector::Mode Mode :
       {EspBagsDetector::Mode::MRW, EspBagsDetector::Mode::SRW}) {
    RepairOptions Opts;
    Opts.Mode = Mode;
    Opts.Exec.Args = {5};
    std::string Plain, Checked;
    {
      EnvVar E("TDR_BACKEND_CHECK", nullptr);
      ASSERT_TRUE(repairSource(RacySource, Plain, Opts).Success);
    }
    EnvVar E("TDR_BACKEND_CHECK", "1");
    obs::MetricsRegistry Reg;
    obs::ScopedMetrics Scope(Reg);
    RepairResult R = repairSource(RacySource, Checked, Opts);
    ASSERT_TRUE(R.Success) << R.Error;
    EXPECT_GE(Reg.counterValue("detect.backend_checks"),
              static_cast<uint64_t>(R.Stats.Iterations));
    EXPECT_EQ(Checked, Plain);
  }
}

} // namespace
