//===- trace_replay_test.cpp - Record/replay trace tests ------------------===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
// Record-once / replay-many (src/trace): the event stream recorded on the
// first interpretation of an input, replayed through the edit map, must be
// indistinguishable from a fresh interpretation of the edited program —
// that is the contract the whole replay-backed repair loop rests on.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "RandomProgram.h"
#include "ast/Transforms.h"
#include "race/Detect.h"
#include "repair/MultiInput.h"
#include "repair/RepairDriver.h"
#include "support/StringUtils.h"
#include "trace/Replay.h"

#include <string>
#include <unordered_map>
#include <vector>

using namespace tdr;
using namespace tdr::test;

namespace {

/// Renders the full monitor event stream as text, numbering every distinct
/// pointer by first appearance. Two executions that emit identical event
/// streams (same kinds, same order, same pointer-identity pattern) render
/// identically, and a mismatch diffs readably. Work units are summed
/// across runs with no other event in between — the canonical form
/// RecorderMonitor stores — so fresh and replayed streams stay comparable.
class StreamPrinter final : public ExecMonitor {
public:
  void onAsyncEnter(const AsyncStmt *S, const Stmt *O) override {
    flushWork();
    Out += strFormat("async+ %d %d\n", id(S), id(O));
  }
  void onAsyncExit(const AsyncStmt *S) override {
    flushWork();
    Out += strFormat("async- %d\n", id(S));
  }
  void onFinishEnter(const FinishStmt *S, const Stmt *O) override {
    flushWork();
    Out += strFormat("finish+ %d %d\n", id(S), id(O));
  }
  void onFinishExit(const FinishStmt *S) override {
    flushWork();
    Out += strFormat("finish- %d\n", id(S));
  }
  void onScopeEnter(ScopeKind K, const Stmt *O, const BlockStmt *B,
                    const FuncDecl *F) override {
    flushWork();
    Out += strFormat("scope+ %d %d %d %d\n", static_cast<int>(K), id(O),
                     id(B), id(F));
  }
  void onScopeExit() override {
    flushWork();
    Out += "scope-\n";
  }
  void onStepPoint(const Stmt *O) override {
    flushWork();
    Out += strFormat("step %d\n", id(O));
  }
  void onWork(uint64_t U) override { PendingWork += U; }
  void onRead(MemLoc L) override {
    flushWork();
    Out += "read " + L.str() + "\n";
  }
  void onWrite(MemLoc L) override {
    flushWork();
    Out += "write " + L.str() + "\n";
  }

  std::string take() {
    flushWork();
    return Out;
  }

  std::string Out;

private:
  void flushWork() {
    if (!PendingWork)
      return;
    Out += strFormat("work %llu\n", static_cast<unsigned long long>(PendingWork));
    PendingWork = 0;
  }

  int id(const void *P) {
    if (!P)
      return -1;
    auto It = Ids.try_emplace(P, static_cast<int>(Ids.size())).first;
    return It->second;
  }
  std::unordered_map<const void *, int> Ids;
  uint64_t PendingWork = 0;
};

/// Records one interpretation of \p P.
trace::InputTrace record(Program &P, std::vector<int64_t> Args = {}) {
  trace::InputTrace T;
  trace::RecorderMonitor Rec(T.Log);
  ExecOptions E;
  E.Args = std::move(Args);
  E.Monitor = &Rec;
  T.Exec = runProgram(P, E);
  Rec.flush();
  return T;
}

/// The event stream a fresh interpretation of \p P emits.
std::string freshStream(Program &P, std::vector<int64_t> Args = {}) {
  StreamPrinter SP;
  ExecOptions E;
  E.Args = std::move(Args);
  E.Monitor = &SP;
  runProgram(P, E);
  return SP.take();
}

/// The event stream replaying \p T against the current AST emits.
std::string replayStream(const trace::InputTrace &T, const Program &P,
                         const FinishEditMap &Edits) {
  trace::ReplayPlan Plan = trace::buildReplayPlan(P, Edits);
  StreamPrinter SP;
  trace::replayEvents(T.Log, Plan, SP);
  return SP.take();
}

const char *TwoAsyncs = R"(
var X: int = 0;
var Y: int = 0;
func main() {
  async { X = 1; }
  X = 2;
  async { Y = 1; }
  Y = 2;
  print(X + Y);
}
)";

TEST(TraceReplay, VerbatimWithoutEdits) {
  ParsedProgram P = parseAndCheck(TwoAsyncs);
  ASSERT_TRUE(P.ok()) << P.errors();
  trace::InputTrace T = record(*P.Prog);
  ASSERT_TRUE(T.Exec.Ok);
  EXPECT_FALSE(T.Log.empty());
  FinishEditMap NoEdits;
  EXPECT_EQ(replayStream(T, *P.Prog, NoEdits), freshStream(*P.Prog));
}

TEST(TraceReplay, SingleStatementBlockWrap) {
  ParsedProgram P = parseAndCheck(TwoAsyncs);
  ASSERT_TRUE(P.ok()) << P.errors();
  trace::InputTrace T = record(*P.Prog);

  // Wrap just the first async: single-statement wrap, no synthesized body
  // block — the replayer takes the owner-remap path.
  BlockStmt *Body = P.Prog->mainFunc()->body();
  FinishEditMap Edits;
  FinishStmt *F = wrapInFinish(*P.Ctx, Body, 0, 0, &Edits);
  ASSERT_NE(F, nullptr);
  ASSERT_EQ(Edits.edits().size(), 1u);
  EXPECT_EQ(Edits.edits()[0].Finish, F);
  EXPECT_EQ(Edits.edits()[0].NewBody, nullptr);
  EXPECT_EQ(Edits.edits()[0].First, Edits.edits()[0].Last);
  EXPECT_TRUE(Edits.isNewFinish(F));

  EXPECT_EQ(replayStream(T, *P.Prog, Edits), freshStream(*P.Prog));
}

TEST(TraceReplay, AdjacentAndNestedBlockWraps) {
  ParsedProgram P = parseAndCheck(TwoAsyncs);
  ASSERT_TRUE(P.ok()) << P.errors();
  trace::InputTrace T = record(*P.Prog);

  BlockStmt *Body = P.Prog->mainFunc()->body();
  FinishEditMap Edits;
  // First wrap: [async X; X = 2] — multi-statement, synthesized body.
  FinishStmt *F1 = wrapInFinish(*P.Ctx, Body, 0, 1, &Edits);
  ASSERT_NE(F1, nullptr);
  EXPECT_NE(Edits.edits()[0].NewBody, nullptr);
  EXPECT_TRUE(Edits.isNewBlock(Edits.edits()[0].NewBody));
  EXPECT_EQ(replayStream(T, *P.Prog, Edits), freshStream(*P.Prog));

  // Adjacent wrap: [async Y; Y = 2] right behind the first finish.
  FinishStmt *F2 = wrapInFinish(*P.Ctx, Body, 1, 2, &Edits);
  ASSERT_NE(F2, nullptr);
  EXPECT_EQ(replayStream(T, *P.Prog, Edits), freshStream(*P.Prog));

  // Nested wrap: both finishes under one outer finish.
  FinishStmt *F3 = wrapInFinish(*P.Ctx, Body, 0, 1, &Edits);
  ASSERT_NE(F3, nullptr);
  ASSERT_EQ(Edits.edits().size(), 3u);
  EXPECT_EQ(replayStream(T, *P.Prog, Edits), freshStream(*P.Prog));
}

TEST(TraceReplay, WrapsInsideLoopsAndCalls) {
  const char *Src = R"(
var A: int[];
func work(i: int) {
  async { A[i] = i; }
  A[0] = A[0] + 1;
}
func main() {
  A = new int[8];
  for (var i: int = 0; i < 4; i = i + 1) {
    work(i);
  }
  print(A[0]);
}
)";
  ParsedProgram P = parseAndCheck(Src);
  ASSERT_TRUE(P.ok()) << P.errors();
  trace::InputTrace T = record(*P.Prog);
  ASSERT_TRUE(T.Exec.Ok) << T.Exec.Error;

  // Wrap the async inside `work` — the wrap re-fires on every dynamic call
  // frame during replay, like StaticPlacer replication does.
  BlockStmt *WorkBody = P.Prog->findFunc("work")->body();
  FinishEditMap Edits;
  wrapInFinish(*P.Ctx, WorkBody, 0, 0, &Edits);
  EXPECT_EQ(replayStream(T, *P.Prog, Edits), freshStream(*P.Prog));

  // And wrap the whole call statement range inside the loop body too.
  wrapInFinish(*P.Ctx, WorkBody, 0, 1, &Edits);
  EXPECT_EQ(replayStream(T, *P.Prog, Edits), freshStream(*P.Prog));
}

TEST(TraceReplay, RepairedProgramsMatchFreshDetection) {
  // The end-to-end differential the replay design is judged by: repair
  // random racy programs with ReplayCheck on — every replayed detection is
  // compared byte-for-byte against a fresh interpretation, across all
  // iterations and both detector modes — then cross-check the final state
  // with the Theorem-1 oracle, replayed and fresh.
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    RandomProgramGen Gen(Seed);
    std::string Source = Gen.generate();
    for (EspBagsDetector::Mode Mode :
         {EspBagsDetector::Mode::MRW, EspBagsDetector::Mode::SRW}) {
      ParsedProgram P = parseAndCheck(Source);
      ASSERT_TRUE(P.ok()) << P.errors();
      stripFinishes(*P.Prog);

      trace::TraceStore Store;
      RepairOptions Opts;
      Opts.Mode = Mode;
      Opts.ReplayCheck = true;
      Opts.Store = &Store;
      RepairResult R = repairProgram(*P.Prog, *P.Ctx, Opts);
      // Repair may legitimately fail (infeasible placement), but never
      // with a replay divergence.
      EXPECT_EQ(R.Error.find("mismatch"), std::string::npos)
          << "seed " << Seed << " mode " << static_cast<int>(Mode) << ": "
          << R.Error;
      if (R.Success) {
        EXPECT_EQ(R.Stats.Interpretations, 1u) << "seed " << Seed;
      }

      const trace::TraceEntry *Entry = Store.find(0);
      ASSERT_NE(Entry, nullptr);
      ASSERT_TRUE(Entry->Recorded);
      trace::ReplayPlan Plan = trace::buildReplayPlan(*P.Prog, Entry->Edits);
      Detection Replayed = detectRacesOracle(*P.Prog, Entry->Trace, Plan);
      Detection Fresh = detectRacesOracle(*P.Prog);
      EXPECT_EQ(renderRaceReportKey(Replayed.Report),
                renderRaceReportKey(Fresh.Report))
          << "oracle diverged at seed " << Seed;
    }
  }
}

TEST(TraceReplay, ReplayCountsInStats) {
  ParsedProgram P = parseAndCheck(TwoAsyncs);
  ASSERT_TRUE(P.ok());
  RepairResult R = repairProgram(*P.Prog, *P.Ctx, RepairOptions());
  ASSERT_TRUE(R.Success) << R.Error;
  // Racy program: at least one repairing run plus one verifying run, and
  // only the first interpreted.
  ASSERT_GE(R.Stats.Iterations, 2u);
  EXPECT_EQ(R.Stats.Interpretations, 1u);
  EXPECT_EQ(R.Stats.Replays, R.Stats.Iterations - 1);
}

TEST(TraceReplay, NoReplayOptionInterpretsEveryIteration) {
  ParsedProgram P = parseAndCheck(TwoAsyncs);
  ASSERT_TRUE(P.ok());
  RepairOptions Opts;
  Opts.UseReplay = false;
  RepairResult R = repairProgram(*P.Prog, *P.Ctx, Opts);
  ASSERT_TRUE(R.Success) << R.Error;
  EXPECT_EQ(R.Stats.Replays, 0u);
  EXPECT_EQ(R.Stats.Interpretations, R.Stats.Iterations);
}

TEST(TraceReplay, ZeroMaxIterationsIsAConfigurationError) {
  // Regression: this used to fall straight through the repair loop and
  // misreport race-free programs as "races remained after 0 repair
  // iterations".
  ParsedProgram P = parseAndCheck("func main() { print(1); }");
  ASSERT_TRUE(P.ok());
  RepairOptions Opts;
  Opts.MaxIterations = 0;
  RepairResult R = repairProgram(*P.Prog, *P.Ctx, Opts);
  EXPECT_FALSE(R.Success);
  EXPECT_NE(R.Error.find("MaxIterations"), std::string::npos) << R.Error;
  EXPECT_EQ(R.Error.find("races remained"), std::string::npos) << R.Error;

  // The same program with one iteration is (correctly) race free.
  Opts.MaxIterations = 1;
  RepairResult R1 = repairProgram(*P.Prog, *P.Ctx, Opts);
  EXPECT_TRUE(R1.Success) << R1.Error;
}

TEST(TraceReplay, CoverageFromRecordedLogsMatchesFreshRuns) {
  const char *Src = R"(
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
  ParsedProgram P = parseAndCheck(Src);
  ASSERT_TRUE(P.ok());
  std::vector<ExecOptions> Inputs(2);
  Inputs[0].Args = {5};
  Inputs[1].Args = {20};

  trace::TraceStore Store;
  MultiRepairResult R = repairProgramForInputs(
      *P.Prog, *P.Ctx, Inputs, EspBagsDetector::Mode::MRW, &Store);
  ASSERT_TRUE(R.Success) << R.Error;
  ASSERT_EQ(Store.numEntries(), 2u);

  CoverageReport FromLogs = analyzeTestCoverage(*P.Prog, Inputs, &Store);
  CoverageReport FromRuns = analyzeTestCoverage(*P.Prog, Inputs);
  ASSERT_EQ(FromLogs.Sites.size(), FromRuns.Sites.size());
  for (size_t S = 0; S != FromLogs.Sites.size(); ++S) {
    EXPECT_EQ(FromLogs.Sites[S].Site, FromRuns.Sites[S].Site);
    EXPECT_EQ(FromLogs.Sites[S].InstancesPerInput,
              FromRuns.Sites[S].InstancesPerInput);
  }
  EXPECT_EQ(FromLogs.NumExercised, FromRuns.NumExercised);
  EXPECT_EQ(FromLogs.NumUnexercised, FromRuns.NumUnexercised);
  EXPECT_TRUE(FromLogs.FailedInputs.empty());
}

TEST(TraceReplay, CoverageReportsRecordedFailures) {
  // Input 0 crashes (out-of-bounds); its recorded failure must surface in
  // FailedInputs exactly like a fresh run's would.
  const char *Src = R"(
var A: int[];
func main() {
  A = new int[4];
  A[arg(0)] = 1;
  async { A[0] = 2; }
  print(A[0]);
}
)";
  ParsedProgram P = parseAndCheck(Src);
  ASSERT_TRUE(P.ok());
  std::vector<ExecOptions> Inputs(2);
  Inputs[0].Args = {99}; // out of bounds
  Inputs[1].Args = {1};

  trace::TraceStore Store;
  MultiRepairResult R = repairProgramForInputs(
      *P.Prog, *P.Ctx, Inputs, EspBagsDetector::Mode::MRW, &Store);
  EXPECT_FALSE(R.Success); // input 0 fails at run time

  CoverageReport FromLogs = analyzeTestCoverage(*P.Prog, Inputs, &Store);
  CoverageReport FromRuns = analyzeTestCoverage(*P.Prog, Inputs);
  ASSERT_EQ(FromLogs.FailedInputs.size(), 1u);
  ASSERT_EQ(FromRuns.FailedInputs.size(), 1u);
  EXPECT_EQ(FromLogs.FailedInputs[0].Index, 0u);
  EXPECT_EQ(FromLogs.FailedInputs[0].Error, FromRuns.FailedInputs[0].Error);
}

//===----------------------------------------------------------------------===//
// Out-of-core event logs (TDR_LOG_SPILL / setSpillThreshold)
//===----------------------------------------------------------------------===//

/// Enough iterations to fill a dozen-plus 2048-event chunks, so a small
/// spill threshold genuinely migrates a prefix to disk.
const char *ManyEvents = R"(
var A: int[];
func main() {
  A = new int[64];
  for (var i: int = 0; i < 3000; i = i + 1) {
    A[i % 64] = A[(i + 1) % 64] + 1;
    async { A[(i + 7) % 64] = i; }
  }
  print(A[0]);
}
)";

/// Records one interpretation into a log with the given spill threshold
/// (0 = fully resident).
trace::InputTrace recordWithThreshold(Program &P, size_t Threshold) {
  trace::InputTrace T;
  T.Log.setSpillThreshold(Threshold);
  trace::RecorderMonitor Rec(T.Log);
  ExecOptions E;
  E.Monitor = &Rec;
  T.Exec = runProgram(P, E);
  Rec.flush();
  return T;
}

TEST(TraceSpill, SpilledLogStreamsIdenticallyToResident) {
  ParsedProgram P = parseAndCheck(ManyEvents);
  ASSERT_TRUE(P.ok()) << P.errors();

  trace::InputTrace Resident = recordWithThreshold(*P.Prog, 0);
  ASSERT_TRUE(Resident.Exec.Ok) << Resident.Exec.Error;
  EXPECT_FALSE(Resident.Log.spilled());

  size_t Threshold = 2 * trace::EventLog::ChunkBytes;
  trace::InputTrace Spilled = recordWithThreshold(*P.Prog, Threshold);
  ASSERT_TRUE(Spilled.Exec.Ok) << Spilled.Exec.Error;
  ASSERT_TRUE(Spilled.Log.spilled());
  EXPECT_EQ(Spilled.Log.size(), Resident.Log.size());
  EXPECT_GT(Spilled.Log.bytesSpilled(), 0u);
  // The resident window stays bounded: at most the threshold plus the
  // chunk being filled (spilling happens at chunk boundaries).
  EXPECT_LE(Spilled.Log.bytesResident(),
            Threshold + trace::EventLog::ChunkBytes);
  EXPECT_LT(Spilled.Log.bytesResident(), Spilled.Log.bytesReserved());

  // The replayed stream through the spilled log is byte-identical to the
  // resident one and to a fresh interpretation.
  FinishEditMap NoEdits;
  std::string Fresh = freshStream(*P.Prog);
  EXPECT_EQ(replayStream(Spilled, *P.Prog, NoEdits), Fresh);
  EXPECT_EQ(replayStream(Resident, *P.Prog, NoEdits), Fresh);
}

TEST(TraceSpill, SpilledReplayDetectionMatchesFresh) {
  ParsedProgram P = parseAndCheck(ManyEvents);
  ASSERT_TRUE(P.ok()) << P.errors();
  trace::InputTrace T =
      recordWithThreshold(*P.Prog, 2 * trace::EventLog::ChunkBytes);
  ASSERT_TRUE(T.Exec.Ok) << T.Exec.Error;
  ASSERT_TRUE(T.Log.spilled());

  FinishEditMap NoEdits;
  trace::ReplayPlan Plan = trace::buildReplayPlan(*P.Prog, NoEdits);
  Detection Replayed = detectRaces(*P.Prog, DetectOptions(), T, Plan);
  Detection Fresh = detectRaces(*P.Prog, DetectOptions());
  ASSERT_TRUE(Fresh.ok()) << Fresh.Exec.Error;
  EXPECT_EQ(renderRaceReportKey(Replayed.Report),
            renderRaceReportKey(Fresh.Report));
}

TEST(TraceSpill, ClearDropsSpillAndLogIsReusable) {
  ParsedProgram P = parseAndCheck(ManyEvents);
  ASSERT_TRUE(P.ok()) << P.errors();
  trace::InputTrace T =
      recordWithThreshold(*P.Prog, 2 * trace::EventLog::ChunkBytes);
  ASSERT_TRUE(T.Log.spilled());

  T.Log.clear();
  EXPECT_TRUE(T.Log.empty());
  EXPECT_FALSE(T.Log.spilled());
  EXPECT_EQ(T.Log.bytesReserved(), 0u);
  EXPECT_EQ(T.Log.spillThreshold(), 2 * trace::EventLog::ChunkBytes);

  // Re-record into the same log; the retained threshold spills again and
  // the stream still matches a fresh interpretation.
  {
    trace::RecorderMonitor Rec(T.Log);
    ExecOptions E;
    E.Monitor = &Rec;
    T.Exec = runProgram(*P.Prog, E);
    Rec.flush();
  }
  ASSERT_TRUE(T.Exec.Ok);
  EXPECT_TRUE(T.Log.spilled());
  FinishEditMap NoEdits;
  EXPECT_EQ(replayStream(T, *P.Prog, NoEdits), freshStream(*P.Prog));
}

TEST(TraceReplay, StoreBroadcastsEditsToAllRecordedEntries) {
  ParsedProgram P = parseAndCheck(TwoAsyncs);
  ASSERT_TRUE(P.ok());
  trace::TraceStore Store;
  Store.entry(0).Trace = record(*P.Prog);
  Store.entry(0).Recorded = true;
  Store.entry(1); // created but never recorded

  BlockStmt *Body = P.Prog->mainFunc()->body();
  FinishStmt *F = wrapInFinish(*P.Ctx, Body, 0, 0, &Store);
  ASSERT_NE(F, nullptr);
  EXPECT_TRUE(Store.find(0)->Edits.isNewFinish(F));
  EXPECT_TRUE(Store.find(1)->Edits.empty()); // unrecorded entries untouched
}

} // namespace
