//===- trace_replay_test.cpp - Record/replay trace tests ------------------===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
// The event log (src/trace): a recorded interpretation, replayed, must be
// indistinguishable from a fresh interpretation of the same program — the
// contract the TDR_BACKEND_CHECK differential and the fuzz oracle's
// replay-divergence leg rest on. Also pins the repair loop's detection
// accounting: every run interprets.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "RandomProgram.h"
#include "ast/Transforms.h"
#include "race/Detect.h"
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
  void onFutureEnter(const FutureStmt *S, const Stmt *O,
                     uint32_t Fid) override {
    flushWork();
    Out += strFormat("future+ %d %d %u\n", id(S), id(O), Fid);
  }
  void onFutureExit(const FutureStmt *S) override {
    flushWork();
    Out += strFormat("future- %d\n", id(S));
  }
  void onForce(uint32_t Fid) override {
    flushWork();
    Out += strFormat("force %u\n", Fid);
  }
  void onIsolatedEnter(const IsolatedStmt *S, const Stmt *O) override {
    flushWork();
    Out += strFormat("isolated+ %d %d\n", id(S), id(O));
  }
  void onIsolatedExit(const IsolatedStmt *S) override {
    flushWork();
    Out += strFormat("isolated- %d\n", id(S));
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

/// The event stream replaying \p T emits.
std::string replayStream(const trace::InputTrace &T) {
  StreamPrinter SP;
  trace::replayEvents(T.Log, SP);
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

/// Every event kind: calls, loops, finish, future/force and isolated.
const char *AllConstructs = R"(
var A: int[];
var S: int = 0;
func work(i: int): int {
  A[i] = A[i] + i;
  return A[i];
}
func main() {
  A = new int[8];
  future f = work(1);
  finish {
    for (var i: int = 2; i < 6; i = i + 1) {
      async {
        var v: int = work(i);
        isolated { S = S + v; }
      }
    }
  }
  print(force(f) + S);
}
)";

TEST(TraceReplay, ReplayIsVerbatim) {
  for (const char *Src : {TwoAsyncs, AllConstructs}) {
    ParsedProgram P = parseAndCheck(Src);
    ASSERT_TRUE(P.ok()) << P.errors();
    trace::InputTrace T = record(*P.Prog);
    ASSERT_TRUE(T.Exec.Ok) << T.Exec.Error;
    EXPECT_FALSE(T.Log.empty());
    EXPECT_EQ(replayStream(T), freshStream(*P.Prog)) << Src;
  }
}

TEST(TraceReplay, RepairedProgramsReplayLikeFreshDetection) {
  // Repair random racy programs in both detector modes, then check that
  // the repaired program's recorded stream, replayed, gives ESP-bags and
  // the Theorem-1 oracle the reports a fresh interpretation gives them.
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    RandomProgramGen Gen(Seed);
    std::string Source = Gen.generate();
    for (EspBagsDetector::Mode Mode :
         {EspBagsDetector::Mode::MRW, EspBagsDetector::Mode::SRW}) {
      ParsedProgram P = parseAndCheck(Source);
      ASSERT_TRUE(P.ok()) << P.errors();
      stripFinishes(*P.Prog);

      RepairOptions Opts;
      Opts.Mode = Mode;
      RepairResult R = repairProgram(*P.Prog, *P.Ctx, Opts);
      if (R.Success) {
        EXPECT_EQ(R.Stats.Interpretations, R.Stats.Iterations)
            << "seed " << Seed;
      }

      trace::InputTrace T = record(*P.Prog);
      if (!T.Exec.Ok)
        continue; // work-limit aborts have no complete stream
      Detection Replayed = detectRaces(*P.Prog, Mode, T, trace::ReplayPlan());
      Detection Fresh = detectRaces(*P.Prog, Mode);
      EXPECT_EQ(renderRaceReportKey(Replayed.Report),
                renderRaceReportKey(Fresh.Report))
          << "espbags diverged at seed " << Seed;
      Detection OracleReplayed =
          detectRacesOracle(*P.Prog, T, trace::ReplayPlan());
      Detection OracleFresh = detectRacesOracle(*P.Prog);
      EXPECT_EQ(renderRaceReportKey(OracleReplayed.Report),
                renderRaceReportKey(OracleFresh.Report))
          << "oracle diverged at seed " << Seed;
    }
  }
}

TEST(TraceReplay, EveryRepairIterationInterprets) {
  ParsedProgram P = parseAndCheck(TwoAsyncs);
  ASSERT_TRUE(P.ok());
  RepairResult R = repairProgram(*P.Prog, *P.Ctx, RepairOptions());
  ASSERT_TRUE(R.Success) << R.Error;
  // Racy program: at least one repairing run plus one verifying run.
  ASSERT_GE(R.Stats.Iterations, 2u);
  EXPECT_EQ(R.Stats.Interpretations, R.Stats.Iterations);
  EXPECT_EQ(R.Stats.Replays, 0u);
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

} // namespace
