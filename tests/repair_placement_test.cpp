//===- repair_placement_test.cpp - Static placement specifics -------------===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
// Where exactly do the synthesized finishes land? These tests pin the
// paper's motivating placements: quicksort gets its finish around the
// *call* in main (Figure 2), not around the recursive asyncs; Figure 5's
// scope constraint is honored; pre-synchronized programs are repaired
// incrementally and race-free programs are left untouched.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "ast/AstPrinter.h"
#include "ast/Transforms.h"
#include "obs/Metrics.h"
#include "race/Detect.h"
#include "repair/DepGraph.h"
#include "repair/RepairDriver.h"

using namespace tdr;
using namespace tdr::test;

namespace {

/// Repairs and returns the printed program (empty on failure).
std::string repairToSource(const std::string &Src,
                           std::vector<int64_t> Args = {}) {
  RepairOptions Opts;
  Opts.Exec.Args = std::move(Args);
  std::string Out;
  RepairResult R = repairSource(Src, Out, Opts);
  if (!R.Success)
    return std::string();
  return Out;
}

TEST(StaticPlacement, QuicksortFinishGoesAroundTheCallInMain) {
  // Paper Figure 2: "inserting a finish around line 11 is better because
  // it also prevents data races, yet yields more parallelism than a
  // finish statement around lines 6 and 7."
  const char *Src = R"(
var A: int[];
func partition(lo: int, hi: int, out: int[]) {
  var pivot: int = A[(lo + hi) / 2];
  var i: int = lo;
  var j: int = hi;
  while (i <= j) {
    while (A[i] < pivot) { i = i + 1; }
    while (A[j] > pivot) { j = j - 1; }
    if (i <= j) {
      var t: int = A[i]; A[i] = A[j]; A[j] = t;
      i = i + 1; j = j - 1;
    }
  }
  out[0] = i;
  out[1] = j;
}
func quicksort(m: int, n: int) {
  if (m < n) {
    var p: int[] = new int[2];
    partition(m, n, p);
    async quicksort(m, p[1]);
    async quicksort(p[0], n);
  }
}
func main() {
  var n: int = arg(0);
  A = new int[n];
  randSeed(3);
  for (var i: int = 0; i < n; i = i + 1) { A[i] = randInt(1000); }
  quicksort(0, n - 1);
  var ok: bool = true;
  for (var i: int = 1; i < n; i = i + 1) {
    if (A[i - 1] > A[i]) { ok = false; }
  }
  print(ok);
}
)";
  // Reproduction nuance: the paper prefers the finish around the call in
  // main over `finish { async; async; }` inside quicksort, but the two
  // have *identical* critical path length (the parent does nothing after
  // spawning, so a per-level join delays nothing). Our DP therefore may
  // tie-break to either; what the paper actually claims — one finish,
  // race freedom, parallelism equal to the line-11 placement — is what we
  // assert.
  ParsedProgram Expert = parseAndCheck(Src);
  ASSERT_TRUE(Expert.ok());
  // The paper's placement: wrap the quicksort call (statement 4 of main).
  wrapInFinish(*Expert.Ctx, Expert.Prog->mainFunc()->body(), 4, 4);
  ExecOptions Exec;
  Exec.Args = {128};
  Detection ExpertDet =
      detectRaces(*Expert.Prog, EspBagsDetector::Mode::MRW, Exec);
  ASSERT_TRUE(ExpertDet.Report.Pairs.empty())
      << printProgram(*Expert.Prog);
  uint64_t ExpertCpl = ExpertDet.Tree->subtreeCpl(ExpertDet.Tree->root());

  ParsedProgram P = parseAndCheck(Src);
  ASSERT_TRUE(P.ok());
  RepairOptions Opts;
  Opts.Exec = Exec;
  RepairResult R = repairProgram(*P.Prog, *P.Ctx, Opts);
  ASSERT_TRUE(R.Success) << R.Error;
  EXPECT_EQ(R.Stats.FinishesInserted, 1u) << printProgram(*P.Prog);

  Detection D = detectRaces(*P.Prog, EspBagsDetector::Mode::MRW, Exec);
  EXPECT_TRUE(D.Report.Pairs.empty());
  uint64_t RepairCpl = D.Tree->subtreeCpl(D.Tree->root());
  EXPECT_LE(RepairCpl, ExpertCpl + ExpertCpl / 100)
      << printProgram(*P.Prog);
}

TEST(StaticPlacement, Figure5ScopeConstraintRespected) {
  // Paper Figure 5: the races A2 -> A4 and A3 -> A4 cannot be fixed by a
  // finish enclosing A2 and A3 but not A1 — such a program is not well
  // formed. Valid repairs either wrap A2 and A3 separately or wrap the
  // whole if plus A3.
  const char *Src = R"(
var X: int = 0;
var Y: int = 0;
var Z: int = 0;
func spinA() {
  var s: int = 0;
  for (var i: int = 0; i < 30; i = i + 1) { s = s + i; }
  Z = s;
}
func main() {
  if (arg(0) > 0) {
    async spinA();
    async { X = 1; }
  }
  async { Y = 2; }
  var w: int = X + Y;
  print(w);
}
)";
  std::string Out = repairToSource(Src, {1});
  ASSERT_FALSE(Out.empty());

  // The repaired program is race free and parses; moreover no finish can
  // start inside the if and end outside it: re-parse and verify every
  // finish body is entirely inside or entirely outside the if statement.
  ParsedProgram P = parseAndCheck(Out);
  ASSERT_TRUE(P.ok()) << P.errors() << Out;
  Detection D = detectRaces(*P.Prog, EspBagsDetector::Mode::MRW,
                            [] {
                              ExecOptions E;
                              E.Args = {1};
                              return E;
                            }());
  EXPECT_TRUE(D.Report.Pairs.empty()) << Out;
  EXPECT_GE(collectFinishes(*P.Prog).size(), 1u);
}

TEST(StaticPlacement, PartiallySynchronizedProgramKeepsUserFinishes) {
  // "for the sake of generality the program may already contain some
  // finish statements inserted by the programmer" (paper §1).
  const char *Src = R"(
var A: int[];
var B: int[];
func main() {
  A = new int[4];
  B = new int[4];
  finish {
    async { A[0] = 1; }
    async { A[1] = 2; }
  }
  async { B[0] = A[0]; }
  async { B[1] = A[1]; }
  print(B[0] + B[1]);
}
)";
  std::string Out = repairToSource(Src);
  ASSERT_FALSE(Out.empty());
  // The user finish survives, and new synchronization covers the B writes
  // before the print.
  ParsedProgram P = parseAndCheck(Out);
  ASSERT_TRUE(P.ok());
  EXPECT_GE(collectFinishes(*P.Prog).size(), 2u) << Out;
  Detection D = detectRaces(*P.Prog);
  EXPECT_TRUE(D.Report.Pairs.empty()) << Out;
  EXPECT_EQ(D.Exec.Output, "3\n");
}

TEST(StaticPlacement, RaceFreeProgramIsUntouched) {
  const char *Src = R"(
var A: int[];
func main() {
  A = new int[2];
  finish {
    async { A[0] = 1; }
    async { A[1] = 2; }
  }
  print(A[0] + A[1]);
}
)";
  ParsedProgram P = parseAndCheck(Src);
  ASSERT_TRUE(P.ok());
  unsigned FinishesBefore =
      static_cast<unsigned>(collectFinishes(*P.Prog).size());
  RepairOptions Opts;
  RepairResult R = repairProgram(*P.Prog, *P.Ctx, Opts);
  ASSERT_TRUE(R.Success) << R.Error;
  EXPECT_EQ(R.Stats.FinishesInserted, 0u);
  EXPECT_EQ(R.Stats.Iterations, 1u); // one detection confirms race freedom
  EXPECT_EQ(collectFinishes(*P.Prog).size(), FinishesBefore);
}

TEST(StaticPlacement, LoopBodyAsyncGetsFinishAroundTheLoop) {
  // All iterations' asyncs race with the read after the loop; the static
  // repair must wrap the whole loop (or equivalently land before the
  // read), not per-iteration (which would serialize).
  const char *Src = R"(
var A: int[];
func work(i: int) {
  var s: int = 0;
  for (var k: int = 0; k < 40; k = k + 1) { s = s + k; }
  A[i] = s;
}
func main() {
  A = new int[8];
  for (var i: int = 0; i < 8; i = i + 1) {
    async work(i);
  }
  var sum: int = 0;
  for (var i: int = 0; i < 8; i = i + 1) { sum = sum + A[i]; }
  print(sum);
}
)";
  ParsedProgram P = parseAndCheck(Src);
  ASSERT_TRUE(P.ok());

  // Parallelism reference: the expert fix (finish around the loop).
  ParsedProgram Expert = parseAndCheck(Src);
  BlockStmt *Body = Expert.Prog->mainFunc()->body();
  wrapInFinish(*Expert.Ctx, Body, 1, 1); // wrap the spawning for-loop
  Detection ExpertDet = detectRaces(*Expert.Prog);
  ASSERT_TRUE(ExpertDet.Report.Pairs.empty());
  uint64_t ExpertCpl = ExpertDet.Tree->subtreeCpl(ExpertDet.Tree->root());

  RepairOptions Opts;
  RepairResult R = repairProgram(*P.Prog, *P.Ctx, Opts);
  ASSERT_TRUE(R.Success) << R.Error;
  Detection D = detectRaces(*P.Prog);
  ASSERT_TRUE(D.Report.Pairs.empty());
  uint64_t RepairCpl = D.Tree->subtreeCpl(D.Tree->root());
  EXPECT_LE(RepairCpl, ExpertCpl + ExpertCpl / 20)
      << printProgram(*P.Prog);
}

TEST(StaticPlacement, NonBlockLoopBodyAsyncIsWrappable) {
  // `for (...) async f();` — the async statement is a structured-body
  // slot, not a block member; repair must still find a placement.
  const char *Src = R"(
var A: int[];
func work(i: int) { A[i] = i * 3; }
func main() {
  A = new int[6];
  for (var i: int = 0; i < 6; i = i + 1) async work(i);
  var sum: int = 0;
  for (var i: int = 0; i < 6; i = i + 1) { sum = sum + A[i]; }
  print(sum);
}
)";
  std::string Out = repairToSource(Src);
  ASSERT_FALSE(Out.empty());
  ParsedProgram P = parseAndCheck(Out);
  ASSERT_TRUE(P.ok()) << Out;
  Detection D = detectRaces(*P.Prog);
  EXPECT_TRUE(D.Report.Pairs.empty()) << Out;
  EXPECT_EQ(D.Exec.Output, "45\n");
}

TEST(StaticPlacement, DeclarationsAreNotCapturedAwayFromTheirUses) {
  // Wrapping a range that contains a declaration used later would break
  // scoping; the placer must avoid it and the result must still parse.
  const char *Src = R"(
var X: int = 0;
func main() {
  var a: int = 5;
  async { X = a; }
  var b: int = a + 1;
  print(X + b);
}
)";
  std::string Out = repairToSource(Src);
  ASSERT_FALSE(Out.empty()) << "repair failed";
  ParsedProgram P = parseAndCheck(Out);
  ASSERT_TRUE(P.ok()) << P.errors() << "\n" << Out;
  Detection D = detectRaces(*P.Prog);
  EXPECT_TRUE(D.Report.Pairs.empty()) << Out;
  EXPECT_EQ(D.Exec.Output, "11\n");
}

TEST(StaticPlacement, RecursiveSiteRepairedOnceStatically) {
  // One static finish in fib covers every dynamic recursion instance; the
  // repair must not insert one finish per instance.
  const char *Src = R"(
func fib(ret: int[], n: int) {
  if (n < 2) { ret[0] = n; return; }
  var x: int[] = new int[1];
  var y: int[] = new int[1];
  async fib(x, n - 1);
  async fib(y, n - 2);
  ret[0] = x[0] + y[0];
}
func main() {
  var r: int[] = new int[1];
  fib(r, 12);
  print(r[0]);
}
)";
  ParsedProgram P = parseAndCheck(Src);
  ASSERT_TRUE(P.ok());
  RepairOptions Opts;
  RepairResult R = repairProgram(*P.Prog, *P.Ctx, Opts);
  ASSERT_TRUE(R.Success) << R.Error;
  EXPECT_EQ(R.Stats.FinishesInserted, 1u) << printProgram(*P.Prog);
  Detection D = detectRaces(*P.Prog);
  EXPECT_TRUE(D.Report.Pairs.empty());
  EXPECT_EQ(D.Exec.Output, "144\n");
}

TEST(StaticPlacement, PlacementWorkIsNearLinearInRacesAndEdges) {
  // Phases of asyncs, each updating one W-cell block of A: every async
  // races with the same-block asyncs of all later phases, so each edge
  // carries W races and the one NS-LCA group has many more races than
  // edges. The DP puts one finish around each phase, and all of those
  // ranges map to one static edit (the inner loop): once it is applied,
  // the other ranges resolve no live race. The work after detection (the
  // validity oracle's children and edges, the liveness scan's races) must
  // then stay within c * (N^2 + races + edges) for the group's N vertices,
  // with c = 4; re-scanning every race and edge per range does not.
  const char *Src = R"(
var A: int[];
func main() {
  var phases: int = arg(0);
  var blocks: int = arg(1);
  var w: int = arg(2);
  A = new int[blocks * w];
  for (var k: int = 0; k < phases; k = k + 1) {
    for (var c: int = 0; c < blocks; c = c + 1) {
      async {
        for (var j: int = 0; j < w; j = j + 1) {
          A[c * w + j] = A[c * w + j] + k;
        }
      }
    }
  }
  print(A[0]);
}
)";
  ParsedProgram P = parseAndCheck(Src);
  ASSERT_TRUE(P.ok()) << P.errors();
  ExecOptions Exec;
  Exec.Args = {8, 4, 16};

  Detection D = detectRaces(*P.Prog, EspBagsDetector::Mode::MRW, Exec);
  ASSERT_TRUE(D.ok()) << D.Exec.Error;
  std::vector<DepGroup> Groups = buildDepGroups(*D.Tree, D.Report.Pairs);
  ASSERT_EQ(Groups.size(), 1u);
  const uint64_t N = Groups.front().Nodes.size();
  const uint64_t Races = Groups.front().Races.size();
  const uint64_t Edges = Groups.front().Problem.Edges.size();
  ASSERT_GE(Races, 8 * Edges) << "the group must carry many races per edge";

  obs::MetricsRegistry Reg;
  RepairResult R;
  {
    obs::ScopedMetrics Scope(Reg);
    RepairOptions Opts;
    Opts.Exec = Exec;
    R = repairProgram(*P.Prog, *P.Ctx, Opts);
  }
  ASSERT_TRUE(R.Success) << R.Error;
  EXPECT_EQ(R.Stats.FinishesInserted, 1u) << printProgram(*P.Prog);
  const uint64_t Steps = Reg.counterValue("repair.oracle_steps");
  EXPECT_GT(Steps, 0u);
  EXPECT_LE(Steps, 4 * (N * N + Races + Edges))
      << "N=" << N << " races=" << Races << " edges=" << Edges;
}

} // namespace
