//===- sched_test.cpp - Computation DAG and schedule simulation tests -----===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//

#include "RandomProgram.h"
#include "TestUtil.h"

#include "dpst/Dpst.h"
#include "interp/Interpreter.h"
#include "sched/Schedule.h"

using namespace tdr;
using namespace tdr::test;

namespace {

struct BuiltTree {
  ParsedProgram P;
  std::unique_ptr<Dpst> Tree;
};

BuiltTree buildTree(const std::string &Src, std::vector<int64_t> Args = {}) {
  BuiltTree B;
  B.P = parseAndCheck(Src);
  EXPECT_TRUE(B.P.ok()) << B.P.errors();
  B.Tree = std::make_unique<Dpst>();
  DpstBuilder Builder(*B.Tree);
  ExecOptions Opts;
  Opts.Args = std::move(Args);
  Opts.Monitor = &Builder;
  ExecResult R = runProgram(*B.P.Prog, Opts);
  EXPECT_TRUE(R.Ok) << R.Error;
  return B;
}

TEST(Sched, HandBuiltDiamondDag) {
  // n0 -> n1, n0 -> n2, n1 -> n3, n2 -> n3; weights 1, 10, 20, 1.
  CompGraph G;
  G.Nodes.resize(4);
  G.Nodes[0].Weight = 1;
  G.Nodes[1].Weight = 10;
  G.Nodes[2].Weight = 20;
  G.Nodes[3].Weight = 1;
  auto AddEdge = [&](uint32_t F, uint32_t T) {
    G.Nodes[F].Succs.push_back(T);
    ++G.Nodes[T].NumPreds;
  };
  AddEdge(0, 1);
  AddEdge(0, 2);
  AddEdge(1, 3);
  AddEdge(2, 3);
  EXPECT_EQ(G.totalWork(), 32u);
  EXPECT_EQ(criticalPathLength(G), 22u);
  EXPECT_EQ(greedySchedule(G, 1), 32u);
  EXPECT_EQ(greedySchedule(G, 2), 22u);
  EXPECT_EQ(greedySchedule(G, 16), 22u);
}

TEST(Sched, GreedyRespectsDependences) {
  // Chain: 3 nodes, any processor count gives the serial time.
  CompGraph G;
  G.Nodes.resize(3);
  for (int I = 0; I != 3; ++I)
    G.Nodes[static_cast<size_t>(I)].Weight = 5;
  G.Nodes[0].Succs.push_back(1);
  G.Nodes[1].Succs.push_back(2);
  G.Nodes[1].NumPreds = 1;
  G.Nodes[2].NumPreds = 1;
  EXPECT_EQ(greedySchedule(G, 4), 15u);
}

TEST(Sched, EmptyGraph) {
  CompGraph G;
  EXPECT_EQ(criticalPathLength(G), 0u);
  EXPECT_EQ(greedySchedule(G, 4), 0u);
}

/// main() spawns work(1000) as a future (or calls it), runs a second
/// work(1000) and combines both. \p Early and \p Late read the first
/// result right after the spawn or after the second call.
std::string futureProgram(const char *Spawn, const char *Early,
                          const char *Late) {
  return std::string(R"(
func work(n: int): int {
  var s: int = 0;
  for (var i: int = 0; i < n; i = i + 1) {
    s = s + i;
  }
  return s;
}
func main() {
  var r: int = 0;
  )") + Spawn + "\n  " + Early + R"(
  var t: int = work(1000);
  )" + Late + R"(
  print(r + t);
}
)";
}

TEST(Sched, FutureBodyIsWorkAndForceJoinsIt) {
  BuiltTree Called =
      buildTree(futureProgram("var c: int = work(1000);", "r = c;", ""));
  BuiltTree Late =
      buildTree(futureProgram("future f = work(1000);", "", "r = force(f);"));
  BuiltTree Early =
      buildTree(futureProgram("future f = work(1000);", "r = force(f);", ""));
  ParallelismStats SC = analyzeDpst(*Called.Tree, 4);
  ParallelismStats SL = analyzeDpst(*Late.Tree, 4);
  ParallelismStats SE = analyzeDpst(*Early.Tree, 4);
  // The future's body is work like the plain call's.
  EXPECT_EQ(SL.T1, SC.T1);
  EXPECT_EQ(SE.T1, SC.T1);
  EXPECT_EQ(SL.T1, Late.Tree->subtreeWork(Late.Tree->root()));
  // Forced late, the future overlaps the second call...
  EXPECT_LT(SL.Tinf, SL.T1);
  EXPECT_GT(2 * SL.Tinf, SL.T1);
  // ...forced right away, the force edge serializes the two calls: only
  // the few units main runs between the spawn and the force overlap it.
  EXPECT_GT(SE.Tinf, SL.Tinf);
  EXPECT_LT(SE.T1 - SE.Tinf, SE.T1 / 100);
  // The recursive S-DPST evaluation models the force joins the same way.
  EXPECT_EQ(SL.Tinf, Late.Tree->subtreeCpl(Late.Tree->root()));
  EXPECT_EQ(SE.Tinf, Early.Tree->subtreeCpl(Early.Tree->root()));
}

TEST(Sched, DpstGraphMatchesStructure) {
  BuiltTree B = buildTree(R"(
var A: int[];
func busy(i: int, n: int) {
  var s: int = 0;
  for (var k: int = 0; k < n; k = k + 1) { s = s + k; }
  A[i] = s;
}
func main() {
  A = new int[3];
  finish {
    async busy(0, 100);
    async busy(1, 100);
    async busy(2, 100);
  }
  print(A[0] + A[1] + A[2]);
}
)");
  CompGraph G = buildCompGraph(*B.Tree);
  ParallelismStats S = analyzeDpst(*B.Tree, 3);
  EXPECT_EQ(S.T1, B.Tree->subtreeWork(B.Tree->root()));
  EXPECT_EQ(S.Tinf, B.Tree->subtreeCpl(B.Tree->root()));
  EXPECT_GT(S.parallelism(), 1.8);
  EXPECT_GE(S.TP, S.Tinf);
  EXPECT_LE(S.TP, S.T1);
}

//===----------------------------------------------------------------------===//
// Properties on random programs
//===----------------------------------------------------------------------===//

class SchedProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SchedProperty, DagCplEqualsRecursiveDpstCpl) {
  // Two independent CPL computations — the recursive S-DPST evaluation and
  // the longest path of the constructed DAG — must agree exactly, also on
  // programs with futures, forces and isolated blocks.
  Rng SeedGen(GetParam());
  for (bool Constructs : {false, true}) {
    for (int Trial = 0; Trial != 20; ++Trial) {
      RandomProgramGen Gen(SeedGen.next());
      if (Constructs)
        Gen.enableConstructs();
      BuiltTree B = buildTree(Gen.generate());
      CompGraph G = buildCompGraph(*B.Tree);
      EXPECT_EQ(criticalPathLength(G), B.Tree->subtreeCpl(B.Tree->root()))
          << "trial " << Trial << (Constructs ? " (constructs)" : "");
      EXPECT_EQ(G.totalWork(), B.Tree->subtreeWork(B.Tree->root()));
    }
  }
}

TEST_P(SchedProperty, GreedyObeysClassicBounds) {
  // max(T1/P, Tinf) <= TP <= T1/P + Tinf (greedy scheduling / Brent).
  Rng SeedGen(GetParam() * 131 + 17);
  for (int Trial = 0; Trial != 20; ++Trial) {
    RandomProgramGen Gen(SeedGen.next());
    BuiltTree B = buildTree(Gen.generate());
    CompGraph G = buildCompGraph(*B.Tree);
    uint64_t T1 = G.totalWork();
    uint64_t Tinf = criticalPathLength(G);
    for (unsigned P : {1u, 2u, 4u, 12u}) {
      uint64_t TP = greedySchedule(G, P);
      EXPECT_GE(TP, Tinf);
      EXPECT_GE(TP, (T1 + P - 1) / P);
      EXPECT_LE(TP, T1 / P + Tinf);
      if (P == 1) {
        EXPECT_EQ(TP, T1);
      }
    }
    // More processors never hurt a greedy schedule of the same graph.
    EXPECT_GE(greedySchedule(G, 2), greedySchedule(G, 4));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedProperty,
                         ::testing::Values(7u, 77u, 777u));

} // namespace
