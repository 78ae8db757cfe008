//===- dpst_test.cpp - S-DPST structure and query tests -------------------===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
// Structure checks on the paper's Fibonacci example (Figure 9), LCA /
// NS-LCA queries (Definitions 3-5), the Theorem-1 parallelism criterion,
// finish-node insertion (Figure 14), the compact layout's interval
// queries against a naive parent-pointer reference, and its byte budget;
// the compact shape's folding rule, pinned steps and node budgets.
//
//===----------------------------------------------------------------------===//

#include "CompactCheck.h"
#include "RandomProgram.h"
#include "TestUtil.h"

#include "ast/Transforms.h"
#include "dpst/Dpst.h"
#include "race/Detect.h"
#include "suite/Benchmarks.h"
#include "suite/Experiment.h"
#include "support/Rng.h"

#include <algorithm>

using namespace tdr;
using namespace tdr::test;

namespace {

/// Builds the S-DPST of a program (no race detection).
struct BuiltTree {
  ParsedProgram P;
  std::unique_ptr<Dpst> Tree;
  ExecResult Exec;
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
  B.Exec = runProgram(*B.P.Prog, Opts);
  EXPECT_TRUE(B.Exec.Ok) << B.Exec.Error;
  return B;
}

/// Collects all step leaves in left-to-right order.
void collectSteps(const Dpst &T, const DpstNode *N,
                  std::vector<const DpstNode *> &Out) {
  if (N->isStep()) {
    Out.push_back(N);
    return;
  }
  for (const DpstNode *C : T.children(N))
    collectSteps(T, C, Out);
}

/// Collects all nodes of a kind.
void collectKind(const Dpst &T, const DpstNode *N, DpstKind K,
                 std::vector<const DpstNode *> &Out) {
  if (N->kind() == K)
    Out.push_back(N);
  for (const DpstNode *C : T.children(N))
    collectKind(T, C, K, Out);
}

TEST(Dpst, SequentialProgramIsOneStepUnderMainScope) {
  BuiltTree B = buildTree(R"(
var X: int = 0;
func main() {
  X = 1;
  X = X + 2;
  print(X);
}
)");
  // Root -> init step? (X's initializer runs as a root-level step) and the
  // main call scope containing one merged step.
  const DpstNode *Root = B.Tree->root();
  ASSERT_TRUE(Root->isRoot());
  std::vector<const DpstNode *> Steps;
  collectSteps(*B.Tree, Root, Steps);
  ASSERT_EQ(Steps.size(), 2u); // global-init step + main body step
  EXPECT_EQ(Steps[1]->parent()->kind(), DpstKind::Scope);
  EXPECT_EQ(Steps[1]->parent()->scopeKind(), ScopeKind::Call);
}

TEST(Dpst, AsyncAndScopeNodesForFibonacci) {
  // The Figure 8/9 program shape (n = 3): each fib call scope contains a
  // step, two asyncs, and a trailing step (the If scope appears on the
  // base-case path).
  BuiltTree B = buildTree(R"(
func fib(ret: int[], n: int) {
  if (n < 2) {
    ret[0] = n;
    return;
  }
  var x: int[] = new int[1];
  var y: int[] = new int[1];
  async fib(x, n - 1);
  async fib(y, n - 2);
  ret[0] = x[0] + y[0];
}
func main() {
  var result: int[] = new int[1];
  async fib(result, 3);
  print(result[0]);
}
)");
  std::vector<const DpstNode *> Asyncs;
  collectKind(*B.Tree, B.Tree->root(), DpstKind::Async, Asyncs);
  // fib(3): asyncs = 1 (main) + 2 (n=3) + 2 (n=2) = 5.
  EXPECT_EQ(Asyncs.size(), 5u);

  std::vector<const DpstNode *> Scopes;
  collectKind(*B.Tree, B.Tree->root(), DpstKind::Scope, Scopes);
  // Call scopes: main, fib(3), fib(2), fib(1) x2, fib(0); block scopes for
  // the taken if-branches (n<2 three times).
  unsigned CallScopes = 0, BlockScopes = 0;
  for (const DpstNode *S : Scopes)
    if (S->scopeKind() == ScopeKind::Call)
      ++CallScopes;
    else
      ++BlockScopes;
  EXPECT_EQ(CallScopes, 6u);
  EXPECT_EQ(BlockScopes, 3u);
}

TEST(Dpst, LcaAndNsLcaSkipScopeChains) {
  BuiltTree B = buildTree(R"(
var X: int = 0;
func main() {
  if (true) {
    async { X = 1; }
  }
  print(X);
}
)");
  std::vector<const DpstNode *> Asyncs;
  collectKind(*B.Tree, B.Tree->root(), DpstKind::Async, Asyncs);
  ASSERT_EQ(Asyncs.size(), 1u);
  std::vector<const DpstNode *> Steps;
  collectSteps(*B.Tree, Asyncs[0], Steps);
  ASSERT_EQ(Steps.size(), 1u);
  const DpstNode *WriteStep = Steps[0];

  // The print step is the last step overall.
  std::vector<const DpstNode *> AllSteps;
  collectSteps(*B.Tree, B.Tree->root(), AllSteps);
  const DpstNode *ReadStep = AllSteps.back();

  const DpstNode *L = B.Tree->lca(WriteStep, ReadStep);
  EXPECT_TRUE(L->isScope()); // the main call scope
  const DpstNode *NL = B.Tree->nsLca(WriteStep, ReadStep);
  EXPECT_TRUE(NL->isRoot()); // first non-scope above it

  // Theorem 1: parallel, because the write's non-scope child of the
  // NS-LCA is the async.
  EXPECT_EQ(B.Tree->nonScopeChildToward(NL, WriteStep), Asyncs[0]);
  EXPECT_TRUE(B.Tree->mayHappenInParallel(WriteStep, ReadStep));
}

TEST(Dpst, MayHappenInParallelMatrix) {
  BuiltTree B = buildTree(R"(
var A: int[];
func main() {
  A = new int[8];
  A[0] = 1;          // S0 (with init)
  finish {
    async { A[1] = 1; }  // S1
    async { A[2] = 1; }  // S2
  }
  A[3] = 1;          // S3 (+ finish continuation)
  async { A[4] = 1; }    // S4
  A[5] = 1;          // S5
}
)");
  std::vector<const DpstNode *> Steps;
  collectSteps(*B.Tree, B.Tree->root(), Steps);
  // Locate the step writing each cell by weight order; simpler: use the
  // async steps directly.
  std::vector<const DpstNode *> Asyncs;
  collectKind(*B.Tree, B.Tree->root(), DpstKind::Async, Asyncs);
  ASSERT_EQ(Asyncs.size(), 3u);
  std::vector<const DpstNode *> S1, S2, S4;
  collectSteps(*B.Tree, Asyncs[0], S1);
  collectSteps(*B.Tree, Asyncs[1], S2);
  collectSteps(*B.Tree, Asyncs[2], S4);

  // Siblings in one finish are parallel.
  EXPECT_TRUE(B.Tree->mayHappenInParallel(S1[0], S2[0]));
  // Steps after the finish are ordered after the finish's asyncs.
  const DpstNode *Last = Steps.back();
  EXPECT_FALSE(B.Tree->mayHappenInParallel(S1[0], Last->parent()->isRoot()
                                                      ? Last
                                                      : Last));
  EXPECT_FALSE(B.Tree->mayHappenInParallel(S2[0], Last));
  // The unfinished async is parallel with the trailing step.
  EXPECT_TRUE(B.Tree->mayHappenInParallel(S4[0], Last));
  // Order query.
  EXPECT_TRUE(B.Tree->isLeftOf(S1[0], S2[0]));
  EXPECT_FALSE(B.Tree->isLeftOf(S2[0], S1[0]));
}

TEST(Dpst, InsertFinishChangesParallelism) {
  // Figure 14: inserting a finish above the two asyncs serializes them
  // against the trailing step.
  BuiltTree B = buildTree(R"(
var X: int = 0;
var Y: int = 0;
func main() {
  async { X = 1; }
  async { Y = 2; }
  print(X + Y);
}
)");
  std::vector<const DpstNode *> Asyncs;
  collectKind(*B.Tree, B.Tree->root(), DpstKind::Async, Asyncs);
  ASSERT_EQ(Asyncs.size(), 2u);
  std::vector<const DpstNode *> WX, WY, All;
  collectSteps(*B.Tree, Asyncs[0], WX);
  collectSteps(*B.Tree, Asyncs[1], WY);
  collectSteps(*B.Tree, B.Tree->root(), All);
  const DpstNode *ReadStep = All.back();

  ASSERT_TRUE(B.Tree->mayHappenInParallel(WX[0], ReadStep));
  ASSERT_TRUE(B.Tree->mayHappenInParallel(WY[0], ReadStep));

  // Insert a finish adopting both asyncs under their common parent.
  ASSERT_EQ(Asyncs[0]->parent(), Asyncs[1]->parent());
  DpstNode *F = B.Tree->insertFinish(const_cast<DpstNode *>(Asyncs[0]),
                                     const_cast<DpstNode *>(Asyncs[1]),
                                     nullptr);
  ASSERT_TRUE(F->isFinish());
  EXPECT_EQ(B.Tree->childList(F).size(), 2u);
  EXPECT_EQ(Asyncs[0]->parent(), F);
  EXPECT_EQ(Asyncs[0]->depth(), F->depth() + 1);

  // Now the writes are ordered before the read, but still mutually
  // parallel.
  EXPECT_FALSE(B.Tree->mayHappenInParallel(WX[0], ReadStep));
  EXPECT_FALSE(B.Tree->mayHappenInParallel(WY[0], ReadStep));
  EXPECT_TRUE(B.Tree->mayHappenInParallel(WX[0], WY[0]));
}

TEST(Dpst, StepWeightsAccumulateWork) {
  BuiltTree B = buildTree(R"(
func main() {
  var s: int = 0;
  for (var i: int = 0; i < 10; i = i + 1) { s = s + i; }
  print(s);
}
)");
  EXPECT_GT(B.Tree->subtreeWork(B.Tree->root()), 50u);
  EXPECT_EQ(B.Tree->subtreeWork(B.Tree->root()), B.Exec.TotalWork);
}

TEST(Dpst, CplOfSequentialEqualsWork) {
  BuiltTree B = buildTree(R"(
func main() {
  var s: int = 0;
  for (var i: int = 0; i < 20; i = i + 1) { s = s + i; }
  print(s);
}
)");
  EXPECT_EQ(B.Tree->subtreeCpl(B.Tree->root()),
            B.Tree->subtreeWork(B.Tree->root()));
}

TEST(Dpst, CplOfParallelIsLessThanWork) {
  BuiltTree B = buildTree(R"(
var A: int[];
func work(i: int) {
  var s: int = 0;
  for (var k: int = 0; k < 200; k = k + 1) { s = s + k; }
  A[i] = s;
}
func main() {
  A = new int[4];
  finish {
    async work(0);
    async work(1);
    async work(2);
    async work(3);
  }
  print(A[0]);
}
)");
  uint64_t Work = B.Tree->subtreeWork(B.Tree->root());
  uint64_t Cpl = B.Tree->subtreeCpl(B.Tree->root());
  EXPECT_LT(Cpl * 2, Work); // at least 2x parallelism from 4 equal tasks
}

TEST(Dpst, OwnersPointIntoTheirContainers) {
  BuiltTree B = buildTree(R"(
var X: int = 0;
func main() {
  X = 1;
  async { X = 2; }
  X = 3;
}
)");
  // The main call scope's children: step(X=1), async, step(X=3); the
  // steps' owners must be statements of main's body block.
  std::vector<const DpstNode *> Scopes;
  collectKind(*B.Tree, B.Tree->root(), DpstKind::Scope, Scopes);
  const DpstNode *MainScope = nullptr;
  for (const DpstNode *S : Scopes)
    if (S->scopeKind() == ScopeKind::Call)
      MainScope = S;
  ASSERT_NE(MainScope, nullptr);
  ASSERT_EQ(B.Tree->childList(MainScope).size(), 3u);
  const BlockStmt *Body = MainScope->container();
  ASSERT_NE(Body, nullptr);
  for (const DpstNode *C : B.Tree->children(MainScope)) {
    ASSERT_NE(C->owner(), nullptr);
    bool Found = false;
    for (const Stmt *S : Body->stmts())
      if (S == C->owner())
        Found = true;
    EXPECT_TRUE(Found);
  }
}

TEST(Dpst, DotDumpContainsAllNodes) {
  BuiltTree B = buildTree("func main() { print(1); }");
  std::string Dot = B.Tree->dumpDot();
  EXPECT_NE(Dot.find("digraph"), std::string::npos);
  EXPECT_NE(Dot.find("Root:0"), std::string::npos);
}

TEST(Dpst, DeepChainQueriesStayCorrect) {
  // Regression for the walk-once childToward / nonScopeChildToward /
  // mayHappenInParallel rewrite: a path of thousands of scope nodes
  // between the queried ancestor and the step leaves. The old
  // hop-from-the-top formulation was quadratic in this depth; answers must
  // be identical now that each query walks the chain once. Built from raw
  // monitor events (null statements) — no program needed.
  const int Depth = 4000;
  Dpst Tree;
  DpstBuilder B(Tree);

  // finish { scopes^Depth { async { SA } } } ... SB
  B.onFinishEnter(nullptr, nullptr);
  for (int I = 0; I != Depth; ++I)
    B.onScopeEnter(ScopeKind::Block, nullptr, nullptr, nullptr);
  B.onAsyncEnter(nullptr, nullptr);
  const DpstNode *SA = B.currentStep();
  B.onAsyncExit(nullptr);
  for (int I = 0; I != Depth; ++I)
    B.onScopeExit();
  B.onFinishExit(nullptr);
  const DpstNode *SB = B.currentStep();

  ASSERT_NE(SA, nullptr);
  ASSERT_NE(SB, nullptr);
  ASSERT_GE(SA->depth(), static_cast<uint32_t>(Depth));

  const DpstNode *Root = Tree.root();
  const DpstNode *Finish = Tree.childToward(Root, SA);
  ASSERT_NE(Finish, nullptr);
  EXPECT_EQ(Finish->kind(), DpstKind::Finish);
  // childToward from the deep chain's top returns its first scope...
  const DpstNode *TopScope = Tree.childToward(Finish, SA);
  ASSERT_NE(TopScope, nullptr);
  EXPECT_EQ(TopScope->kind(), DpstKind::Scope);
  // ...while the non-scope child skips the whole chain down to the async.
  const DpstNode *Ns = Tree.nonScopeChildToward(Finish, SA);
  ASSERT_NE(Ns, nullptr);
  EXPECT_EQ(Ns->kind(), DpstKind::Async);

  EXPECT_EQ(Tree.lca(SA, SB), Root);
  // The LCA (root) is itself non-scope, so it is its own NS-LCA.
  EXPECT_EQ(Tree.nsLca(SA, SB), Root);
  // SA runs in an async joined by the finish; SB is the continuation after
  // it, so they are ordered.
  EXPECT_FALSE(Tree.mayHappenInParallel(SA, SB));

  // Same deep chain without the joining finish: async { scopes^Depth
  // { SC } } ... SD — now the deep step and the continuation step are
  // parallel and the NS-LCA's left non-scope child is the async itself.
  B.onAsyncEnter(nullptr, nullptr);
  for (int I = 0; I != Depth; ++I)
    B.onScopeEnter(ScopeKind::Block, nullptr, nullptr, nullptr);
  const DpstNode *SC = B.currentStep();
  for (int I = 0; I != Depth; ++I)
    B.onScopeExit();
  B.onAsyncExit(nullptr);
  const DpstNode *SD = B.currentStep();

  const DpstNode *DeepAsync = Tree.childToward(Root, SC);
  ASSERT_NE(DeepAsync, nullptr);
  EXPECT_EQ(DeepAsync->kind(), DpstKind::Async);
  EXPECT_EQ(Tree.nonScopeChildToward(DeepAsync, SC), SC);
  EXPECT_TRUE(Tree.mayHappenInParallel(SC, SD));
}

//===----------------------------------------------------------------------===//
// Interval queries vs a naive parent-pointer reference
//===----------------------------------------------------------------------===//

/// The reference: a plain pointer tree mirroring one Dpst, with explicit
/// child vectors. Built from parent links (siblings in creation order)
/// and edited by its own naive finish insertion, so every query below is
/// answered without the intervals.
struct RefTree {
  std::vector<int> Parent;
  std::vector<std::vector<int>> Kids;

  explicit RefTree(const Dpst &T) {
    size_t N = T.numNodes();
    Parent.assign(N, -1);
    Kids.resize(N);
    for (uint32_t I = 0; I != N; ++I)
      if (const DpstNode *P = T.node(I)->parent()) {
        Parent[I] = static_cast<int>(P->id());
        Kids[P->id()].push_back(static_cast<int>(I));
      }
  }

  void insertFinish(int P, size_t Begin, size_t End, int F) {
    Parent.resize(std::max<size_t>(Parent.size(), F + 1), -1);
    Kids.resize(Parent.size());
    std::vector<int> &PK = Kids[P];
    Kids[F].assign(PK.begin() + Begin, PK.begin() + End + 1);
    for (int C : Kids[F])
      Parent[C] = F;
    PK.erase(PK.begin() + Begin, PK.begin() + End + 1);
    PK.insert(PK.begin() + Begin, F);
    Parent[F] = P;
  }

  int depth(int X) const {
    int D = 0;
    for (; Parent[X] >= 0; X = Parent[X])
      ++D;
    return D;
  }
  bool isAncestorOrSelf(int A, int X) const {
    for (; X >= 0; X = Parent[X])
      if (X == A)
        return true;
    return false;
  }
  int lca(int A, int B) const {
    int DA = depth(A), DB = depth(B);
    for (; DA > DB; --DA)
      A = Parent[A];
    for (; DB > DA; --DB)
      B = Parent[B];
    while (A != B) {
      A = Parent[A];
      B = Parent[B];
    }
    return A;
  }
  int childToward(int Anc, int X) const {
    if (X == Anc || !isAncestorOrSelf(Anc, X))
      return -1;
    while (Parent[X] != Anc)
      X = Parent[X];
    return X;
  }
  int indexInParent(int X) const {
    const std::vector<int> &PK = Kids[Parent[X]];
    return static_cast<int>(std::find(PK.begin(), PK.end(), X) - PK.begin());
  }
  bool isLeftOf(int A, int B) const {
    if (A == B)
      return false;
    int L = lca(A, B);
    if (L == A)
      return true;
    if (L == B)
      return false;
    return indexInParent(childToward(L, A)) < indexInParent(childToward(L, B));
  }
};

/// Checks the interval answers of \p T against \p R on sampled pairs.
void checkAgainstReference(const Dpst &T, const RefTree &R, Rng &G,
                           const std::string &Ctx) {
  size_t N = T.numNodes();
  ASSERT_EQ(R.Parent.size(), N) << Ctx;
  auto Id = [](const DpstNode *X) {
    return X ? static_cast<int>(X->id()) : -1;
  };
  // children() is the exact inverse of parent().
  size_t Listed = 0;
  for (uint32_t I = 0; I != N; ++I) {
    const DpstNode *X = T.node(I);
    ASSERT_EQ(X->id(), I) << Ctx;
    ASSERT_EQ(Id(X->parent()), R.Parent[I]) << Ctx << " node " << I;
    std::vector<int> Kids;
    for (const DpstNode *C : T.children(X))
      Kids.push_back(Id(C));
    ASSERT_EQ(Kids, R.Kids[I]) << Ctx << " children of " << I;
    Listed += Kids.size();
    EXPECT_EQ(X->depth(), static_cast<uint32_t>(R.depth(I))) << Ctx;
  }
  EXPECT_EQ(Listed, N - 1) << Ctx;

  std::vector<const DpstNode *> Steps;
  for (uint32_t I = 0; I != N; ++I)
    if (T.node(I)->isStep())
      Steps.push_back(T.node(I));

  auto NonScopeChildToward = [&](int Anc, int X) {
    if (X == Anc || !R.isAncestorOrSelf(Anc, X))
      return -1;
    int Answer = -1;
    for (; X != Anc; X = R.Parent[X])
      if (T.node(X)->isNonScope())
        Answer = X;
    return Answer;
  };
  auto NsLca = [&](int A, int B) {
    int L = R.lca(A, B);
    while (T.node(L)->isScope())
      L = R.Parent[L];
    return L;
  };

  for (int Round = 0; Round != 300; ++Round) {
    const DpstNode *A = T.node(static_cast<uint32_t>(G.nextBelow(N)));
    const DpstNode *B = T.node(static_cast<uint32_t>(G.nextBelow(N)));
    int IA = Id(A), IB = Id(B);
    EXPECT_EQ(T.isAncestorOrSelf(A, B), R.isAncestorOrSelf(IA, IB)) << Ctx;
    EXPECT_EQ(Id(T.lca(A, B)), R.lca(IA, IB)) << Ctx;
    EXPECT_EQ(Id(T.nsLca(A, B)), NsLca(IA, IB)) << Ctx;
    EXPECT_EQ(T.isLeftOf(A, B), R.isLeftOf(IA, IB)) << Ctx;
    EXPECT_EQ(Id(T.childToward(A, B)), R.childToward(IA, IB)) << Ctx;
    EXPECT_EQ(Id(T.nonScopeChildToward(A, B)), NonScopeChildToward(IA, IB))
        << Ctx;
    // The same queries on a step and one of its ancestors.
    const DpstNode *S = Steps[G.nextBelow(Steps.size())];
    const DpstNode *Up = S;
    for (uint64_t K = G.nextBelow(8); K && Up->parent(); --K)
      Up = Up->parent();
    EXPECT_TRUE(T.isAncestorOrSelf(Up, S)) << Ctx;
    EXPECT_EQ(Id(T.nonScopeChildToward(Up, S)),
              NonScopeChildToward(Id(Up), Id(S)))
        << Ctx;
  }

  if (Steps.size() < 2)
    return;
  for (int Round = 0; Round != 300; ++Round) {
    const DpstNode *S1 = Steps[G.nextBelow(Steps.size())];
    const DpstNode *S2 = Steps[G.nextBelow(Steps.size())];
    if (S1 == S2)
      continue;
    // Theorem 1 on the reference: the non-scope child of the NS-LCA
    // toward the left step is a task node, and no future on either path
    // below the LCA was forced before the other step.
    int I1 = Id(S1), I2 = Id(S2);
    int Left = R.isLeftOf(I1, I2) ? I1 : I2;
    bool Expected =
        T.node(NonScopeChildToward(NsLca(I1, I2), Left))->isTaskNode();
    int L = R.lca(I1, I2);
    auto Forced = [&](int From, const DpstNode *Other) {
      const std::vector<uint32_t> *F = T.forced(Other);
      for (int X = From; X != L; X = R.Parent[X])
        if (T.node(X)->isFuture() && F &&
            std::binary_search(F->begin(), F->end(),
                               T.node(X)->futureId()))
          return true;
      return false;
    };
    if (Forced(I1, S2) || Forced(I2, S1))
      Expected = false;
    EXPECT_EQ(T.mayHappenInParallel(S1, S2), Expected)
        << Ctx << " steps " << I1 << ", " << I2;
  }
}

/// A builder that also asks the parallelism query while the tree is still
/// open (as detectors do) and keeps the answers for a later recheck.
class ProbingBuilder : public DpstBuilder {
public:
  ProbingBuilder(Dpst &D, uint64_t Seed) : DpstBuilder(D), G(Seed) {}

  void onWork(uint64_t Units) override {
    DpstBuilder::onWork(Units);
    const DpstNode *Cur = currentStep();
    if (Steps.empty() || Steps.back() != Cur)
      Steps.push_back(Cur);
    if (Steps.size() < 2 || G.nextBelow(4))
      return;
    const DpstNode *Earlier = Steps[G.nextBelow(Steps.size() - 1)];
    Probes.push_back({Earlier, Cur, tree().mayHappenInParallel(Earlier, Cur),
                      tree().lca(Earlier, Cur)});
  }

  struct Probe {
    const DpstNode *S1, *S2;
    bool Mhp;
    const DpstNode *Lca;
  };
  std::vector<const DpstNode *> Steps;
  std::vector<Probe> Probes;

private:
  Rng G;
};

TEST(DpstLayout, IntervalQueriesMatchParentPointerReference) {
  unsigned Checked = 0;
  for (int Profile = 0; Profile != 2; ++Profile)
    for (uint64_t Seed = 1; Seed <= 30; ++Seed) {
      test::RandomProgramGen Gen(Seed);
      if (Profile == 1)
        Gen.enableConstructs();
      std::string Src = Gen.generate();
      ParsedProgram P = parseAndCheck(Src);
      ASSERT_TRUE(P.ok()) << P.errors();
      Dpst Tree;
      ProbingBuilder Builder(Tree, Seed);
      ExecOptions Opts;
      Opts.Monitor = &Builder;
      if (!runProgram(*P.Prog, Opts).Ok)
        continue;
      std::string Ctx = "profile " + std::to_string(Profile) + " seed " +
                        std::to_string(Seed);
      // Answers given on the open tree hold on the closed one.
      for (const ProbingBuilder::Probe &Pr : Builder.Probes) {
        EXPECT_EQ(Tree.mayHappenInParallel(Pr.S1, Pr.S2), Pr.Mhp) << Ctx;
        EXPECT_EQ(Tree.lca(Pr.S1, Pr.S2), Pr.Lca) << Ctx;
      }

      RefTree Ref(Tree);
      Rng G(Seed * 7919 + Profile);
      checkAgainstReference(Tree, Ref, G, Ctx);

      // Random finish insertions, nested ones included: wrap a random
      // child range of a random interior node, often a fresh wrapper
      // itself or a single child (an interval shared with the child).
      std::vector<uint32_t> Wrappers;
      for (int Step = 0; Step != 12; ++Step) {
        uint32_t PId;
        if (!Wrappers.empty() && G.nextBelow(2))
          PId = Wrappers[G.nextBelow(Wrappers.size())];
        else
          PId = static_cast<uint32_t>(G.nextBelow(Tree.numNodes()));
        if (Ref.Kids[PId].empty())
          continue;
        size_t NumKids = Ref.Kids[PId].size();
        size_t B = G.nextBelow(NumKids);
        size_t E = G.nextBelow(2) ? B : B + G.nextBelow(NumKids - B);
        uint32_t NewId = static_cast<uint32_t>(Tree.numNodes());
        DpstNode *F = Tree.insertFinish(Tree.node(Ref.Kids[PId][B]),
                                        Tree.node(Ref.Kids[PId][E]), nullptr);
        ASSERT_EQ(F->id(), NewId) << Ctx;
        ASSERT_TRUE(F->isInserted()) << Ctx;
        Ref.insertFinish(static_cast<int>(PId), B, E, static_cast<int>(NewId));
        Wrappers.push_back(NewId);
      }
      checkAgainstReference(Tree, Ref, G, Ctx + " after inserts");
      ++Checked;
    }
  EXPECT_GT(Checked, 40u);
}

TEST(DpstLayout, SuiteTreesStayWithinByteBudget) {
  // Deterministic byte counts (chunk capacities and side tables), so the
  // budget holds on any host. Mergesort is the suite's scope- and
  // async-heavy shape, FannKuch its largest tree.
  for (const char *Name : {"Mergesort", "FannKuch"}) {
    const BenchmarkSpec *Spec = findBenchmark(Name);
    ASSERT_NE(Spec, nullptr);
    BuiltTree B = buildTree(Spec->Source, Spec->RepairArgs);
    double PerNode = static_cast<double>(B.Tree->bytesUsed()) /
                     static_cast<double>(B.Tree->numNodes());
    EXPECT_LE(PerNode, 64.0) << Name;
    EXPECT_GE(PerNode, static_cast<double>(sizeof(DpstNode))) << Name;
  }
}

//===----------------------------------------------------------------------===//
// The compact shape
//===----------------------------------------------------------------------===//

/// Compact MRW detection of \p Src.
Detection detectCompact(const ParsedProgram &P) {
  return detectRaces(*P.Prog, DetectOptions());
}

/// The async and future nodes of \p T, left to right (materialized nodes
/// only: a collapsed leaf lists no children).
std::vector<const DpstNode *> taskNodes(const Dpst &T) {
  std::vector<const DpstNode *> Out;
  collectKind(T, T.root(), DpstKind::Async, Out);
  collectKind(T, T.root(), DpstKind::Future, Out);
  std::sort(Out.begin(), Out.end(), [](const DpstNode *A, const DpstNode *B) {
    return A->id() < B->id();
  });
  return Out;
}

TEST(DpstCompact, RaceSourceInACollapsedAsyncIsPinned) {
  // The loop gives the async 2 ids per iteration (body scope and step),
  // enough to fold: a subtree holding no whole chunk stays.
  ParsedProgram P = parseAndCheck(R"(
func main() {
  var a: int[] = new int[1];
  async {
    var t: int = 0;
    for (var k: int = 0; k < 300; k = k + 1) {
      t = t + k;
    }
    a[0] = t;
  }
  a[0] = 2;
}
)");
  ASSERT_TRUE(P.ok()) << P.errors();
  Detection D = detectCompact(P);
  ASSERT_TRUE(D.ok()) << D.Exec.Error;
  ASSERT_EQ(D.Report.Pairs.size(), 1u);
  const Dpst &T = *D.Tree;
  const DpstNode *Src = D.Report.Pairs[0].Src;
  const DpstNode *Async = Src->parent();
  ASSERT_TRUE(Async->isAsync());
  EXPECT_TRUE(Async->isCollapsed());
  EXPECT_TRUE(Src->isStep());
  EXPECT_EQ(T.numCollapsed(), 1u);
  EXPECT_GT(T.numNodes() - T.numKept(), 600u);
  EXPECT_TRUE(T.childList(Async).empty());
  // The pinned step is memoized: every lookup returns the same node.
  EXPECT_EQ(T.node(Src->id()), Src);
  EXPECT_EQ(T.node(Src->id()), T.node(Src->id()));
  EXPECT_TRUE(T.isAncestorOrSelf(Async, Src));
  EXPECT_TRUE(T.mayHappenInParallel(Src, D.Report.Pairs[0].Snk));
  EXPECT_EQ(T.nsLca(Src, D.Report.Pairs[0].Snk), T.root());
  Detection Full = detectRaces(
      *P.Prog, DetectOptions{EspBagsDetector::Mode::MRW, DpstShape::Full});
  EXPECT_EQ(T.subtreeWork(Async),
            Full.Tree->subtreeWork(Full.Tree->node(Async->id())));
  expectCompactMatchesFull(*P.Prog, ExecOptions(), "pinned");
}

TEST(DpstCompact, OnlyLargeSpawnFreeTasksCollapse) {
  // Every task runs work()'s loop except the last, so each kept task
  // below is kept for the reason its comment names.
  ParsedProgram P = parseAndCheck(R"(
func work(a: int[], i: int): int {
  var t: int = 0;
  for (var k: int = 0; k < 300; k = k + 1) {
    t = t + k;
  }
  a[i] = a[i] + t;
  return i;
}
func main() {
  var a: int[] = new int[8];
  async {
    async work(a, 1);
  }
  future f = work(a, 2);
  async {
    a[3] = force(f) + work(a, 3);
  }
  async {
    isolated { a[4] = a[4] + 1; }
    a[4] = work(a, 4);
  }
  async {
    finish { a[5] = work(a, 5); }
  }
  async work(a, 6);
  async {
    a[7] = 1;
  }
}
)");
  ASSERT_TRUE(P.ok()) << P.errors();
  Detection D = detectCompact(P);
  ASSERT_TRUE(D.ok()) << D.Exec.Error;
  std::vector<const DpstNode *> Tasks = taskNodes(*D.Tree);
  // Spawner, inner async, future, forcing async, isolated async, finish
  // async, plain async, tiny async.
  ASSERT_EQ(Tasks.size(), 8u);
  const bool Collapsed[] = {false, true,  true, false,
                            false, false, true, false};
  for (size_t I = 0; I != Tasks.size(); ++I)
    EXPECT_EQ(Tasks[I]->isCollapsed(), Collapsed[I]) << Tasks[I]->label();
  EXPECT_EQ(D.Tree->numCollapsed(), 3u);
  expectCompactMatchesFull(*P.Prog, ExecOptions(), "rule");
}

TEST(DpstCompact, CollapsedFutureKeepsItsForcedSet) {
  // g starts after f is forced, so g's steps carry f in their forced set
  // and are ordered after f's body although both futures fold and the
  // bags alone would call them parallel.
  ParsedProgram P = parseAndCheck(R"(
func put(a: int[], v: int): int {
  var t: int = 0;
  for (var k: int = 0; k < 300; k = k + 1) {
    t = t + k;
  }
  a[0] = v + t;
  return v;
}
func main() {
  var a: int[] = new int[2];
  future f = put(a, 1);
  a[1] = force(f);
  future g = put(a, 2);
  future h = put(a, 3);
  a[1] = force(g) + force(h);
}
)");
  ASSERT_TRUE(P.ok()) << P.errors();
  Detection D = detectCompact(P);
  ASSERT_TRUE(D.ok()) << D.Exec.Error;
  const Dpst &T = *D.Tree;
  std::vector<const DpstNode *> Futures = taskNodes(T);
  ASSERT_EQ(Futures.size(), 3u);
  for (const DpstNode *F : Futures)
    EXPECT_TRUE(F->isCollapsed()) << F->label();
  // Only g and h race on a[0]; f is joined by the force before either.
  ASSERT_EQ(D.Report.Pairs.size(), 1u);
  const RacePair &R = D.Report.Pairs[0];
  EXPECT_EQ(R.Src->parent(), Futures[1]);
  EXPECT_EQ(R.Snk->parent(), Futures[2]);
  // A step of f (located on the full tree) against a step of g: g's
  // forced set names f.
  Detection Full = detectRaces(
      *P.Prog, DetectOptions{EspBagsDetector::Mode::MRW, DpstShape::Full});
  std::vector<const DpstNode *> FullFutures = taskNodes(*Full.Tree);
  ASSERT_EQ(FullFutures.size(), 3u);
  std::vector<const DpstNode *> FSteps;
  collectSteps(*Full.Tree, FullFutures[0], FSteps);
  ASSERT_FALSE(FSteps.empty());
  const DpstNode *InF = T.node(FSteps.back()->id());
  ASSERT_TRUE(InF->isStep());
  ASSERT_EQ(InF->parent(), Futures[0]);
  const std::vector<uint32_t> *GForced = T.forced(R.Src);
  ASSERT_NE(GForced, nullptr);
  EXPECT_EQ(*GForced, std::vector<uint32_t>{Futures[0]->futureId()});
  EXPECT_EQ(T.forced(Futures[1]), GForced);
  EXPECT_FALSE(T.mayHappenInParallel(InF, R.Src));
  EXPECT_TRUE(T.mayHappenInParallel(R.Src, R.Snk));
  expectCompactMatchesFull(*P.Prog, ExecOptions(), "future");
}

TEST(DpstCompact, TaskSpawnedRightAfterAForceWaitsForTheFuture) {
  // No step runs between force(f) and the spawn, so the collapsed
  // async's first step is the first to carry f in its forced set: the
  // schedule DAG's force edge from f must come from the folded chain.
  ParsedProgram P = parseAndCheck(R"(
func spin(n: int): int {
  var s: int = 0;
  for (var i: int = 0; i < n; i = i + 1) {
    s = s + i;
  }
  return s;
}
func main() {
  var a: int[] = new int[2];
  future f = spin(400);
  force(f);
  async {
    a[0] = spin(300);
  }
  a[1] = spin(50);
}
)");
  ASSERT_TRUE(P.ok()) << P.errors();
  Detection D = detectCompact(P);
  ASSERT_TRUE(D.ok()) << D.Exec.Error;
  EXPECT_EQ(D.Tree->numCollapsed(), 2u);
  Detection Full = detectRaces(
      *P.Prog, DetectOptions{EspBagsDetector::Mode::MRW, DpstShape::Full});
  EXPECT_EQ(analyzeDpst(*D.Tree, 4).Tinf, analyzeDpst(*Full.Tree, 4).Tinf);
  expectCompactMatchesFull(*P.Prog, ExecOptions(), "force-spawn");
}

/// Compact MRW detection of the finish-stripped suite program \p Name at
/// its performance input, with \p Arg replacing the first argument when
/// non-zero.
Detection detectStrippedPerf(const char *Name, int64_t Arg = 0) {
  const BenchmarkSpec *Spec = findBenchmark(Name);
  EXPECT_NE(Spec, nullptr);
  LoadedBenchmark B = loadBenchmark(Spec->Source);
  stripFinishes(*B.Prog);
  ExecOptions Exec;
  Exec.Args = Spec->PerfArgs;
  if (Arg)
    Exec.Args[0] = Arg;
  return detectRaces(*B.Prog, DetectOptions(), Exec);
}

/// The optimized, sanitizer-free build runs the gates at the performance
/// inputs; Debug and sanitizer builds one size down, under the same
/// per-id bound.
#if defined(NDEBUG) && !defined(__SANITIZE_ADDRESS__)
constexpr bool FullSizeGates = true;
#else
constexpr bool FullSizeGates = false;
#endif

TEST(DpstCompact, FannKuchKeepsAHandfulOfNodes) {
  // 8 asyncs and 1 finish; at n = 8 the tree has 9,589,054 ids, of which
  // the full shape materializes every one at ~48 B.
  Detection D = detectStrippedPerf("FannKuch", FullSizeGates ? 0 : 7);
  ASSERT_TRUE(D.ok()) << D.Exec.Error;
  const Dpst &T = *D.Tree;
  if (FullSizeGates) {
    EXPECT_EQ(T.numNodes(), 9589054u);
  }
  EXPECT_LE(T.numKept(), 100u);
  EXPECT_LE(static_cast<double>(T.bytesUsed()),
            5.0 * static_cast<double>(T.numNodes()));
}

TEST(DpstCompact, MandelbrotKeepsUnderOneHundredThousandNodes) {
  Detection D = detectStrippedPerf("Mandelbrot", FullSizeGates ? 0 : 64);
  ASSERT_TRUE(D.ok()) << D.Exec.Error;
  EXPECT_LE(D.Tree->numKept(), 100000u);
  EXPECT_LT(D.Tree->numKept(), D.Tree->numNodes() / 10);
}

} // namespace
