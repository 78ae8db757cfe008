//===- Dpst.cpp -----------------------------------------------------------===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//

#include "dpst/Dpst.h"

#include "ast/Ast.h"
#include "obs/Metrics.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <iterator>

using namespace tdr;

std::string DpstNode::label() const {
  const char *K = Kind == DpstKind::Root     ? "Root"
                  : Kind == DpstKind::Async  ? "Async"
                  : Kind == DpstKind::Finish ? "Finish"
                  : Kind == DpstKind::Future ? "Future"
                  : Kind == DpstKind::Scope
                      ? (scopeKind() == ScopeKind::Call ? "Call" : "Scope")
                      : "Step";
  std::string S = strFormat("%s:%u", K, Id);
  if (callee())
    S += strFormat("(%s)", callee()->name().c_str());
  if (weight())
    S += strFormat("[w=%llu]", static_cast<unsigned long long>(weight()));
  return S;
}

uint32_t DpstNode::depth() const {
  uint32_t D = 0;
  for (const DpstNode *X = Parent; X; X = X->Parent)
    ++D;
  return D;
}

Dpst::ChildRange::iterator Dpst::ChildRange::begin() const {
  uint32_t Limit = Tree->limitOf(Parent);
  return iterator(Tree, Parent, Limit,
                  Tree->childAt(Parent, firstChildPos(Parent), Limit));
}

Dpst::Dpst()
    : CNodes(&obs::counter("dpst.nodes")),
      CQueries(&obs::counter("dpst.mhp_queries")),
      CInserts(&obs::counter("dpst.finish_inserts")) {
  ForcedSets.emplace_back(); // index 0: no forced futures
  Root = createNode(DpstKind::Root, nullptr);
}

DpstNode *Dpst::allocNode() {
  uint32_t Id = NextId++;
  if ((Id & (ChunkSize - 1)) == 0)
    Chunks.emplace_back(new DpstNode[ChunkSize]);
  DpstNode *N = node(Id);
  N->Id = Id;
  return N;
}

DpstNode *Dpst::createNode(DpstKind K, DpstNode *Parent) {
  // Built ids double as preorder positions, which holds only while no
  // finish has been inserted out of band.
  assert(NumBuilt == NextId && "nodes are built before finishes are inserted");
  CNodes->inc();
  DpstNode *N = allocNode();
  ++NumBuilt;
  N->Kind = K;
  N->Parent = Parent;
  if (K == DpstKind::Step)
    N->End = N->Id + 1;
  return N;
}

uint32_t Dpst::internForced(std::vector<uint32_t> S) {
  if (S.empty())
    return 0;
  uint64_t H = 0xcbf29ce484222325ull;
  for (uint32_t V : S)
    H = (H ^ V) * 0x100000001b3ull;
  auto [Lo, Hi] = ForcedIndex.equal_range(H);
  for (auto It = Lo; It != Hi; ++It)
    if (ForcedSets[It->second] == S)
      return It->second;
  uint32_t I = static_cast<uint32_t>(ForcedSets.size());
  ForcedSets.push_back(std::move(S));
  ForcedIndex.emplace(H, I);
  return I;
}

size_t Dpst::bytesUsed() const {
  size_t Bytes = Chunks.size() * ChunkSize * sizeof(DpstNode) +
                 Chunks.capacity() * sizeof(Chunks[0]) +
                 ForcedSets.capacity() * sizeof(ForcedSets[0]);
  for (const std::vector<uint32_t> &S : ForcedSets)
    Bytes += S.capacity() * sizeof(uint32_t);
  // Hash nodes: key, value and the next pointer; plus the bucket array.
  Bytes += ForcedIndex.size() * (sizeof(void *) + 2 * sizeof(uint64_t)) +
           ForcedIndex.bucket_count() * sizeof(void *);
  return Bytes;
}

std::vector<DpstNode *> Dpst::childList(const DpstNode *N) const {
  ChildRange R = children(N);
  return std::vector<DpstNode *>(R.begin(), R.end());
}

const DpstNode *Dpst::lca(const DpstNode *A, const DpstNode *B) const {
  while (!isAncestorOrSelf(A, B)) {
    A = A->parent();
    assert(A && "nodes from different trees");
  }
  return A;
}

const DpstNode *Dpst::nsLca(const DpstNode *A, const DpstNode *B) const {
  const DpstNode *L = lca(A, B);
  while (L->isScope())
    L = L->parent();
  return L;
}

const DpstNode *Dpst::childToward(const DpstNode *Ancestor,
                                  const DpstNode *Descendant) const {
  if (Descendant == Ancestor || !isAncestorOrSelf(Ancestor, Descendant))
    return nullptr;
  const DpstNode *Cur = Descendant;
  while (Cur->parent() != Ancestor)
    Cur = Cur->parent();
  return Cur;
}

const DpstNode *Dpst::nonScopeChildToward(const DpstNode *N,
                                          const DpstNode *Descendant) const {
  // One upward walk: the first non-scope node on the way *down* from N is
  // the shallowest non-scope node strictly below N on the path, i.e. the
  // last one seen walking *up* from Descendant.
  if (Descendant == N || !isAncestorOrSelf(N, Descendant))
    return nullptr;
  const DpstNode *Answer = nullptr;
  for (const DpstNode *Cur = Descendant; Cur != N; Cur = Cur->parent())
    if (Cur->isNonScope())
      Answer = Cur;
  return Answer;
}

bool Dpst::isLeftOf(const DpstNode *A, const DpstNode *B) const {
  if (A == B)
    return false;
  if (isAncestorOrSelf(A, B))
    return true; // ancestor precedes descendants
  if (isAncestorOrSelf(B, A))
    return false;
  // Disjoint subtrees have disjoint intervals.
  return A->pre() < B->pre();
}

bool Dpst::mayHappenInParallel(const DpstNode *S1, const DpstNode *S2) const {
  CQueries->inc();
  assert(S1 != S2 && "parallelism query on a single node");
  assert(S1->isStep() && S2->isStep() && "MHP is defined on step leaves");
  // One walk per side up to the LCA, tracking the shallowest non-scope
  // node strictly below it. Because every node between the LCA and the
  // NS-LCA is a scope by definition, that tracked node IS the non-scope
  // child of the NS-LCA toward that side (Definition 3) — no second pass
  // needed. Steps are leaves, so neither argument is the LCA itself. A
  // future on the path, forced before the other step started, joins this
  // side's subtree into the other step's past: ordered.
  auto Forces = [this](const DpstNode *Fut, const DpstNode *Step) {
    const std::vector<uint32_t> *F = forced(Step);
    return F && std::binary_search(F->begin(), F->end(), Fut->futureId());
  };
  const DpstNode *A = S1, *AChild = nullptr, *ANs = nullptr;
  while (!isAncestorOrSelf(A, S2)) {
    if (A->isFuture() && Forces(A, S2))
      return false;
    if (A->isNonScope())
      ANs = A;
    AChild = A;
    A = A->parent();
    assert(A && "nodes from different trees");
  }
  const DpstNode *B = S2, *BChild = nullptr, *BNs = nullptr;
  while (B != A) {
    if (B->isFuture() && Forces(B, S1))
      return false;
    if (B->isNonScope())
      BNs = B;
    BChild = B;
    B = B->parent();
  }
  assert(AChild && BChild && ANs && BNs &&
         "steps must be strict descendants of their LCA");
  // Theorem 1: the pair may run in parallel iff the NS-LCA's non-scope
  // child toward the left (earlier) step is a task node (async or future).
  // The two children are siblings, so their intervals are disjoint.
  const DpstNode *LeftNs = AChild->pre() < BChild->pre() ? ANs : BNs;
  return LeftNs->isTaskNode();
}

std::vector<DpstNode *> Dpst::nonScopeChildren(const DpstNode *N) const {
  std::vector<DpstNode *> Result;
  // Iterative DFS preserving left-to-right order: descend through scope
  // nodes, collect the first non-scope node on each path.
  std::vector<std::pair<ChildRange::iterator, ChildRange::iterator>> Stack;
  Stack.emplace_back(children(N).begin(), children(N).end());
  while (!Stack.empty()) {
    auto &[It, End] = Stack.back();
    if (It == End) {
      Stack.pop_back();
      continue;
    }
    DpstNode *Cur = *It;
    ++It;
    if (Cur->isScope())
      Stack.emplace_back(children(Cur).begin(), children(Cur).end());
    else
      Result.push_back(Cur);
  }
  return Result;
}

DpstNode *Dpst::insertFinish(DpstNode *First, DpstNode *Last,
                             const FinishStmt *Site) {
  DpstNode *Parent = First->Parent;
  assert(Parent && Last->Parent == Parent && First->pre() <= Last->pre() &&
         "finish insertion needs a sibling range");

  CInserts->inc();
  DpstNode *F = allocNode();
  F->Kind = DpstKind::Finish;
  F->Flags = DpstNode::InsertedFlag;
  F->Aux = First->pre();
  F->End = Last->End;
  F->Parent = Parent;
  F->Owner = First->owner();
  F->Slot.Finish = Site;
  F->Word.LastOwner = Last->ownerLast();
  // Adopt the range; the next sibling is found before its predecessor
  // moves under F.
  uint32_t Limit = limitOf(Parent);
  for (DpstNode *C = First; C;) {
    DpstNode *Next = C == Last ? nullptr : childAt(Parent, C->End, Limit);
    C->Parent = F;
    C = Next;
  }
  return F;
}

uint64_t Dpst::subtreeWork(const DpstNode *N) const {
  // Every built node inside the interval is a descendant (inserted
  // finishes carry no weight).
  uint64_t Total = 0;
  for (uint32_t Pos = N->pre(), Limit = limitOf(N); Pos < Limit; ++Pos)
    Total += node(Pos)->weight();
  return Total;
}

namespace {
/// Recursive completion-time evaluation. Returns the pair (SerialEnd,
/// Pending): SerialEnd is when the node's own sequential thread finishes,
/// relative to its start; Pending is the completion offset of spawned-and-
/// not-yet-joined asyncs.
struct CplResult {
  uint64_t SerialEnd;
  uint64_t Pending;
};

CplResult cplWalk(const Dpst &Tree, const DpstNode *N) {
  uint64_t Cur = 0;
  uint64_t Pending = 0;
  for (const DpstNode *C : Tree.children(N)) {
    switch (C->kind()) {
    case DpstKind::Step:
      Cur += C->weight();
      break;
    case DpstKind::Scope: {
      CplResult R = cplWalk(Tree, C);
      Pending = std::max(Pending, Cur + R.Pending);
      Cur += R.SerialEnd;
      break;
    }
    case DpstKind::Async: {
      CplResult R = cplWalk(Tree, C);
      // The child task runs concurrently from the spawn point.
      Pending = std::max({Pending, Cur + R.SerialEnd, Cur + R.Pending});
      break;
    }
    case DpstKind::Future: {
      CplResult R = cplWalk(Tree, C);
      // A future runs concurrently like an async, but its implicit finish
      // folds internal pending work into its own completion time.
      Pending = std::max(Pending, Cur + std::max(R.SerialEnd, R.Pending));
      break;
    }
    case DpstKind::Finish: {
      CplResult R = cplWalk(Tree, C);
      // The parent resumes only after everything inside completes.
      Cur += std::max(R.SerialEnd, R.Pending);
      break;
    }
    case DpstKind::Root:
      assert(false && "root cannot be a child");
      break;
    }
  }
  return {Cur, Pending};
}
} // namespace

uint64_t Dpst::subtreeCpl(const DpstNode *N) const {
  CplResult R = cplWalk(*this, N);
  return std::max(R.SerialEnd, R.Pending);
}

std::string Dpst::dumpDot() const {
  std::string Out = "digraph sdpst {\n  node [shape=box];\n";
  for (uint32_t Id = 0; Id != NextId; ++Id) {
    const DpstNode &N = *node(Id);
    Out += strFormat("  n%u [label=\"%s\"];\n", N.id(), N.label().c_str());
    if (N.parent())
      Out += strFormat("  n%u -> n%u;\n", N.parent()->id(), N.id());
  }
  Out += "}\n";
  return Out;
}

//===----------------------------------------------------------------------===//
// DpstBuilder
//===----------------------------------------------------------------------===//

DpstBuilder::DpstBuilder(Dpst &D) : D(D), Cur(D.root()) {
  TaskStack.push_back(D.root());
  // Root slot: exit sets of root-level tasks land here (nothing ever
  // reads it — no code runs after the program's implicit join).
  FinishAccum.push_back(0);
}

uint32_t DpstBuilder::unionForced(uint32_t A, uint32_t B) {
  if (!A || A == B)
    return B;
  if (!B)
    return A;
  const std::vector<uint32_t> &SA = D.ForcedSets[A], &SB = D.ForcedSets[B];
  std::vector<uint32_t> Merged;
  Merged.reserve(SA.size() + SB.size());
  std::set_union(SA.begin(), SA.end(), SB.begin(), SB.end(),
                 std::back_inserter(Merged));
  return D.internForced(std::move(Merged));
}

uint32_t DpstBuilder::unionForcedWith(uint32_t A, uint32_t Fid) {
  uint32_t Base = A;
  if (Fid < FutureById.size() && FutureById[Fid])
    Base = unionForced(Base, FutureById[Fid]->Aux);
  const std::vector<uint32_t> &S = D.ForcedSets[Base];
  auto It = std::lower_bound(S.begin(), S.end(), Fid);
  if (It != S.end() && *It == Fid)
    return Base;
  std::vector<uint32_t> Merged(S.begin(), It);
  Merged.push_back(Fid);
  Merged.insert(Merged.end(), It, S.end());
  return D.internForced(std::move(Merged));
}

void DpstBuilder::onAsyncEnter(const AsyncStmt *S, const Stmt *Owner) {
  closeStep();
  DpstNode *N = D.createNode(DpstKind::Async, Cur);
  N->Owner = Owner;
  N->Slot.Async = S;
  // Null S happens only in synthetic event streams (bench/tests).
  if (S)
    if (const auto *B = dyn_cast<BlockStmt>(S->body()))
      N->Word.Body = B; // informational; the body block still gets a scope
  Cur = N;
  TaskStack.push_back(N);
  // The child context inherits the spawner's completed-future knowledge;
  // the snapshot to restore at exit is the same set (spawning changes
  // nothing for the parent).
  SavedForced.push_back(CurForced);
}

void DpstBuilder::onAsyncExit(const AsyncStmt *) {
  closeStep();
  TaskStack.pop_back();
  closeCur();
  // The task's final knowledge becomes visible after its join point — the
  // immediately enclosing finish (or future's implicit finish).
  FinishAccum.back() = unionForced(FinishAccum.back(), CurForced);
  CurForced = SavedForced.back();
  SavedForced.pop_back();
}

void DpstBuilder::onFinishEnter(const FinishStmt *S, const Stmt *Owner) {
  closeStep();
  DpstNode *N = D.createNode(DpstKind::Finish, Cur);
  N->Owner = Owner;
  N->Slot.Finish = S;
  if (S)
    if (const auto *B = dyn_cast<BlockStmt>(S->body()))
      N->Word.Body = B;
  Cur = N;
  // Exit sets of tasks joining at this finish accumulate here.
  FinishAccum.push_back(0);
}

void DpstBuilder::onFinishExit(const FinishStmt *) {
  closeStep();
  closeCur();
  // Everything joined tasks forced is now in this context's past.
  CurForced = unionForced(CurForced, FinishAccum.back());
  FinishAccum.pop_back();
}

void DpstBuilder::onFutureEnter(const FutureStmt *S, const Stmt *Owner,
                                uint32_t Fid) {
  closeStep();
  DpstNode *N = D.createNode(DpstKind::Future, Cur);
  N->Owner = Owner;
  N->Slot.Future = S;
  N->Word.FutureId = Fid;
  D.HasIsolatedOrFuture = true;
  if (FutureById.size() <= Fid)
    FutureById.resize(Fid + 1, nullptr);
  FutureById[Fid] = N;
  Cur = N;
  TaskStack.push_back(N);
  SavedForced.push_back(CurForced);
  FinishAccum.push_back(0); // the future's implicit finish
}

void DpstBuilder::onFutureExit(const FutureStmt *) {
  closeStep();
  TaskStack.pop_back();
  // The future's exit set (its own forces plus those of tasks joined by
  // the implicit finish) is stamped on the node so a later force can
  // propagate it transitively.
  uint32_t ExitSet = unionForced(CurForced, FinishAccum.back());
  FinishAccum.pop_back();
  Cur->Aux = ExitSet;
  closeCur();
  // Like an async, the future also joins at its enclosing finish.
  FinishAccum.back() = unionForced(FinishAccum.back(), ExitSet);
  CurForced = SavedForced.back();
  SavedForced.pop_back();
}

void DpstBuilder::onForce(uint32_t Fid) {
  // Accesses after the force are ordered after everything the future did;
  // close the step so they land in a fresh step carrying the new set.
  closeStep();
  CurForced = unionForcedWith(CurForced, Fid);
}

void DpstBuilder::onIsolatedEnter(const IsolatedStmt *, const Stmt *Owner) {
  closeStep();
  PendingOwner = Owner;
  InIsolated = true;
}

void DpstBuilder::onIsolatedExit(const IsolatedStmt *) {
  closeStep();
  InIsolated = false;
}

void DpstBuilder::onScopeEnter(ScopeKind K, const Stmt *Owner,
                               const BlockStmt *Body, const FuncDecl *Callee) {
  closeStep();
  DpstNode *N = D.createNode(DpstKind::Scope, Cur);
  N->Owner = Owner;
  N->SKind = static_cast<uint8_t>(K);
  N->Slot.Block = Body;
  N->Word.Callee = Callee;
  Cur = N;
}

void DpstBuilder::onScopeExit() {
  closeStep();
  closeCur();
}

void DpstBuilder::onStepPoint(const Stmt *Owner) {
  PendingOwner = Owner;
  if (CurStep)
    CurStep->Slot.LastOwner = Owner;
}

void DpstBuilder::onWork(uint64_t Units) { currentStep()->Word.Weight += Units; }

DpstNode *DpstBuilder::currentStep() {
  if (!CurStep) {
    CurStep = D.createNode(DpstKind::Step, Cur);
    CurStep->Owner = PendingOwner;
    CurStep->Slot.LastOwner = PendingOwner;
    CurStep->Aux = CurForced;
    if (InIsolated) {
      CurStep->Flags = DpstNode::IsolatedFlag;
      D.HasIsolatedOrFuture = true;
    }
  }
  return CurStep;
}
