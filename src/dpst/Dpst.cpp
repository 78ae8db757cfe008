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
#include <unordered_map>

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
    Chunks.emplace_back().Nodes = std::make_unique<DpstNode[]>(ChunkSize);
  DpstNode *N = &Chunks.back().Nodes[Id & (ChunkSize - 1)];
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

void Dpst::fold(DpstNode *L, uint32_t StepsForced) {
  uint32_t Begin = L->Id + 1, End = L->End;
  assert(L->isTaskNode() && End == NumBuilt &&
         "only the task subtree closed last folds");
  assert(NumBuilt == NextId && "nodes fold before finishes are inserted");
  uint64_t FirstWhole = (uint64_t(Begin) + ChunkSize - 1) >> ChunkBits;
  if ((FirstWhole + 1) << ChunkBits > End)
    return;
  uint32_t Last = 0; // code of the previous step: runs of one site are common
  for (uint32_t Pos = Begin; Pos < End; ++Pos) {
    Chunk &C = Chunks[Pos >> ChunkBits];
    if (!C.Codes)
      C.Codes = std::make_unique<uint32_t[]>(ChunkSize);
    const DpstNode &N = C.Nodes[Pos & (ChunkSize - 1)];
    assert((N.isStep() || N.isScope()) && "folded subtrees hold steps and "
                                          "scopes only");
    if (!N.isStep()) {
      C.Codes[Pos & (ChunkSize - 1)] = FoldedScope;
      continue;
    }
    assert(N.Aux == StepsForced && "folded steps share the task's forced set");
    StepSite S{N.Owner, N.Slot.LastOwner, N.Word.Weight};
    if (!Last || !(StepSites[Last - 1] == S)) {
      auto [It, Inserted] = SiteIndex.try_emplace(
          S, static_cast<uint32_t>(StepSites.size() + 1));
      if (Inserted)
        StepSites.push_back(S);
      Last = It->second;
    }
    C.Codes[Pos & (ChunkSize - 1)] = Last;
  }
  // Free the chunks that hold folded ids only.
  for (uint64_t K = FirstWhole; (K + 1) << ChunkBits <= End; ++K)
    Chunks[K].Nodes.reset();
  assert((!L->isFuture() || L->Aux == StepsForced) &&
         "a spawn-free future's exit set is its steps' set");
  L->Flags |= DpstNode::CollapsedFlag;
  L->Aux = StepsForced;
  NumFolded += End - Begin;
  CollapsedIds.push_back(L->Id);
}

DpstNode *Dpst::pinned(uint32_t Id) const {
  auto [It, Inserted] = Pinned.try_emplace(Id);
  DpstNode &N = It->second;
  if (!Inserted)
    return &N;
  uint32_t Code = Chunks[Id >> ChunkBits].Codes[Id & (ChunkSize - 1)];
  assert(Code != FoldedScope && "only folded steps are pinned");
  const StepSite &S = StepSites[Code - 1];
  DpstNode *Leaf =
      node(*(std::upper_bound(CollapsedIds.begin(), CollapsedIds.end(), Id) -
             1));
  N.Id = Id;
  N.End = Id + 1;
  N.Aux = Leaf->Aux;
  N.Kind = DpstKind::Step;
  N.Parent = Leaf;
  N.Owner = S.Owner;
  N.Slot.LastOwner = S.LastOwner;
  N.Word.Weight = S.Weight;
  return &N;
}

size_t Dpst::bytesUsed() const {
  size_t Bytes = Chunks.capacity() * sizeof(Chunk) +
                 ForcedSets.capacity() * sizeof(ForcedSets[0]);
  for (const Chunk &C : Chunks)
    Bytes += (C.Nodes ? ChunkSize * sizeof(DpstNode) : 0) +
             (C.Codes ? ChunkSize * sizeof(uint32_t) : 0);
  for (const std::vector<uint32_t> &S : ForcedSets)
    Bytes += S.capacity() * sizeof(uint32_t);
  // Hash nodes: key, value and the next pointer; plus the bucket array.
  Bytes += ForcedIndex.size() * (sizeof(void *) + 2 * sizeof(uint64_t)) +
           ForcedIndex.bucket_count() * sizeof(void *);
  Bytes += CollapsedIds.capacity() * sizeof(uint32_t) +
           StepSites.capacity() * sizeof(StepSite) +
           SiteIndex.size() * (sizeof(void *) + sizeof(StepSite) +
                               sizeof(uint64_t)) +
           SiteIndex.bucket_count() * sizeof(void *) +
           Pinned.size() * (sizeof(void *) + sizeof(uint64_t) +
                            sizeof(DpstNode)) +
           Pinned.bucket_count() * sizeof(void *);
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
  assert(!NumFolded && "finish insertion needs the full tree");

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
  // finishes carry no weight); a folded step's weight is in its site.
  uint64_t Total = 0;
  for (uint32_t Pos = N->pre(), Limit = std::min(N->End, NumBuilt);
       Pos < Limit; ++Pos) {
    const Chunk &C = Chunks[Pos >> ChunkBits];
    uint32_t Code = C.Codes ? C.Codes[Pos & (ChunkSize - 1)] : 0;
    Total += !Code                 ? C.Nodes[Pos & (ChunkSize - 1)].weight()
             : Code == FoldedScope ? 0
                                   : StepSites[Code - 1].Weight;
  }
  return Total;
}

namespace {
/// Recursive completion-time evaluation. walk() returns the pair
/// (SerialEnd, Pending) in absolute time: SerialEnd is when the node's own
/// sequential thread finishes, Pending the latest completion of spawned-
/// and-not-yet-joined tasks. A force joins the future it names, like the
/// force edges of buildCompGraph: a step starts no earlier than every
/// future in its forced set (Dpst::forced) completes. A future outside the
/// walked subtree counts as complete before the walk starts.
class CplWalker {
public:
  struct Result {
    uint64_t SerialEnd;
    uint64_t Pending;
  };

  explicit CplWalker(const Dpst &Tree) : Tree(Tree) {}

  Result walk(const DpstNode *N, uint64_t Start) {
    uint64_t Cur = Start;
    uint64_t Pending = Start;
    if (N->isCollapsed()) {
      // A collapsed leaf is the chain of its folded steps.
      uint64_t Ready = forcedDone(Tree.forced(N));
      Tree.forEachFoldedStep(
          N, [&](uint64_t W) { Cur = std::max(Cur, Ready) + W; });
      return {Cur, Pending};
    }
    for (const DpstNode *C : Tree.children(N)) {
      switch (C->kind()) {
      case DpstKind::Step:
        Cur = std::max(Cur, forcedDone(Tree.forced(C))) + C->weight();
        break;
      case DpstKind::Scope: {
        Result R = walk(C, Cur);
        Pending = std::max(Pending, R.Pending);
        Cur = R.SerialEnd;
        break;
      }
      case DpstKind::Async: {
        // The child task runs concurrently from the spawn point.
        Result R = walk(C, Cur);
        Pending = std::max({Pending, R.SerialEnd, R.Pending});
        break;
      }
      case DpstKind::Future: {
        // A future runs concurrently like an async; its implicit finish
        // folds internal pending work into its own completion time.
        Result R = walk(C, Cur);
        uint64_t End = std::max(R.SerialEnd, R.Pending);
        FutureDone[C->futureId()] = End;
        Pending = std::max(Pending, End);
        break;
      }
      case DpstKind::Finish: {
        // The parent resumes only after everything inside completes.
        Result R = walk(C, Cur);
        Cur = std::max(R.SerialEnd, R.Pending);
        break;
      }
      case DpstKind::Root:
        assert(false && "root cannot be a child");
        break;
      }
    }
    return {Cur, Pending};
  }

private:
  /// Latest completion of the futures a step's forced set \p F names.
  /// Every such future precedes the step in preorder, so its time is
  /// known; the result is memoized per interned set.
  uint64_t forcedDone(const std::vector<uint32_t> *F) {
    if (!F)
      return 0;
    auto [It, Inserted] = SetDone.try_emplace(F, 0);
    if (Inserted)
      for (uint32_t Fid : *F)
        if (auto D = FutureDone.find(Fid); D != FutureDone.end())
          It->second = std::max(It->second, D->second);
    return It->second;
  }

  const Dpst &Tree;
  /// Per dynamic future id: its absolute completion time.
  std::unordered_map<uint32_t, uint64_t> FutureDone;
  std::unordered_map<const std::vector<uint32_t> *, uint64_t> SetDone;
};
} // namespace

uint64_t Dpst::subtreeCpl(const DpstNode *N) const {
  CplWalker::Result R = CplWalker(*this).walk(N, 0);
  return std::max(R.SerialEnd, R.Pending);
}

std::string Dpst::dumpDot() const {
  std::string Out = "digraph sdpst {\n  node [shape=box];\n";
  for (uint32_t Id = 0; Id != NextId; ++Id) {
    const Chunk &C = Chunks[Id >> ChunkBits];
    if (C.Codes && C.Codes[Id & (ChunkSize - 1)])
      continue; // folded into a collapsed leaf
    const DpstNode &N = C.Nodes[Id & (ChunkSize - 1)];
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

DpstBuilder::DpstBuilder(Dpst &D, DpstShape Shape)
    : D(D), Shape(Shape), Cur(D.root()) {
  TaskStack.push_back(D.root());
  Foldable.push_back(false); // the root is not a task node
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

void DpstBuilder::closeTask() {
  DpstNode *N = Cur;
  closeCur();
  bool Fold = Foldable.back();
  Foldable.pop_back();
  // CurForced is still the task's own set: every step in it carries it.
  if (Shape == DpstShape::Compact && Fold)
    D.fold(N, CurForced);
}

void DpstBuilder::onAsyncEnter(const AsyncStmt *S, const Stmt *Owner) {
  closeStep();
  keepTask();
  DpstNode *N = D.createNode(DpstKind::Async, Cur);
  N->Owner = Owner;
  N->Slot.Async = S;
  // Null S happens only in synthetic event streams (bench/tests).
  if (S)
    if (const auto *B = dyn_cast<BlockStmt>(S->body()))
      N->Word.Body = B; // informational; the body block still gets a scope
  Cur = N;
  TaskStack.push_back(N);
  Foldable.push_back(true);
  // The child context inherits the spawner's completed-future knowledge;
  // the snapshot to restore at exit is the same set (spawning changes
  // nothing for the parent).
  SavedForced.push_back(CurForced);
}

void DpstBuilder::onAsyncExit(const AsyncStmt *) {
  closeStep();
  TaskStack.pop_back();
  closeTask();
  // The task's final knowledge becomes visible after its join point — the
  // immediately enclosing finish (or future's implicit finish).
  FinishAccum.back() = unionForced(FinishAccum.back(), CurForced);
  CurForced = SavedForced.back();
  SavedForced.pop_back();
}

void DpstBuilder::onFinishEnter(const FinishStmt *S, const Stmt *Owner) {
  closeStep();
  keepTask();
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
  keepTask();
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
  Foldable.push_back(true);
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
  closeTask();
  // Like an async, the future also joins at its enclosing finish.
  FinishAccum.back() = unionForced(FinishAccum.back(), ExitSet);
  CurForced = SavedForced.back();
  SavedForced.pop_back();
}

void DpstBuilder::onForce(uint32_t Fid) {
  // Accesses after the force are ordered after everything the future did;
  // close the step so they land in a fresh step carrying the new set.
  closeStep();
  keepTask();
  CurForced = unionForcedWith(CurForced, Fid);
}

void DpstBuilder::onIsolatedEnter(const IsolatedStmt *, const Stmt *Owner) {
  closeStep();
  keepTask();
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
