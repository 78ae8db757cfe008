//===- Dpst.h - Scoped Dynamic Program Structure Tree ------------*- C++ -*-===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Scoped Dynamic Program Structure Tree (paper §4.2, Definition 2).
/// Leaves are step instances; interior nodes are async, finish, and scope
/// instances (plus one root task node). Children are ordered left-to-right
/// in execution order. Scope nodes record the lexical container (block or
/// call body) they execute, and every node records the *owner statement*
/// that created it inside its parent's container — the information the
/// static finish placement needs to map S-DPST positions back to source.
///
/// The tree is mutable: the repair pipeline inserts finish nodes
/// (Dpst::insertFinish) and re-asks the parallelism query afterwards.
///
/// Storage: nodes are 48-byte records in a chunked arena indexed by id,
/// with no per-node heap allocation. Subtrees are preorder intervals, so
/// containment and order are integer compares; the rare per-node data
/// (forced-future sets) lives in an interned side table.
///
/// Two shapes (DpstShape). The full tree materializes every node. The
/// compact tree, built for detection, folds the subtree of every async or
/// future that spawned nothing and spans a whole chunk into the task node
/// itself (a *collapsed leaf*, see DpstBuilder): ids and intervals stay
/// the same, the folded ids keep only a 4-byte index into an interned
/// table of step sites, and their chunks are freed. Theorem 1 reads only
/// the non-scope child of an NS-LCA, which for a folded step is the leaf
/// or one of its ancestors, so every parallelism, NS-LCA and witness
/// answer is the full tree's.
///
//===----------------------------------------------------------------------===//

#ifndef TDR_DPST_DPST_H
#define TDR_DPST_DPST_H

#include "interp/Monitor.h"

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace tdr {

class AsyncStmt;
class FinishStmt;
class FutureStmt;

namespace obs {
class Counter;
} // namespace obs

/// Kind of an S-DPST node. Future is appended so the original kinds keep
/// their numeric values (recorded traces and dumps stay comparable).
enum class DpstKind : uint8_t { Root, Async, Finish, Scope, Step, Future };

/// Which S-DPST a DpstBuilder builds (see the file comment): every node,
/// or spawn-free task subtrees folded into collapsed leaves.
enum class DpstShape : uint8_t { Full, Compact };

/// One S-DPST node: 48 bytes, owning nothing (the tree's arena holds it).
///
/// The tree is built depth first, so creation ids are preorder and every
/// subtree is the id interval [pre(), end()). Ancestor and order queries
/// compare interval bounds instead of walking; children are enumerated
/// from the intervals (Dpst::children). A finish node inserted by repair
/// (Dpst::insertFinish) takes the next free id, out of band, and spans
/// the interval of the sibling range it adopts; no existing id changes.
class DpstNode {
public:
  uint32_t id() const { return Id; }
  DpstKind kind() const { return Kind; }
  bool isStep() const { return Kind == DpstKind::Step; }
  bool isScope() const { return Kind == DpstKind::Scope; }
  bool isAsync() const { return Kind == DpstKind::Async; }
  bool isFinish() const { return Kind == DpstKind::Finish; }
  bool isRoot() const { return Kind == DpstKind::Root; }
  bool isFuture() const { return Kind == DpstKind::Future; }
  /// A node whose subtree runs concurrently with its parent's continuation
  /// (until joined): asyncs and futures.
  bool isTaskNode() const {
    return Kind == DpstKind::Async || Kind == DpstKind::Future;
  }
  /// Non-scope means async, future, finish, step, or root.
  bool isNonScope() const { return Kind != DpstKind::Scope; }
  /// A finish inserted by Dpst::insertFinish rather than executed.
  bool isInserted() const { return Flags & InsertedFlag; }
  /// An async or future whose spawn-free subtree is folded into it (compact
  /// shape only): it keeps its interval, but lists no children.
  bool isCollapsed() const { return Flags & CollapsedFlag; }

  DpstNode *parent() const { return Parent; }
  /// Number of proper ancestors (a walk to the root).
  uint32_t depth() const;

  /// Start of the subtree's preorder interval [pre, End): every node
  /// built below this one has an id in it. pre() is the id itself except
  /// for an inserted finish, which starts at its first adopted child.
  uint32_t pre() const { return isInserted() ? Aux : Id; }

  /// The statement in the parent's container that created this node; null
  /// for the root and for root-level steps. For steps, [owner, ownerLast]
  /// is the range of statements merged into the step; for an inserted
  /// finish, the range of its adopted children.
  const Stmt *owner() const { return Owner; }
  const Stmt *ownerLast() const {
    return isStep()       ? Slot.LastOwner
           : isInserted() ? Word.LastOwner
                          : Owner;
  }

  /// For scope nodes: why the scope exists.
  ScopeKind scopeKind() const { return static_cast<ScopeKind>(SKind); }
  /// The statement list this node executes: the block itself for Block
  /// scopes, the callee body for Call scopes, the async or finish body
  /// when that body was a block at execution time; null otherwise.
  const BlockStmt *container() const {
    return isScope() ? Slot.Block
           : (isAsync() || isFinish()) && !isInserted() ? Word.Body
                                                        : nullptr;
  }
  const FuncDecl *callee() const { return isScope() ? Word.Callee : nullptr; }
  const AsyncStmt *asyncStmt() const { return isAsync() ? Slot.Async : nullptr; }
  const FinishStmt *finishStmt() const {
    return isFinish() ? Slot.Finish : nullptr;
  }
  const FutureStmt *futureStmt() const {
    return isFuture() ? Slot.Future : nullptr;
  }

  /// For Future nodes: the dynamic future id (execution order, from 0).
  uint32_t futureId() const { return isFuture() ? Word.FutureId : 0; }

  /// Step weight in abstract work units (steps only).
  uint64_t weight() const { return isStep() ? Word.Weight : 0; }

  /// For steps: true when the step executed inside an isolated section.
  /// Two isolated steps commute (mutual exclusion), so a race between them
  /// is suppressed even though they may run in parallel.
  bool isIsolated() const { return Flags & IsolatedFlag; }

  /// Short description for dumps, e.g. "Async:12".
  std::string label() const;

private:
  friend class Dpst;
  friend class DpstBuilder;

  static constexpr uint8_t IsolatedFlag = 1;
  static constexpr uint8_t InsertedFlag = 2;
  static constexpr uint8_t CollapsedFlag = 4;
  /// End of a subtree that is still being built, so that containment
  /// holds for queries made during detection.
  static constexpr uint32_t OpenEnd = UINT32_MAX;

  uint32_t Id = 0;
  /// One past the subtree's interval: OpenEnd until the node's exit
  /// event, pre() + 1 for steps.
  uint32_t End = OpenEnd;
  /// Steps, futures and collapsed leaves: index of the forced set
  /// (Dpst::forced), 0 for none. Inserted finishes: pre().
  uint32_t Aux = 0;
  DpstKind Kind = DpstKind::Step;
  uint8_t SKind = 0;
  uint8_t Flags = 0;
  DpstNode *Parent = nullptr;
  const Stmt *Owner = nullptr;
  /// The node's statement, by kind.
  union {
    const Stmt *LastOwner;    ///< step: last merged statement
    const BlockStmt *Block;   ///< scope: the container
    const AsyncStmt *Async;   ///< async
    const FinishStmt *Finish; ///< finish
    const FutureStmt *Future; ///< future
  } Slot = {nullptr};
  /// One more word, by kind.
  union {
    uint64_t Weight;           ///< step
    const FuncDecl *Callee;    ///< scope
    uint32_t FutureId;         ///< future
    const BlockStmt *Body;     ///< executed async / finish: container()
    const Stmt *LastOwner;     ///< inserted finish: ownerLast()
  } Word = {0};
};

static_assert(sizeof(DpstNode) <= 48, "S-DPST nodes must stay compact");

/// Owns the nodes of one S-DPST and answers the structural queries the
/// analyses need. Node ids reflect creation order of the original
/// execution; ordering queries are structural (preorder intervals), so
/// they stay correct after finish insertion.
class Dpst {
public:
  /// Forward range over the children of one node, left to right.
  class ChildRange {
  public:
    class iterator {
    public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = DpstNode *;
      using difference_type = std::ptrdiff_t;
      using pointer = DpstNode *const *;
      using reference = DpstNode *;

      iterator() = default;
      DpstNode *operator*() const { return Cur; }
      iterator &operator++() {
        Cur = Tree->childAt(Parent, Cur->End, Limit);
        return *this;
      }
      bool operator==(const iterator &O) const { return Cur == O.Cur; }

    private:
      friend class ChildRange;
      iterator(const Dpst *Tree, const DpstNode *Parent, uint32_t Limit,
               DpstNode *Cur)
          : Tree(Tree), Parent(Parent), Limit(Limit), Cur(Cur) {}

      const Dpst *Tree = nullptr;
      const DpstNode *Parent = nullptr;
      uint32_t Limit = 0;
      DpstNode *Cur = nullptr;
    };

    iterator begin() const;
    iterator end() const { return iterator(); }

  private:
    friend class Dpst;
    ChildRange(const Dpst *Tree, const DpstNode *Parent)
        : Tree(Tree), Parent(Parent) {}

    const Dpst *Tree;
    const DpstNode *Parent;
  };

  Dpst();

  DpstNode *root() { return Root; }
  const DpstNode *root() const { return Root; }
  size_t numNodes() const { return NextId; }
  /// Materialized nodes: numNodes() less the ids folded into collapsed
  /// leaves.
  size_t numKept() const { return NextId - NumFolded; }
  /// Number of collapsed leaves.
  size_t numCollapsed() const { return CollapsedIds.size(); }
  /// The node with id \p Id (< numNodes()). For a step folded into a
  /// collapsed leaf: a memoized *pinned* step with the same id, owners,
  /// weight and forced set, whose parent is the leaf (which does not list
  /// it among its children). A folded scope has no node. Pinning is not
  /// thread safe.
  DpstNode *node(uint32_t Id) const {
    const Chunk &C = Chunks[Id >> ChunkBits];
    if (!C.Codes || !C.Codes[Id & (ChunkSize - 1)])
      return &C.Nodes[Id & (ChunkSize - 1)];
    return pinned(Id);
  }

  /// The children of \p N in left-to-right order.
  ChildRange children(const DpstNode *N) const { return ChildRange(this, N); }
  /// The children of \p N as a list, for index-based access.
  std::vector<DpstNode *> childList(const DpstNode *N) const;
  /// True when the siblings \p First..\p Last are all the children of
  /// their parent (two compares).
  bool spansAllChildren(const DpstNode *First, const DpstNode *Last) const {
    return First->pre() == firstChildPos(First->parent()) &&
           Last->End >= limitOf(Last->parent());
  }

  /// For steps: the sorted dynamic ids of every future known to have
  /// completed before this step started (directly forced, inherited from
  /// the spawner, joined through an enclosing finish, or reached
  /// transitively through another force). Null means none. For Future
  /// nodes: the same set as of the future's own exit, used for transitive
  /// propagation. Sets are interned per tree.
  /// For a collapsed leaf: the set of every step folded into it.
  const std::vector<uint32_t> *forced(const DpstNode *N) const {
    uint32_t I =
        (N->isStep() || N->isFuture() || N->isCollapsed()) ? N->Aux : 0;
    return I ? &ForcedSets[I] : nullptr;
  }

  /// Calls \p F with the weight of every step folded into the collapsed
  /// leaf \p L, in execution order: the leaf's body is one sequential
  /// chain of these steps, all carrying forced(L).
  template <typename Fn> void forEachFoldedStep(const DpstNode *L, Fn F) const {
    for (uint32_t Pos = L->Id + 1; Pos < L->End; ++Pos) {
      uint32_t Code = Chunks[Pos >> ChunkBits].Codes[Pos & (ChunkSize - 1)];
      if (Code != FoldedScope)
        F(StepSites[Code - 1].Weight);
    }
  }

  /// True when the execution ran an isolated step or a future.
  bool hasIsolatedOrFuture() const { return HasIsolatedOrFuture; }

  /// Bytes held by the tree: node chunks plus the side tables (forced
  /// sets, the folded ids' site indices, the interned sites and the pinned
  /// steps).
  size_t bytesUsed() const;

  /// Least common ancestor.
  const DpstNode *lca(const DpstNode *A, const DpstNode *B) const;

  /// Non-scope least common ancestor (Definition 4): the first non-scope
  /// node on the path from lca(A, B) to the root.
  const DpstNode *nsLca(const DpstNode *A, const DpstNode *B) const;

  /// True when \p A precedes \p B in the left-to-right (depth-first)
  /// order. A node precedes its own descendants.
  bool isLeftOf(const DpstNode *A, const DpstNode *B) const;

  /// True when \p Anc is \p N or an ancestor of \p N: interval
  /// containment, plus a walk over the inserted finishes that share an
  /// interval with \p N.
  bool isAncestorOrSelf(const DpstNode *Anc, const DpstNode *N) const {
    uint32_t AP = Anc->pre(), NP = N->pre();
    if (NP < AP || N->End > Anc->End)
      return false;
    if (NP != AP || N->End != Anc->End)
      return true;
    for (const DpstNode *X = N; X->pre() == AP && X->End == N->End;
         X = X->Parent) {
      if (X == Anc)
        return true;
      if (!X->Parent)
        break;
    }
    return false;
  }

  /// The child of \p Ancestor on the path down to \p Descendant; null when
  /// Descendant == Ancestor or not a descendant.
  const DpstNode *childToward(const DpstNode *Ancestor,
                              const DpstNode *Descendant) const;

  /// The *non-scope child* of \p N (Definition 3) that is an ancestor of
  /// (or equal to) \p Descendant: the first non-scope node walking down
  /// from N toward Descendant.
  const DpstNode *nonScopeChildToward(const DpstNode *N,
                                      const DpstNode *Descendant) const;

  /// Theorem 1, extended for futures: steps \p S1 (left of) \p S2 may
  /// execute in parallel iff the non-scope child of their NS-LCA on S1's
  /// side is a task node (async or future) AND no future on the path from
  /// either step to the LCA was forced before the other step started (a
  /// force is a join edge: everything the future did happens-before the
  /// forcing step's continuation).
  bool mayHappenInParallel(const DpstNode *S1, const DpstNode *S2) const;

  /// True when both steps ran inside isolated sections, i.e. a pair of
  /// conflicting accesses between them commutes under mutual exclusion and
  /// must not be reported as a race. Orthogonal to mayHappenInParallel:
  /// isolated steps may well run in parallel.
  static bool bothIsolated(const DpstNode *S1, const DpstNode *S2) {
    return S1->isIsolated() && S2->isIsolated();
  }

  /// Collects the non-scope children of \p N in left-to-right order
  /// (Definition 3: direct descendants with only scope nodes in between).
  std::vector<DpstNode *> nonScopeChildren(const DpstNode *N) const;

  /// Inserts a new finish node adopting the siblings \p First..\p Last
  /// (inclusive, left to right) in their place under their parent. Full
  /// shape only: placement edits the steps and scopes a fold drops.
  /// \p Site is the synthesized finish statement this dynamic node
  /// corresponds to. The node takes the next id; no other id changes.
  /// Returns the new node.
  DpstNode *insertFinish(DpstNode *First, DpstNode *Last,
                         const FinishStmt *Site);

  /// Sum of step weights under \p N (inclusive).
  uint64_t subtreeWork(const DpstNode *N) const;

  /// Critical path length of the subtree rooted at \p N assuming the node
  /// itself joins all its descendants (i.e. the completion time of N when
  /// started at time 0 and followed by a join of everything it spawned).
  /// A step waits for the futures its forced set names, as in the DAG of
  /// buildCompGraph; futures outside the subtree count as already done.
  uint64_t subtreeCpl(const DpstNode *N) const;

  /// Graphviz dump of the materialized nodes (small trees; tests and
  /// debugging).
  std::string dumpDot() const;

private:
  friend class DpstBuilder;

  static constexpr unsigned ChunkBits = 8;
  static constexpr uint32_t ChunkSize = 1u << ChunkBits;
  /// Site code of a folded id that was not a step (a scope); step codes
  /// are 1 + an index into StepSites, and 0 marks a materialized id.
  static constexpr uint32_t FoldedScope = UINT32_MAX;

  /// ChunkSize consecutive ids. Nodes is null once every id in it is
  /// folded; Codes exists once any id in it is, holding each id's site
  /// code.
  struct Chunk {
    std::unique_ptr<DpstNode[]> Nodes;
    std::unique_ptr<uint32_t[]> Codes;
  };

  /// What a folded step keeps.
  struct StepSite {
    const Stmt *Owner;
    const Stmt *LastOwner;
    uint64_t Weight;
    bool operator==(const StepSite &O) const {
      return Owner == O.Owner && LastOwner == O.LastOwner &&
             Weight == O.Weight;
    }
  };
  struct StepSiteHash {
    size_t operator()(const StepSite &S) const {
      uint64_t H =
          reinterpret_cast<uintptr_t>(S.Owner) * 0x9E3779B97F4A7C15ull;
      H ^= reinterpret_cast<uintptr_t>(S.LastOwner) + (H << 6) + (H >> 2);
      H ^= S.Weight * 0xbf58476d1ce4e5b9ull + (H << 6) + (H >> 2);
      return static_cast<size_t>(H);
    }
  };

  /// Appends a node with the next id to the arena.
  DpstNode *allocNode();
  DpstNode *createNode(DpstKind K, DpstNode *Parent);
  /// The child of \p Parent whose interval starts at preorder position
  /// \p Pos, or null when \p Pos is at or past \p Limit.
  DpstNode *childAt(const DpstNode *Parent, uint32_t Pos,
                    uint32_t Limit) const {
    if (Pos >= Limit)
      return nullptr;
    DpstNode *X = node(Pos);
    while (X->Parent != Parent)
      X = X->Parent;
    return X;
  }
  /// The preorder position of \p N's first child (if any).
  static uint32_t firstChildPos(const DpstNode *N) {
    return N->isInserted() ? N->pre() : N->id() + 1;
  }
  /// One past the last preorder position of \p N's children (none for a
  /// collapsed leaf).
  uint32_t limitOf(const DpstNode *N) const {
    if (N->isCollapsed())
      return firstChildPos(N);
    return N->End < NumBuilt ? N->End : NumBuilt;
  }
  /// The interned index of the sorted set \p S (0 for the empty set).
  uint32_t internForced(std::vector<uint32_t> S);
  /// Folds the closed subtree of the task node \p L into it: records each
  /// inner id's site code, frees the chunks wholly inside the interval and
  /// marks \p L collapsed. \p StepsForced is the forced set of every
  /// inner step. A subtree that holds no whole chunk stays materialized:
  /// folding it would free nothing and add a codes array.
  void fold(DpstNode *L, uint32_t StepsForced);
  /// The pinned step for the folded id \p Id (see node()).
  DpstNode *pinned(uint32_t Id) const;

  // Per-event instruments, bound at construction so node creation and the
  // MHP query touch one relaxed atomic each (see obs/Metrics.h).
  obs::Counter *CNodes;
  obs::Counter *CQueries;
  obs::Counter *CInserts;
  /// Node arena: fixed chunks of ChunkSize nodes, indexed by id.
  std::vector<Chunk> Chunks;
  DpstNode *Root = nullptr;
  uint32_t NextId = 0;
  /// Ids folded into collapsed leaves.
  uint32_t NumFolded = 0;
  /// Collapsed leaves by id; their intervals are disjoint, so the order
  /// is also preorder.
  std::vector<uint32_t> CollapsedIds;
  /// Interned step sites of the folded steps.
  std::vector<StepSite> StepSites;
  std::unordered_map<StepSite, uint32_t, StepSiteHash> SiteIndex;
  /// Pinned steps by id; node-based, so the pointers stay valid.
  mutable std::unordered_map<uint32_t, DpstNode> Pinned;
  /// Nodes created by the builder; their ids are preorder positions.
  /// Inserted finishes come after them.
  uint32_t NumBuilt = 0;
  bool HasIsolatedOrFuture = false;
  /// Interned forced sets; entry 0 is the empty set.
  std::vector<std::vector<uint32_t>> ForcedSets;
  std::unordered_multimap<uint64_t, uint32_t> ForcedIndex;
};

/// Builds an S-DPST from interpreter events.
///
/// In the compact shape, an async or future whose subtree ran no async,
/// future, finish, force or isolated step, and is large enough to free a
/// chunk, is folded into a collapsed leaf at its exit (Dpst::fold). Such
/// a subtree is one sequential chain of steps that all carry the task's
/// entry forced set; the finish exclusion keeps the task spine of every
/// folded step (its non-scope ancestors) the same as on the full tree.
class DpstBuilder : public ExecMonitor {
public:
  explicit DpstBuilder(Dpst &D, DpstShape Shape = DpstShape::Full);

  void onAsyncEnter(const AsyncStmt *S, const Stmt *Owner) override;
  void onAsyncExit(const AsyncStmt *S) override;
  void onFinishEnter(const FinishStmt *S, const Stmt *Owner) override;
  void onFinishExit(const FinishStmt *S) override;
  void onFutureEnter(const FutureStmt *S, const Stmt *Owner,
                     uint32_t Fid) override;
  void onFutureExit(const FutureStmt *S) override;
  void onForce(uint32_t Fid) override;
  void onIsolatedEnter(const IsolatedStmt *S, const Stmt *Owner) override;
  void onIsolatedExit(const IsolatedStmt *S) override;
  void onScopeEnter(ScopeKind K, const Stmt *Owner, const BlockStmt *Body,
                    const FuncDecl *Callee) override;
  void onScopeExit() override;
  void onStepPoint(const Stmt *Owner) override;
  void onWork(uint64_t Units) override;

  /// The step receiving the current accesses, creating it if needed. Race
  /// detectors call this instead of relying on monitor ordering.
  DpstNode *currentStep();

  /// The innermost task node (root or async) currently executing — the
  /// "current task" of the canonical sequential execution.
  DpstNode *currentTask() const { return TaskStack.back(); }

  /// The tree under construction. Detectors whose happens-before machinery
  /// over-approximates with futures in play (force edges are not bag/clock
  /// merges) confirm positive verdicts against it before recording.
  const Dpst &tree() const { return D; }

private:
  void closeStep() { CurStep = nullptr; }
  /// The current task's subtree stays materialized.
  void keepTask() { Foldable.back() = false; }
  /// Closes the current task node, folding it when the shape allows.
  void closeTask();
  /// Closes the subtree of the current node and moves up to its parent.
  void closeCur() {
    Cur->End = D.NextId;
    Cur = Cur->Parent;
  }
  /// Sorted-set union of two interned sets.
  uint32_t unionForced(uint32_t A, uint32_t B);
  /// A ∪ forced(future Fid) ∪ {Fid}, for the force edge.
  uint32_t unionForcedWith(uint32_t A, uint32_t Fid);

  Dpst &D;
  const DpstShape Shape;
  DpstNode *Cur;
  DpstNode *CurStep = nullptr;
  const Stmt *PendingOwner = nullptr;
  std::vector<DpstNode *> TaskStack;
  /// Per TaskStack entry: nothing so far rules out folding its subtree.
  std::vector<bool> Foldable;

  // Force-ordering bookkeeping (see Dpst::forced), as interned set
  // indices. CurForced is the set of completed futures known to the
  // currently executing sequential context; SavedForced restores it across
  // task enter/exit; FinishAccum (one slot per open finish or future, plus
  // a root slot) accumulates the exit sets of joined child tasks.
  uint32_t CurForced = 0;
  std::vector<uint32_t> SavedForced;
  std::vector<uint32_t> FinishAccum;
  std::vector<DpstNode *> FutureById;
  bool InIsolated = false;
};

} // namespace tdr

#endif // TDR_DPST_DPST_H
