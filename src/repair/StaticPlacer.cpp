//===- StaticPlacer.cpp ---------------------------------------------------===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//

#include "repair/StaticPlacer.h"

#include "ast/Transforms.h"
#include "obs/Metrics.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

using namespace tdr;

namespace {
constexpr size_t Npos = static_cast<size_t>(-1);
} // namespace

StaticPlacer::StaticPlacer(Dpst &Tree, AstContext &Ctx, Program &Prog)
    : Tree(Tree), Ctx(Ctx), Prog(Prog),
      OracleSteps(obs::counter("repair.oracle_steps")) {
  indexProgram();
  indexTree();
}

//===----------------------------------------------------------------------===//
// Indexing
//===----------------------------------------------------------------------===//

void StaticPlacer::indexProgram() {
  Parents.clear();
  // Record, for every statement, the slot it occupies.
  struct Walker {
    StaticPlacer &SP;
    void block(BlockStmt *B) {
      for (Stmt *S : B->stmts()) {
        SP.Parents[S] = ParentSlot{B, nullptr, Edit::SlotKind::None};
        visit(S);
      }
    }
    void slot(Stmt *Child, Stmt *Owner, Edit::SlotKind K) {
      SP.Parents[Child] = ParentSlot{nullptr, Owner, K};
      visit(Child);
    }
    void visit(Stmt *S) {
      switch (S->kind()) {
      case Stmt::Kind::Block:
        block(cast<BlockStmt>(S));
        break;
      case Stmt::Kind::If: {
        auto *I = cast<IfStmt>(S);
        slot(I->thenStmt(), I, Edit::SlotKind::IfThen);
        if (I->elseStmt())
          slot(I->elseStmt(), I, Edit::SlotKind::IfElse);
        break;
      }
      case Stmt::Kind::While:
        slot(cast<WhileStmt>(S)->body(), S, Edit::SlotKind::WhileBody);
        break;
      case Stmt::Kind::For:
        slot(cast<ForStmt>(S)->body(), S, Edit::SlotKind::ForBody);
        break;
      case Stmt::Kind::Async:
        slot(cast<AsyncStmt>(S)->body(), S, Edit::SlotKind::AsyncBody);
        break;
      case Stmt::Kind::Finish:
        slot(cast<FinishStmt>(S)->body(), S, Edit::SlotKind::FinishBody);
        break;
      case Stmt::Kind::Isolated:
        // An isolated body cannot contain synchronization constructs
        // (sema), but the slot is indexed so repairs that wrapped a
        // statement keep a consistent parent map.
        slot(cast<IsolatedStmt>(S)->body(), S, Edit::SlotKind::IsolatedBody);
        break;
      case Stmt::Kind::VarDecl:
      case Stmt::Kind::Assign:
      case Stmt::Kind::Expr:
      case Stmt::Kind::Return:
      // A future's initializer is an expression (no statement slots), and
      // forasync is lowered before repair ever runs — leaves here.
      case Stmt::Kind::Future:
      case Stmt::Kind::Forasync:
        break;
      }
    }
  } W{*this};
  for (FuncDecl *F : Prog.funcs())
    W.block(F->body());
}

void StaticPlacer::indexTree() {
  BlockInstances.clear();
  StmtInstances.clear();
  std::vector<DpstNode *> Stack{Tree.root()};
  while (!Stack.empty()) {
    DpstNode *N = Stack.back();
    Stack.pop_back();
    if (N->isScope() && N->container())
      BlockInstances[N->container()].push_back(N);
    if (N->isAsync() && N->asyncStmt())
      StmtInstances[N->asyncStmt()].push_back(N);
    if (N->isFinish() && N->finishStmt())
      StmtInstances[N->finishStmt()].push_back(N);
    if (N->isFuture() && N->futureStmt())
      StmtInstances[N->futureStmt()].push_back(N);
    for (DpstNode *C : Tree.children(N))
      Stack.push_back(C);
  }
}

//===----------------------------------------------------------------------===//
// Statement lookup helpers
//===----------------------------------------------------------------------===//

namespace {
/// True when \p S lives inside \p Container, looking only through
/// synthesized finishes and the blocks they created.
bool containsThroughSynthesized(const Stmt *Container, const Stmt *S) {
  if (Container == S)
    return true;
  if (const auto *F = dyn_cast<FinishStmt>(Container); F && F->isSynthesized())
    return containsThroughSynthesized(F->body(), S);
  if (const auto *I = dyn_cast<IsolatedStmt>(Container);
      I && I->isSynthesized())
    return containsThroughSynthesized(I->body(), S);
  if (const auto *B = dyn_cast<BlockStmt>(Container)) {
    for (const Stmt *C : B->stmts())
      if (containsThroughSynthesized(C, S))
        return true;
  }
  return false;
}

/// Visits \p S and, through synthesized finishes, the statements earlier
/// edits moved under it: the statements that may own S-DPST nodes created
/// by running S.
template <typename Fn> void forEachOwner(const Stmt *S, Fn &&Visit) {
  Visit(S);
  if (const auto *F = dyn_cast<FinishStmt>(S); F && F->isSynthesized()) {
    forEachOwner(F->body(), Visit);
    return;
  }
  if (const auto *I = dyn_cast<IsolatedStmt>(S); I && I->isSynthesized()) {
    forEachOwner(I->body(), Visit);
    return;
  }
  if (const auto *B = dyn_cast<BlockStmt>(S))
    for (const Stmt *C : B->stmts())
      forEachOwner(C, Visit);
}

/// Index of \p N among \p Kids (sorted by preorder position), or Npos.
size_t positionOf(const std::vector<const DpstNode *> &Kids,
                  const DpstNode *N) {
  auto It = std::lower_bound(
      Kids.begin(), Kids.end(), N->pre(),
      [](const DpstNode *C, uint32_t Pre) { return C->pre() < Pre; });
  return It != Kids.end() && *It == N ? static_cast<size_t>(It - Kids.begin())
                                      : Npos;
}
} // namespace

uint32_t StaticPlacer::topIndex(const BlockStmt *B, const Stmt *S) {
  auto [It, New] = StmtIndexes.try_emplace(B);
  std::unordered_map<const Stmt *, uint32_t> &Index = It->second;
  if (New)
    for (uint32_t I = 0; I != B->stmts().size(); ++I)
      forEachOwner(B->stmts()[I], [&, I = I](const Stmt *Owner) {
        [[maybe_unused]] bool Fresh = Index.emplace(Owner, I).second;
        assert(Fresh && "a statement sits under one top-level statement");
      });
  auto Found = Index.find(S);
  return Found != Index.end() ? Found->second : NoStmt;
}

const StaticPlacer::KidIndex &StaticPlacer::kidIndex(const DpstNode *P) {
  auto [It, New] = KidIndexes.try_emplace(P);
  KidIndex &KI = It->second;
  if (!New)
    return KI;
  const BlockStmt *B = P->container();
  uint32_t Prev = 0;
  for (const DpstNode *C : Tree.children(P)) {
    uint32_t Lo = topIndex(B, C->owner()), Hi = topIndex(B, C->ownerLast());
    KI.Kids.push_back(C);
    if (Lo == NoStmt || Hi == NoStmt)
      continue;
    // The block runs its statements in order, and a node's owners are
    // the statements running while it is open.
    KI.Ordered &= Prev <= Lo && Lo <= Hi;
    Prev = Hi;
    KI.Regular.push_back(static_cast<uint32_t>(KI.Kids.size() - 1));
    KI.Lo.push_back(Lo);
    KI.Hi.push_back(Hi);
  }
  assert(KI.Ordered && "children out of statement order");
  OracleSteps.inc(KI.Kids.size());
  return KI;
}

void StaticPlacer::dropIndexes() {
  StmtIndexes.clear();
  KidIndexes.clear();
}

size_t StaticPlacer::findStmtIndex(const BlockStmt *B, const Stmt *S) const {
  const auto &Stmts = B->stmts();
  for (size_t I = 0; I != Stmts.size(); ++I) {
    if (Stmts[I] == S)
      return I;
    if (const auto *F = dyn_cast<FinishStmt>(Stmts[I]);
        F && F->isSynthesized() && containsThroughSynthesized(F, S))
      return I;
    if (const auto *Iso = dyn_cast<IsolatedStmt>(Stmts[I]);
        Iso && Iso->isSynthesized() && containsThroughSynthesized(Iso, S))
      return I;
  }
  return Npos;
}

bool StaticPlacer::declEscapes(const BlockStmt *B, size_t First,
                               size_t Last) const {
  std::unordered_set<const VarDecl *> Decls;
  for (size_t I = First; I <= Last; ++I) {
    if (const auto *V = dyn_cast<VarDeclStmt>(B->stmts()[I]))
      Decls.insert(V->decl());
    // A future statement declares its handle in the enclosing scope;
    // wrapping it in a finish moves the declaration into the finish body
    // and strands any later force(f) (sema rejects the print).
    else if (const auto *F = dyn_cast<FutureStmt>(B->stmts()[I]))
      Decls.insert(F->decl());
  }
  if (Decls.empty())
    return false;
  bool Escapes = false;
  for (size_t I = Last + 1; I != B->stmts().size() && !Escapes; ++I)
    forEachExpr(B->stmts()[I], [&](const Expr *E) {
      if (const auto *Ref = dyn_cast<VarRefExpr>(E))
        if (Decls.count(Ref->decl()))
          Escapes = true;
    });
  return Escapes;
}

//===----------------------------------------------------------------------===//
// Insertion point (paper §5.2, bottom-up traversal)
//===----------------------------------------------------------------------===//

std::vector<StaticPlacer::InsertionPoint>
StaticPlacer::findInsertionPoints(const DpstNode *L, DpstNode *First,
                                  DpstNode *Last, const DpstNode *LeftN,
                                  const DpstNode *RightN) {
  DpstNode *P = First == Last ? First->parent()
                              : const_cast<DpstNode *>(Tree.lca(First, Last));
  const DpstNode *CB = First == Last ? First : Tree.childToward(P, First);
  const DpstNode *CE = First == Last ? Last : Tree.childToward(P, Last);
  assert(CB && CE && "range endpoints must be strict descendants");

  // The finish must separate the range from its DP neighbors: reject when
  // a neighbor lives inside a boundary subtree (the Fig. 5 condition).
  if (LeftN && Tree.isAncestorOrSelf(CB, LeftN))
    return {};
  if (RightN && Tree.isAncestorOrSelf(CE, RightN))
    return {};

  // Bottom-up (paper §5.2): collect every position up to the highest node
  // whose whole child list is covered; wrapping that node at its parent is
  // dynamically equivalent, but the AST mapping may only be expressible at
  // some of the levels, so the caller tries them highest first.
  std::vector<InsertionPoint> Points;
  Points.push_back(InsertionPoint{P, CB, CE});
  while (P != L && Tree.spansAllChildren(CB, CE)) {
    CB = CE = P;
    P = P->parent();
    Points.push_back(InsertionPoint{P, CB, CE});
  }
  return Points;
}

//===----------------------------------------------------------------------===//
// Range -> AST edit mapping
//===----------------------------------------------------------------------===//

std::optional<StaticPlacer::Edit>
StaticPlacer::mapBlockEdit(const DepGroup &G, const CrossingTable &Cross,
                           uint32_t I, uint32_t K, const InsertionPoint &IP) {
  DpstNode *P = IP.Parent;
  const BlockStmt *CB = P->container();
  assert(CB && "block edits need a container");
  OracleSteps.inc();

  // The wrap is the statement range [IF, IL] of CB. A child is in it when
  // its owner is, and covered when its last owner is too.
  uint32_t IF = topIndex(CB, IP.First->owner());
  uint32_t IL = topIndex(CB, IP.Last->ownerLast());
  if (IF == NoStmt || IL == NoStmt || IF > IL)
    return std::nullopt;
  assert(IF == findStmtIndex(CB, IP.First->owner()) &&
         IL == findStmtIndex(CB, IP.Last->ownerLast()));
  const KidIndex &KI = kidIndex(P);
  size_t Begin = positionOf(KI.Kids, IP.First);
  size_t End = positionOf(KI.Kids, IP.Last);
  if (!KI.Ordered || Begin == Npos || End == Npos)
    return std::nullopt;

  // Statement order makes the covered children the regular ones from the
  // first owned at or after IF to the last ending at or before IL. A child
  // a statement boundary splits can only be the regular neighbor on either
  // side of that run; steps carry no synchronization structure and may
  // stay outside the finish, anything else is unmappable.
  size_t R1 = static_cast<size_t>(
      std::lower_bound(KI.Lo.begin(), KI.Lo.end(), IF) - KI.Lo.begin());
  size_t R2 = static_cast<size_t>(
      std::upper_bound(KI.Hi.begin(), KI.Hi.end(), IL) - KI.Hi.begin());
  auto SplitNonStep = [&](size_t R) {
    bool In1 = IF <= KI.Lo[R] && KI.Lo[R] <= IL;
    bool In2 = IF <= KI.Hi[R] && KI.Hi[R] <= IL;
    return In1 != In2 && !KI.Kids[KI.Regular[R]]->isStep();
  };
  if ((R1 > 0 && SplitNonStep(R1 - 1)) ||
      (R2 < KI.Regular.size() && SplitNonStep(R2)))
    return std::nullopt;
  if (R1 >= R2)
    return std::nullopt;
  size_t CoverBegin = KI.Regular[R1], CoverEnd = KI.Regular[R2 - 1];
  if (CoverEnd - CoverBegin != R2 - 1 - R1)
    return std::nullopt; // covered children must be consecutive
  if (CoverBegin > Begin || CoverEnd < End)
    return std::nullopt;

  // The wrap's dynamic extent may exceed [Begin, End] (whole statements
  // only). That is harmless — a finish only adds joins — except that the
  // sinks of the edges this finish is meant to resolve must stay outside,
  // or those races stay inside the finish and remain unresolved. Children
  // left of Begin hold only graph nodes before I. Children right of End
  // hold a prefix of the nodes after K, because findInsertionPoints keeps
  // node K + 1 out of Kids[End]. So the smallest crossing sink is the only
  // one to test.
  uint32_t MinSink = Cross.minSink(I, K);
  if (MinSink != CrossingTable::NoEdge && CoverEnd > End) {
    const DpstNode *Sink = G.Nodes[MinSink];
    auto It = std::upper_bound(
        KI.Kids.begin(), KI.Kids.end(), Sink->pre(),
        [](uint32_t Pre, const DpstNode *C) { return Pre < C->pre(); });
    size_t At = static_cast<size_t>(It - KI.Kids.begin());
    if (At > End + 1 && At - 1 <= CoverEnd &&
        Tree.isAncestorOrSelf(KI.Kids[At - 1], Sink))
      return std::nullopt;
  }

  if (declEscapes(CB, IF, IL))
    return std::nullopt;

  Edit E;
  E.Block = const_cast<BlockStmt *>(CB);
  E.FirstIdx = IF;
  E.LastIdx = IL;
  return E;
}

std::optional<StaticPlacer::Edit> StaticPlacer::deepWrapEdit(DpstNode *X) {
  const Stmt *A = X->isAsync()    ? static_cast<const Stmt *>(X->asyncStmt())
                  : X->isFuture() ? static_cast<const Stmt *>(X->futureStmt())
                                  : static_cast<const Stmt *>(X->finishStmt());
  if (!A)
    return std::nullopt;
  auto It = Parents.find(A);
  if (It == Parents.end())
    return std::nullopt;
  const ParentSlot &PS = It->second;
  Edit E;
  if (PS.Block) {
    size_t Idx = findStmtIndex(PS.Block, A);
    if (Idx == Npos)
      return std::nullopt;
    if (declEscapes(PS.Block, Idx, Idx))
      return std::nullopt;
    E.Block = PS.Block;
    E.FirstIdx = E.LastIdx = Idx;
    return E;
  }
  if (!PS.Owner)
    return std::nullopt;
  E.SlotOwner = PS.Owner;
  E.Slot = PS.Slot;
  E.Wrapped = const_cast<Stmt *>(A);
  return E;
}

std::optional<StaticPlacer::Edit>
StaticPlacer::mapRange(const DepGroup &G, const CrossingTable &Cross,
                       uint32_t I, uint32_t K) {
  RejectReason.clear();
  DpstNode *First = G.Nodes[I];
  DpstNode *Last = G.Nodes[K];
  const DpstNode *LeftN = I > 0 ? G.Nodes[I - 1] : nullptr;
  const DpstNode *RightN = K + 1 < G.Nodes.size() ? G.Nodes[K + 1] : nullptr;

  std::vector<InsertionPoint> Points =
      findInsertionPoints(G.Lca, First, Last, LeftN, RightN);
  for (auto It = Points.rbegin(), End = Points.rend(); It != End; ++It) {
    const InsertionPoint &IP = *It;
    DpstNode *P = IP.Parent;
    if (P->isScope() && P->container()) {
      if (auto E = mapBlockEdit(G, Cross, I, K, IP))
        return E;
    } else if ((P->isAsync() || P->isFinish()) &&
               Tree.spansAllChildren(IP.First, IP.Last)) {
      // Wrap the whole body of the async/finish statement.
      const Stmt *OwnerStmt =
          P->isAsync() ? static_cast<const Stmt *>(P->asyncStmt())
                       : static_cast<const Stmt *>(P->finishStmt());
      if (OwnerStmt) {
        Edit E;
        E.SlotOwner = const_cast<Stmt *>(OwnerStmt);
        E.Slot = P->isAsync() ? Edit::SlotKind::AsyncBody
                              : Edit::SlotKind::FinishBody;
        E.Wrapped = P->isAsync()
                        ? cast<AsyncStmt>(E.SlotOwner)->body()
                        : cast<FinishStmt>(E.SlotOwner)->body();
        return E;
      }
    }
  }

  // Single async/future/finish nodes can always be repaired by wrapping
  // their own statement (a finish around a future joins it at finish exit),
  // which keeps the DP feasible.
  if (I == K && (First->isTaskNode() || First->isFinish())) {
    if (auto E = deepWrapEdit(First))
      return E;
  }
  RejectReason =
      Points.empty()
          ? "a DP neighbor shares a boundary subtree of the range "
            "(Fig. 5 scoping condition)"
          : "no AST edit maps this range (statement split across "
            "instances, swallowed race sink, or escaping declaration)";
  return std::nullopt;
}

bool StaticPlacer::isValidRange(const DepGroup &G, const CrossingTable &Cross,
                                uint32_t I, uint32_t K) {
  return mapRange(G, Cross, I, K).has_value();
}

//===----------------------------------------------------------------------===//
// Applying edits
//===----------------------------------------------------------------------===//

FinishStmt *StaticPlacer::applyEdit(const Edit &E) {
  if (E.Block) {
    std::vector<Stmt *> Moved(E.Block->stmts().begin() +
                                  static_cast<ptrdiff_t>(E.FirstIdx),
                              E.Block->stmts().begin() +
                                  static_cast<ptrdiff_t>(E.LastIdx) + 1);
    FinishStmt *NF = wrapInFinish(Ctx, E.Block, E.FirstIdx, E.LastIdx);
    // Keep the parent map usable for later deep wraps.
    if (Moved.size() == 1) {
      Parents[Moved[0]] =
          ParentSlot{nullptr, NF, Edit::SlotKind::FinishBody};
    } else {
      auto *Inner = cast<BlockStmt>(NF->body());
      for (Stmt *S : Moved)
        Parents[S] = ParentSlot{Inner, nullptr, Edit::SlotKind::None};
    }
    Parents[NF] = ParentSlot{E.Block, nullptr, Edit::SlotKind::None};
    return NF;
  }

  auto *NF = Ctx.createStmt<FinishStmt>(E.Wrapped, E.Wrapped->loc());
  NF->setSynthesized(true);
  switch (E.Slot) {
  case Edit::SlotKind::IfThen:
    cast<IfStmt>(E.SlotOwner)->setThenStmt(NF);
    break;
  case Edit::SlotKind::IfElse:
    cast<IfStmt>(E.SlotOwner)->setElseStmt(NF);
    break;
  case Edit::SlotKind::WhileBody:
    cast<WhileStmt>(E.SlotOwner)->setBody(NF);
    break;
  case Edit::SlotKind::ForBody:
    cast<ForStmt>(E.SlotOwner)->setBody(NF);
    break;
  case Edit::SlotKind::AsyncBody:
    cast<AsyncStmt>(E.SlotOwner)->setBody(NF);
    break;
  case Edit::SlotKind::FinishBody:
    cast<FinishStmt>(E.SlotOwner)->setBody(NF);
    break;
  case Edit::SlotKind::IsolatedBody:
    assert(false && "sema bans finish inside isolated; mapRange never "
                    "produces this edit");
    return nullptr;
  case Edit::SlotKind::None:
    assert(false && "slot edit without a slot");
    return nullptr;
  }
  Parents[E.Wrapped] = ParentSlot{nullptr, NF, Edit::SlotKind::FinishBody};
  Parents[NF] = ParentSlot{nullptr, E.SlotOwner, E.Slot};
  return NF;
}

std::vector<DpstNode *> StaticPlacer::replicate(const Edit &E,
                                                FinishStmt *NewFinish) {
  std::vector<DpstNode *> &Inserted = StmtInstances[NewFinish];

  if (E.Block) {
    // The wrapped statements moved under NewFinish; recover them for the
    // coverage predicate.
    std::unordered_set<const Stmt *> OwnerSet;
    forEachOwner(NewFinish, [&](const Stmt *S) { OwnerSet.insert(S); });
    OwnerSet.erase(NewFinish); // owners predate the edit

    auto It = BlockInstances.find(E.Block);
    if (It == BlockInstances.end())
      return Inserted;
    for (DpstNode *Q : It->second) {
      const std::vector<DpstNode *> Kids = Tree.childList(Q);
      size_t Lo = Npos, Hi = Npos;
      for (size_t Idx = 0; Idx != Kids.size(); ++Idx) {
        const DpstNode *C = Kids[Idx];
        bool In1 = C->owner() && OwnerSet.count(C->owner());
        bool In2 = C->ownerLast() && OwnerSet.count(C->ownerLast());
        if (!(In1 && In2))
          continue;
        if (Lo == Npos)
          Lo = Idx;
        Hi = Idx;
      }
      if (Lo == Npos)
        continue;
      DpstNode *F = Tree.insertFinish(Kids[Lo], Kids[Hi], NewFinish);
      Inserted.push_back(F);
    }
    return Inserted;
  }

  // Slot edits.
  if (E.Slot == Edit::SlotKind::AsyncBody ||
      E.Slot == Edit::SlotKind::FinishBody) {
    // Wrapping the whole body of an async/finish: at every instance of the
    // owner, the new finish adopts all children.
    auto It = StmtInstances.find(E.SlotOwner);
    if (It == StmtInstances.end())
      return Inserted;
    for (DpstNode *X : It->second) {
      std::vector<DpstNode *> Kids = Tree.childList(X);
      if (Kids.empty())
        continue;
      DpstNode *F = Tree.insertFinish(Kids.front(), Kids.back(), NewFinish);
      Inserted.push_back(F);
    }
    return Inserted;
  }

  // Deep wrap of an async/finish statement in a structured body slot: wrap
  // each dynamic instance of the statement individually.
  auto It = StmtInstances.find(E.Wrapped);
  if (It == StmtInstances.end())
    return Inserted;
  for (DpstNode *X : It->second) {
    DpstNode *F = Tree.insertFinish(X, X, NewFinish);
    Inserted.push_back(F);
  }
  return Inserted;
}

//===----------------------------------------------------------------------===//
// Force-of-future repairs
//===----------------------------------------------------------------------===//

std::optional<StaticPlacer::ForceEdit>
StaticPlacer::mapForce(const DepGroup &G, uint32_t X, uint32_t Y) {
  RejectReason.clear();
  DpstNode *FX = G.Nodes[X];
  DpstNode *NY = G.Nodes[Y];
  if (!FX->isFuture() || !FX->futureStmt()) {
    RejectReason = "edge source is not a future";
    return std::nullopt;
  }
  const FutureStmt *FS = FX->futureStmt();
  if (!FS->decl()) {
    RejectReason = "future handle is unbound";
    return std::nullopt;
  }
  // The force must name the future's handle, so it can only be inserted
  // in the statement list that declares it: the container of the deepest
  // common position of the future and the sink.
  const DpstNode *L = Tree.lca(FX, NY);
  const BlockStmt *B = L->container();
  if (!B) {
    RejectReason = "future and sink share no statement list";
    return std::nullopt;
  }
  size_t FutIdx = findStmtIndex(B, FS);
  const DpstNode *SnkChild = Tree.childToward(L, NY);
  const Stmt *SinkStmt = SnkChild ? SnkChild->owner() : nullptr;
  if (!SinkStmt) {
    RejectReason = "sink has no covering statement in the future's block";
    return std::nullopt;
  }
  size_t SnkIdx = findStmtIndex(B, SinkStmt);
  if (FutIdx == Npos || SnkIdx == Npos) {
    RejectReason = "future and sink do not share a block";
    return std::nullopt;
  }
  if (FutIdx >= SnkIdx) {
    RejectReason = "sink statement does not follow the future declaration";
    return std::nullopt;
  }
  ForceEdit FE;
  FE.Block = const_cast<BlockStmt *>(B);
  FE.InsertIdx = SnkIdx;
  FE.Future = FS;
  FE.SinkStmt = SinkStmt;
  return FE;
}

bool StaticPlacer::canForce(const DepGroup &G, uint32_t X, uint32_t Y) {
  return mapForce(G, X, Y).has_value();
}

std::optional<AppliedRepair> StaticPlacer::applyForce(const DepGroup &G,
                                                      uint32_t X,
                                                      uint32_t Y) {
  auto FE = mapForce(G, X, Y);
  if (!FE)
    return std::nullopt;

  // Synthesize `force(f);` with sema-level invariants established by
  // hand: the callee is the Force builtin and the handle reference binds
  // to the future's declaration.
  SourceLoc Loc = FE->SinkStmt->loc();
  auto *Ref = Ctx.createExpr<VarRefExpr>(FE->Future->name(), Loc);
  Ref->setDecl(FE->Future->decl());
  Ref->setType(FE->Future->decl()->type());
  auto *Call =
      Ctx.createExpr<CallExpr>("force", std::vector<Expr *>{Ref}, Loc);
  Call->setBuiltin(Builtin::Force);
  if (FE->Future->decl()->type())
    Call->setType(FE->Future->decl()->type()->elem());
  auto *ES = Ctx.createStmt<ExprStmt>(Call, Loc);
  dropIndexes();
  FE->Block->stmts().insert(FE->Block->stmts().begin() +
                                static_cast<ptrdiff_t>(FE->InsertIdx),
                            ES);
  Parents[ES] = ParentSlot{FE->Block, nullptr, Edit::SlotKind::None};

  AppliedRepair R;
  R.Construct = RepairConstruct::ForceFuture;
  R.AnchorLoc = FE->SinkStmt->loc();
  auto It = BlockInstances.find(FE->Block);
  R.DynamicInstances =
      It != BlockInstances.end()
          ? static_cast<unsigned>(It->second.size())
          : 1;
  return R;
}

//===----------------------------------------------------------------------===//
// Isolated repairs
//===----------------------------------------------------------------------===//

std::optional<StaticPlacer::IsolatedEdit>
StaticPlacer::mapIsolated(const DepGroup &G, uint32_t X, uint32_t Y) {
  RejectReason.clear();
  IsolatedEdit Edit;
  std::unordered_set<const Stmt *> Seen;
  bool AnyRace = false;
  for (size_t R = 0; R != G.Races.size(); ++R) {
    if (G.RaceIdx[R] != std::make_pair(X, Y))
      continue;
    AnyRace = true;
    for (const DpstNode *StepN : {G.Races[R].Src, G.Races[R].Snk}) {
      const Stmt *S = StepN->owner();
      if (!S || S != StepN->ownerLast()) {
        RejectReason = "racing step spans more than one statement";
        return std::nullopt;
      }
      if (IsolatedWrapped.count(S) || Seen.count(S))
        continue;
      if (S->kind() != Stmt::Kind::Assign && S->kind() != Stmt::Kind::Expr) {
        RejectReason =
            "racing statement is not a simple assignment or call";
        return std::nullopt;
      }
      bool BadExpr = false;
      forEachExpr(S, [&](const Expr *E) {
        if (const auto *C = dyn_cast<CallExpr>(E))
          if (C->callee() || C->builtin() == Builtin::Force)
            BadExpr = true;
      });
      if (BadExpr) {
        RejectReason = "racing statement calls a function (sema forbids "
                       "synchronization inside isolated)";
        return std::nullopt;
      }
      auto It = Parents.find(S);
      if (It == Parents.end() || !It->second.Block) {
        RejectReason =
            "racing statement does not sit directly in a block";
        return std::nullopt;
      }
      BlockStmt *B = It->second.Block;
      size_t Idx = Npos;
      for (size_t I = 0; I != B->stmts().size(); ++I)
        if (B->stmts()[I] == S)
          Idx = I;
      if (Idx == Npos) {
        RejectReason = "racing statement moved under an earlier edit";
        return std::nullopt;
      }
      Seen.insert(S);
      Edit.Sites.push_back({B, Idx, const_cast<Stmt *>(S)});
    }
  }
  if (!AnyRace) {
    RejectReason = "edge carries no race with step-level witnesses";
    return std::nullopt;
  }
  std::sort(Edit.Sites.begin(), Edit.Sites.end(),
            [](const IsolatedEdit::Site &A, const IsolatedEdit::Site &B) {
              return A.Target->id() < B.Target->id();
            });
  return Edit;
}

bool StaticPlacer::canIsolate(const DepGroup &G, uint32_t X, uint32_t Y) {
  return mapIsolated(G, X, Y).has_value();
}

std::optional<AppliedRepair>
StaticPlacer::applyIsolated(const DepGroup &G, uint32_t X, uint32_t Y) {
  auto IE = mapIsolated(G, X, Y);
  if (!IE)
    return std::nullopt;

  dropIndexes();
  AppliedRepair R;
  R.Construct = RepairConstruct::Isolated;
  for (const IsolatedEdit::Site &Site : IE->Sites) {
    IsolatedStmt *Iso = wrapInIsolated(Ctx, Site.Block, Site.Index);
    Parents[Iso] = ParentSlot{Site.Block, nullptr, Edit::SlotKind::None};
    Parents[Site.Target] =
        ParentSlot{nullptr, Iso, Edit::SlotKind::IsolatedBody};
    IsolatedWrapped.insert(Site.Target);
    auto It = BlockInstances.find(Site.Block);
    R.DynamicInstances +=
        It != BlockInstances.end()
            ? static_cast<unsigned>(It->second.size())
            : 1;
  }
  if (!IE->Sites.empty())
    R.AnchorLoc = IE->Sites.front().Target->loc();
  else if (!G.Races.empty() && G.Races.front().Src->owner())
    R.AnchorLoc = G.Races.front().Src->owner()->loc();
  return R;
}

uint64_t StaticPlacer::isolatedPenalty(const DepGroup &G, uint32_t X,
                                       uint32_t Y) const {
  uint64_t Penalty = 0;
  for (size_t R = 0; R != G.Races.size(); ++R) {
    if (G.RaceIdx[R] != std::make_pair(X, Y))
      continue;
    uint64_t SrcW = G.Races[R].Src->weight();
    uint64_t SnkW = G.Races[R].Snk->weight();
    Penalty += std::max<uint64_t>(1, std::min(SrcW, SnkW));
  }
  return Penalty;
}

std::optional<AppliedFinish> StaticPlacer::apply(const DepGroup &G,
                                                 const CrossingTable &Cross,
                                                 uint32_t I, uint32_t K) {
  auto E = mapRange(G, Cross, I, K);
  if (!E)
    return std::nullopt;

  AppliedFinish Result;
  if (E->Block)
    Result.AnchorLoc = E->Block->stmts()[E->FirstIdx]->loc();
  else
    Result.AnchorLoc = E->Wrapped->loc();

  dropIndexes();
  FinishStmt *NF = applyEdit(*E);
  if (!NF)
    return std::nullopt;
  Result.Instances = replicate(*E, NF);
  return Result;
}
