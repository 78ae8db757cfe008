//===- StaticPlacer.h - Static finish placement ------------------*- C++ -*-===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Static finish placement (paper §6): maps a dynamic finish placement —
/// "enclose non-scope children [i..k] of this NS-LCA in a finish" — to an
/// edit of the input program, and replicates the resulting finish node at
/// every dynamic instance of the edited static site so the S-DPST stays
/// consistent without re-execution (paper steps 3(d)-(f)).
///
/// The mapping pipeline per range:
///
///  1. findInsertionPoint — the paper's bottom-up traversal: the highest
///     S-DPST position whose child range covers exactly the requested
///     nodes, rejecting ranges whose neighbors share a subtree (the Fig. 5
///     scoping condition, stricter than Algorithm 2's depth test because it
///     also guarantees AST expressibility).
///  2. mapRange — turns the insertion point into an AST edit: either a
///     consecutive statement range of one block (the common case), or
///     wrapping the body slot of a structured statement. Rejects edits
///     whose dynamic extent would swallow a race sink or a DP neighbor,
///     edits that split a statement between instances, and edits that
///     would capture a local declaration referenced after the range.
///  3. apply — performs the edit and inserts a matching finish node at
///     every dynamic instance of the site.
///
/// A single async/finish graph node can always be repaired by wrapping its
/// own statement (deep wrap), which is what makes the DP feasible.
///
//===----------------------------------------------------------------------===//

#ifndef TDR_REPAIR_STATICPLACER_H
#define TDR_REPAIR_STATICPLACER_H

#include "ast/AstContext.h"
#include "repair/ConstructChoice.h"
#include "repair/DepGraph.h"

#include <optional>
#include <unordered_map>
#include <unordered_set>

namespace tdr {

/// One applied finish repair, for reporting.
struct AppliedFinish {
  FinishStmt *Stmt = nullptr;   ///< the synthesized statement
  SourceLoc AnchorLoc;          ///< location of the first wrapped statement
  unsigned DynamicInstances = 0;///< S-DPST nodes inserted
};

/// One applied repair of any construct, for reporting. Finish repairs also
/// surface here (apply() wraps its AppliedFinish); force and isolated
/// repairs only here.
struct AppliedRepair {
  RepairConstruct Construct = RepairConstruct::Finish;
  SourceLoc AnchorLoc;           ///< pre-repair text position of the edit
  unsigned DynamicInstances = 0; ///< dynamic sites the edit covers
};

/// Performs static placement against one (program, S-DPST) pair. The
/// program and tree are mutated by apply(); validity queries are pure.
class StaticPlacer {
public:
  StaticPlacer(Dpst &Tree, AstContext &Ctx, Program &Prog);

  /// DP validity oracle: can a finish be placed around graph nodes [I, K]
  /// of \p G and mapped back to the program?
  bool isValidRange(const DepGroup &G, uint32_t I, uint32_t K);

  /// Applies the finish around [I, K]: edits the AST and replicates finish
  /// nodes across the S-DPST. Returns the applied record, or nullopt when
  /// mapping fails (callers fall back to re-detection).
  std::optional<AppliedFinish> apply(const DepGroup &G, uint32_t I,
                                     uint32_t K);

  /// Can edge (X, Y) be cut by forcing a future earlier? Requires the
  /// source node to be a future whose declaring statement shares a block
  /// with the sink's covering statement, the sink coming later.
  bool canForce(const DepGroup &G, uint32_t X, uint32_t Y);

  /// Inserts `force(f);` directly in front of the sink's covering
  /// statement. The force joins the future's whole subtree, ordering the
  /// racing accesses without joining unrelated tasks.
  std::optional<AppliedRepair> applyForce(const DepGroup &G, uint32_t X,
                                          uint32_t Y);

  /// Can edge (X, Y) be cut by isolating the racing statements? Every
  /// race on the edge must have both steps covered by a single, simple
  /// statement (assignment or builtin call, no user calls) sitting
  /// directly in a block.
  bool canIsolate(const DepGroup &G, uint32_t X, uint32_t Y);

  /// Wraps each racing statement of the edge in `isolated { }`.
  std::optional<AppliedRepair> applyIsolated(const DepGroup &G, uint32_t X,
                                             uint32_t Y);

  /// Modeled critical-path penalty of isolating edge (X, Y): per race,
  /// the shorter racing step may wait for the longer one, so the penalty
  /// is the sum of min(source weight, sink weight), at least 1 per race.
  uint64_t isolatedPenalty(const DepGroup &G, uint32_t X, uint32_t Y) const;

  const std::vector<AppliedFinish> &applied() const { return Applied; }

  /// Why the most recent isValidRange/apply call rejected its range
  /// (empty after a successful mapping). Feeds placement provenance in
  /// run reports.
  const std::string &lastRejectReason() const { return RejectReason; }

private:
  /// A finish position: the children First..Last of Parent.
  struct InsertionPoint {
    DpstNode *Parent = nullptr;
    const DpstNode *First = nullptr, *Last = nullptr;
  };

  /// Statement-level description of the edit.
  struct Edit {
    /// Block edit: wrap Block->stmts()[FirstIdx..LastIdx].
    BlockStmt *Block = nullptr;
    size_t FirstIdx = 0, LastIdx = 0;
    /// Slot edit: wrap the statement *Slot points at (a body slot of a
    /// structured statement). Wrapped is the current occupant.
    Stmt *SlotOwner = nullptr;
    enum class SlotKind {
      None, IfThen, IfElse, WhileBody, ForBody, AsyncBody, FinishBody,
      IsolatedBody
    } Slot = SlotKind::None;
    Stmt *Wrapped = nullptr;
  };

  /// A mapped force edit: insert `force(f);` at InsertIdx of Block.
  struct ForceEdit {
    BlockStmt *Block = nullptr;
    size_t InsertIdx = 0;
    const FutureStmt *Future = nullptr;
    const Stmt *SinkStmt = nullptr;
  };

  /// A mapped isolated edit: the (unique) racing statements to wrap.
  struct IsolatedEdit {
    struct Site {
      BlockStmt *Block = nullptr;
      size_t Index = 0;
      Stmt *Target = nullptr;
    };
    std::vector<Site> Sites;
  };

  std::optional<ForceEdit> mapForce(const DepGroup &G, uint32_t X,
                                    uint32_t Y);
  std::optional<IsolatedEdit> mapIsolated(const DepGroup &G, uint32_t X,
                                          uint32_t Y);

  /// Candidate insertion positions from the initial LCA position up to the
  /// highest equivalent one; empty when the range cannot be separated from
  /// its neighbors at all.
  std::vector<InsertionPoint> findInsertionPoints(const DpstNode *L,
                                                  DpstNode *First,
                                                  DpstNode *Last,
                                                  const DpstNode *LeftN,
                                                  const DpstNode *RightN);

  std::optional<Edit> mapRange(const DepGroup &G, uint32_t I, uint32_t K);
  std::optional<Edit> mapBlockEdit(const DepGroup &G, uint32_t I, uint32_t K,
                                   const InsertionPoint &IP);
  /// Fallback for single async/finish nodes: wrap their own statement.
  std::optional<Edit> deepWrapEdit(DpstNode *X);

  /// Index of \p S in \p B, looking through synthesized finishes that
  /// earlier edits may have wrapped around it; npos when absent.
  size_t findStmtIndex(const BlockStmt *B, const Stmt *S) const;

  /// True when a local declared in B[First..Last] is referenced by
  /// statements after Last (wrapping would break scoping).
  bool declEscapes(const BlockStmt *B, size_t First, size_t Last) const;

  FinishStmt *applyEdit(const Edit &E);
  unsigned replicate(const Edit &E, FinishStmt *NewFinish);

  /// Rebuilds the statement parent-slot map and block instance map.
  void indexProgram();
  void indexTree();

  Dpst &Tree;
  AstContext &Ctx;
  Program &Prog;

  /// All scope instances per container block (for replication).
  std::unordered_map<const BlockStmt *, std::vector<DpstNode *>>
      BlockInstances;
  /// All async/finish nodes per statement (for slot-wrap replication).
  std::unordered_map<const Stmt *, std::vector<DpstNode *>> StmtInstances;
  /// Parent slot of each statement (for deep wraps).
  struct ParentSlot {
    BlockStmt *Block = nullptr;
    Stmt *Owner = nullptr;
    Edit::SlotKind Slot = Edit::SlotKind::None;
  };
  std::unordered_map<const Stmt *, ParentSlot> Parents;

  std::vector<AppliedFinish> Applied;
  std::string RejectReason; ///< see lastRejectReason()
  /// Statements already wrapped in a synthesized isolated section (an
  /// edge with several races over one statement wraps it once).
  std::unordered_set<const Stmt *> IsolatedWrapped;
};

} // namespace tdr

#endif // TDR_REPAIR_STATICPLACER_H
