//===- Witness.cpp - Race witness reconstruction --------------------------===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//

#include "diag/Witness.h"

#include "ast/Ast.h"
#include "interp/Monitor.h"
#include "obs/Metrics.h"
#include "support/SourceManager.h"
#include "support/StringUtils.h"

#include <unordered_map>

using namespace tdr;
using namespace tdr::diag;

SourcePos diag::resolvePos(const SourceManager *SM, SourceLoc Loc) {
  SourcePos P;
  if (!SM || !Loc.isValid())
    return P;
  LineCol LC = SM->lineCol(Loc);
  P.Line = LC.Line;
  P.Col = LC.Col;
  if (P.Line)
    P.LineText = std::string(SM->lineText(P.Line));
  return P;
}

const char *diag::dpstKindName(DpstKind K) {
  switch (K) {
  case DpstKind::Root:
    return "root";
  case DpstKind::Async:
    return "async";
  case DpstKind::Finish:
    return "finish";
  case DpstKind::Scope:
    return "scope";
  case DpstKind::Step:
    return "step";
  case DpstKind::Future:
    return "future";
  }
  return "?";
}

const char *diag::accessKindName(AccessKind K) {
  return K == AccessKind::Write ? "write" : "read";
}

namespace {

/// Identifies one racing access for site refinement: which step, which
/// location, read or write.
struct SiteKey {
  uint32_t Step = 0;
  AccessKind Kind = AccessKind::Read;
  MemLoc Loc;

  bool operator==(const SiteKey &O) const {
    return Step == O.Step && Kind == O.Kind && Loc == O.Loc;
  }
};

struct SiteKeyHash {
  size_t operator()(const SiteKey &K) const {
    size_t H = MemLocHash()(K.Loc);
    H ^= (static_cast<size_t>(K.Step) * 0x9e3779b97f4a7c15ull) ^
         (static_cast<size_t>(K.Kind) << 17);
    return H;
  }
};

struct SiteVal {
  const Stmt *Site = nullptr;
  bool Set = false;
};

using SiteMap = std::unordered_map<SiteKey, SiteVal, SiteKeyHash>;

/// A scratch DpstBuilder that also recovers, for each wanted (step,
/// location, kind), the innermost statement executing when the access
/// happened. It sees the same event stream as the detection's builder and
/// calls currentStep() per access the way the detectors do, so scratch
/// node ids reproduce the detection tree's ids.
class SiteLocator final : public DpstBuilder {
public:
  SiteLocator(Dpst &Tree, SiteMap &Sites) : DpstBuilder(Tree), Sites(Sites) {}

  void onScopeEnter(ScopeKind K, const Stmt *Owner, const BlockStmt *Body,
                    const FuncDecl *Callee) override {
    DpstBuilder::onScopeEnter(K, Owner, Body, Callee);
    // An access after the scope returns (e.g. the rest of a call
    // expression) belongs to the suspended outer statement again.
    OwnerStack.push_back(CurOwner);
  }
  void onScopeExit() override {
    DpstBuilder::onScopeExit();
    if (!OwnerStack.empty()) {
      CurOwner = OwnerStack.back();
      OwnerStack.pop_back();
    }
  }
  void onStepPoint(const Stmt *Owner) override {
    DpstBuilder::onStepPoint(Owner);
    CurOwner = Owner;
  }
  void onRead(MemLoc L) override { record(L, AccessKind::Read); }
  void onWrite(MemLoc L) override { record(L, AccessKind::Write); }

private:
  void record(MemLoc L, AccessKind K) {
    DpstNode *Step = currentStep();
    auto It = Sites.find(SiteKey{Step->id(), K, L});
    if (It != Sites.end() && !It->second.Set)
      It->second = SiteVal{CurOwner, true};
  }

  SiteMap &Sites;
  const Stmt *CurOwner = nullptr;
  std::vector<const Stmt *> OwnerStack;
};

SourceLoc stmtLoc(const Stmt *S) { return S ? S->loc() : SourceLoc(); }

/// The statement that created an async, future or finish node; null for
/// the root.
const Stmt *taskStmt(const DpstNode *N) {
  if (N->isAsync())
    return N->asyncStmt();
  if (N->isFuture())
    return N->futureStmt();
  if (N->isFinish())
    return N->finishStmt();
  return nullptr;
}

AccessDesc describeAccess(const DpstNode *Step, AccessKind Kind, MemLoc Loc,
                          const SiteMap &Sites, const SourceManager *SM) {
  AccessDesc A;
  A.Step = Step->id();
  A.Kind = Kind;
  const Stmt *Site = Step->owner();
  auto It = Sites.find(SiteKey{Step->id(), Kind, Loc});
  if (It != Sites.end() && It->second.Set && It->second.Site)
    Site = It->second.Site;
  A.Pos = resolvePos(SM, stmtLoc(Site));
  return A;
}

std::vector<SpineEntry> taskSpine(const DpstNode *Step,
                                  const SourceManager *SM) {
  std::vector<SpineEntry> Out;
  for (const DpstNode *N = Step->parent(); N; N = N->parent()) {
    if (N->isScope())
      continue;
    SpineEntry E;
    E.Id = N->id();
    E.Kind = N->kind();
    E.Pos = resolvePos(SM, stmtLoc(taskStmt(N)));
    Out.push_back(std::move(E));
  }
  return Out;
}

} // namespace

std::vector<RaceWitness> diag::buildWitnesses(const Dpst &Tree,
                                              const RaceReport &Report,
                                              const SourceManager *SM,
                                              const Program *P,
                                              ExecOptions Exec) {
  std::vector<RaceWitness> Out;
  if (Report.Pairs.empty())
    return Out;

  SiteMap Sites;
  if (P) {
    for (const RacePair &R : Report.Pairs) {
      Sites.try_emplace(SiteKey{R.Src->id(), R.SrcKind, R.Loc});
      Sites.try_emplace(SiteKey{R.Snk->id(), R.SnkKind, R.Loc});
    }
    // The scratch tree exists only to resolve ids; keep its node counters
    // out of the caller's registry so detection metrics stay exact.
    obs::MetricsRegistry Scratch;
    obs::ScopedMetrics Guard(Scratch);
    Dpst ScratchTree;
    SiteLocator Locator(ScratchTree, Sites);
    Exec.Monitor = &Locator;
    runProgram(*P, std::move(Exec));
  }

  Out.reserve(Report.Pairs.size());
  for (const RacePair &R : Report.Pairs) {
    RaceWitness W;
    W.Location = R.Loc.str();
    W.Src = describeAccess(R.Src, R.SrcKind, R.Loc, Sites, SM);
    W.Snk = describeAccess(R.Snk, R.SnkKind, R.Loc, Sites, SM);

    const DpstNode *Lca = Tree.nsLca(R.Src, R.Snk);
    W.LcaId = Lca->id();
    W.LcaKind = Lca->kind();

    // Theorem 1: the (earlier-side) non-scope child of the NS-LCA is the
    // task (async or future) whose lack of a join leaves the two steps
    // unordered.
    const DpstNode *Earlier =
        Tree.isLeftOf(R.Src, R.Snk) ? R.Src : R.Snk;
    const DpstNode *Edge = Tree.nonScopeChildToward(Lca, Earlier);
    if (Edge && Edge->isTaskNode()) {
      W.HasBreakingAsync = true;
      W.BreakingAsyncId = Edge->id();
      W.BreakingAsyncPos = resolvePos(SM, stmtLoc(taskStmt(Edge)));
    }

    W.SrcSpine = taskSpine(R.Src, SM);
    W.SnkSpine = taskSpine(R.Snk, SM);
    Out.push_back(std::move(W));
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Text rendering
//===----------------------------------------------------------------------===//

namespace {

const char *sgr(bool Color, const char *Code) { return Color ? Code : ""; }

void appendExcerpt(std::string &Out, const SourcePos &P, bool Color) {
  if (!P.valid() || P.LineText.empty())
    return;
  Out += strFormat("    %4u | %s\n", P.Line, P.LineText.c_str());
  Out += "         | ";
  for (uint32_t I = 1; I < P.Col; ++I)
    Out += (I - 1 < P.LineText.size() && P.LineText[I - 1] == '\t') ? '\t'
                                                                    : ' ';
  Out += sgr(Color, "\033[1;32m");
  Out += '^';
  Out += sgr(Color, "\033[0m");
  Out += '\n';
}

/// Kind name of the witness's breaking task (async or future), read off
/// the spine that passes through it.
const char *breakingTaskName(const RaceWitness &W) {
  for (const std::vector<SpineEntry> *Spine : {&W.SrcSpine, &W.SnkSpine})
    for (const SpineEntry &E : *Spine)
      if (E.Id == W.BreakingAsyncId)
        return dpstKindName(E.Kind);
  return "async";
}

std::string posStr(const SourcePos &P) {
  return P.valid() ? strFormat("%u:%u", P.Line, P.Col)
                   : std::string("<unknown>");
}

void appendSpine(std::string &Out, const char *Label,
                 const std::vector<SpineEntry> &Spine) {
  Out += strFormat("  %s spine: ", Label);
  if (Spine.empty())
    Out += "(root)";
  for (size_t I = 0; I != Spine.size(); ++I) {
    const SpineEntry &E = Spine[I];
    if (I)
      Out += " -> ";
    Out += strFormat("%s#%u", dpstKindName(E.Kind), E.Id);
    if (E.Pos.valid())
      Out += strFormat("@%s", posStr(E.Pos).c_str());
  }
  Out += '\n';
}

} // namespace

std::string diag::renderWitnessText(const RaceWitness &W, bool Color) {
  std::string Out;
  Out += sgr(Color, "\033[1;31m");
  Out += strFormat("race on %s", W.Location.c_str());
  Out += sgr(Color, "\033[0m");
  Out += strFormat(": %s (step %u) at %s vs %s (step %u) at %s\n",
                   accessKindName(W.Src.Kind), W.Src.Step,
                   posStr(W.Src.Pos).c_str(), accessKindName(W.Snk.Kind),
                   W.Snk.Step, posStr(W.Snk.Pos).c_str());
  Out += strFormat("  first access: %s at %s\n", accessKindName(W.Src.Kind),
                   posStr(W.Src.Pos).c_str());
  appendExcerpt(Out, W.Src.Pos, Color);
  Out += strFormat("  second access: %s at %s\n", accessKindName(W.Snk.Kind),
                   posStr(W.Snk.Pos).c_str());
  appendExcerpt(Out, W.Snk.Pos, Color);
  Out += strFormat("  unordered because: ns-lca is %s#%u",
                   dpstKindName(W.LcaKind), W.LcaId);
  if (W.HasBreakingAsync) {
    Out += strFormat(
        "; %s#%u (at %s) escapes it unjoined, so no happens-before "
        "edge orders the accesses\n",
        breakingTaskName(W), W.BreakingAsyncId,
        posStr(W.BreakingAsyncPos).c_str());
  } else {
    Out += "; no breaking async found (pair appears ordered)\n";
  }
  appendSpine(Out, "first ", W.SrcSpine);
  appendSpine(Out, "second", W.SnkSpine);
  return Out;
}

std::string diag::renderWitnessesText(const std::vector<RaceWitness> &Ws,
                                      bool Color) {
  std::string Out;
  for (size_t I = 0; I != Ws.size(); ++I) {
    if (I)
      Out += '\n';
    Out += strFormat("[%zu/%zu] ", I + 1, Ws.size());
    Out += renderWitnessText(Ws[I], Color);
  }
  return Out;
}
