//===- RepairDriver.cpp ---------------------------------------------------===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//

#include "repair/RepairDriver.h"

#include "ast/AstPrinter.h"
#include "frontend/Parser.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "sema/Sema.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"
#include "support/StringUtils.h"
#include "support/Timer.h"

#include <algorithm>

using namespace tdr;

namespace {

/// Rejected-placement records kept per group when collecting provenance
/// (the DP probes O(n^2) ranges; reports only need a taste of why the
/// chosen placement won).
constexpr size_t MaxRejections = 16;

/// What applying one group's plan did. Finish resolution is observable
/// through the S-DPST (mayHappenInParallel); force and isolated edits do
/// not update the tree, so the races they resolve are returned by identity
/// for the caller to drop from its pending set.
struct GroupApply {
  unsigned Finishes = 0;
  unsigned Forces = 0;
  unsigned Isolated = 0;
  /// (Src, Snk) step pairs resolved by non-finish edits.
  std::vector<std::pair<const DpstNode *, const DpstNode *>> NonFinishResolved;

  unsigned total() const { return Finishes + Forces + Isolated; }
};

/// Converts the chooser's alternative records for \p EdgeIdx into the
/// report-layer form (diag does not know repair's enum).
void appendAlternatives(const GroupPlan &Plan, size_t EdgeIdx,
                        diag::FinishProvenance &Prov) {
  for (const ConstructAlternative &Alt : Plan.Edges[EdgeIdx].Alternatives) {
    diag::RepairAlternative DA;
    DA.Construct = repairConstructName(Alt.Construct);
    DA.Feasible = Alt.Feasible;
    DA.Cost = Alt.Cost;
    DA.Reason = Alt.Reason;
    Prov.Alternatives.push_back(std::move(DA));
  }
}

/// Chooses a repair construct per dependence edge of one NS-LCA group and
/// applies the plan: the finish placement DP over the finish-assigned
/// edges, `force(f);` insertions for the force-assigned ones, and
/// `isolated { }` wraps for the isolated-assigned ones.
GroupApply solveGroup(const Dpst &Tree, const DepGroup &G,
                      StaticPlacer &Placer, RepairResult &Result,
                      const RepairOptions &Opts, unsigned Iter) {
  GroupApply Out;
  if (G.Problem.Edges.empty())
    return Out;
  const size_t NE = G.Problem.Edges.size();

  // Static applicability of the non-finish constructs, per edge. Probed
  // up front so the chooser works on a pure cost model.
  std::vector<EdgeCandidate> Cands(NE);
  for (size_t E = 0; E != NE; ++E) {
    auto [X, Y] = G.Problem.Edges[E];
    if (Opts.Constructs & constructs::Future) {
      Cands[E].CanForce = Placer.canForce(G, X, Y);
      if (!Cands[E].CanForce)
        Cands[E].ForceReason = Placer.lastRejectReason();
    }
    if (Opts.Constructs & constructs::Isolated) {
      Cands[E].CanIsolate = Placer.canIsolate(G, X, Y);
      if (Cands[E].CanIsolate)
        Cands[E].IsolatedPenalty = Placer.isolatedPenalty(G, X, Y);
      else
        Cands[E].IsolateReason = Placer.lastRejectReason();
    }
  }

  // The finish DP runs on the finish-assigned edge subset; the validity
  // oracle must see the same subset (mapBlockEdit's forbidden-sink check
  // reads the group's edges), so it is bound to a group copy whose edges
  // are swapped per solve. GFinish is also the group the chosen ranges are
  // applied against, so apply() re-checks under the subset it solved.
  std::vector<diag::PlacementRejection> Rejected;
  DepGroup GFinish = G;
  SolveFinishFn SolveFinish =
      [&](const std::vector<std::pair<uint32_t, uint32_t>> &Edges) {
        GFinish.Problem.Edges = Edges;
        return placeFinishes(GFinish.Problem, [&](uint32_t I, uint32_t K) {
          bool Ok = Placer.isValidRange(GFinish, I, K);
          if (!Ok && Opts.CollectDiag && Rejected.size() < MaxRejections)
            Rejected.push_back({I, K, Placer.lastRejectReason()});
          return Ok;
        });
      };

  GroupPlan Plan = planConstructs(G.Problem, Opts.Constructs, Cands,
                                  SolveFinish);

  std::vector<std::pair<uint32_t, uint32_t>> Ranges;
  std::vector<char> EdgeIsFinish(NE, 1);
  if (Plan.Feasible) {
    Ranges = Plan.FinishRanges;
    for (size_t E = 0; E != NE; ++E)
      EdgeIsFinish[E] =
          Plan.Edges[E].Construct == RepairConstruct::Finish ? 1 : 0;
    // Re-bind the oracle's group to the finish subset the plan solved.
    GFinish.Problem.Edges.clear();
    for (size_t E = 0; E != NE; ++E)
      if (EdgeIsFinish[E])
        GFinish.Problem.Edges.push_back(G.Problem.Edges[E]);
  } else {
    // Infeasible: the oracle rejected every partition, including some
    // single-node wraps. Still try to serialize each race source
    // individually — Placer.apply re-checks per range, so unapplicable
    // wraps are skipped and the iteration loop decides whether the
    // remaining races make the repair fail.
    for (auto [X, Y] : G.Problem.Edges) {
      (void)Y;
      Ranges.push_back({X, X});
    }
    std::sort(Ranges.begin(), Ranges.end());
    Ranges.erase(std::unique(Ranges.begin(), Ranges.end()), Ranges.end());
    GFinish.Problem.Edges = G.Problem.Edges;
  }

  // Provenance cost model: the group's critical path with no repairs vs
  // with the chosen plan (equals Plan.Cost on the feasible path, isolated
  // penalties included).
  uint64_t CostBefore = 0, CostAfter = 0;
  if (Opts.CollectDiag) {
    CostBefore = evalPlacementCost(G.Problem, {});
    CostAfter = Plan.Feasible ? Plan.Cost : evalPlacementCost(G.Problem,
                                                              Ranges);
  }

  // Apply innermost-first so statement indices of outer ranges account for
  // the finishes inner ranges introduce.
  std::sort(Ranges.begin(), Ranges.end(),
            [](const auto &A, const auto &B) {
              uint32_t LenA = A.second - A.first;
              uint32_t LenB = B.second - B.first;
              if (LenA != LenB)
                return LenA < LenB;
              return A.first < B.first;
            });

  // One static edit can resolve many dynamic ranges at once (it applies to
  // every instance of the site), so before applying a range check that it
  // still resolves a live race; otherwise the same statement would collect
  // redundant nested finishes. Races whose edge went to a non-finish
  // construct never justify a range.
  std::vector<char> Alive(G.Races.size(), 1);
  auto RefreshAlive = [&] {
    for (size_t R = 0; R != G.Races.size(); ++R)
      if (Alive[R] &&
          !Tree.mayHappenInParallel(G.Races[R].Src, G.Races[R].Snk))
        Alive[R] = 0;
  };
  RefreshAlive();
  auto EdgeIndexOf = [&](uint32_t X, uint32_t Y) -> size_t {
    for (size_t E = 0; E != NE; ++E)
      if (G.Problem.Edges[E] == std::make_pair(X, Y))
        return E;
    return NE;
  };

  for (auto [S, E] : Ranges) {
    bool Needed = false;
    for (size_t R = 0; R != G.Races.size() && !Needed; ++R) {
      auto [X, Y] = G.RaceIdx[R];
      size_t EI = EdgeIndexOf(X, Y);
      Needed = Alive[R] && (EI == NE || EdgeIsFinish[EI]) && S <= X &&
               X <= E && E < Y;
    }
    if (!Needed)
      continue;
    if (auto A = Placer.apply(GFinish, S, E)) {
      Result.InsertedAt.push_back(A->AnchorLoc);
      if (Opts.CollectDiag) {
        diag::FinishProvenance Prov;
        Prov.Iteration = Iter;
        Prov.GroupLcaId = G.Lca->id();
        Prov.Anchor = diag::resolvePos(Opts.SM, A->AnchorLoc);
        Prov.DynamicInstances = A->DynamicInstances;
        Prov.CostBefore = CostBefore;
        Prov.CostAfter = CostAfter;
        for (size_t EI = 0; EI != NE; ++EI) {
          auto [X, Y] = G.Problem.Edges[EI];
          if (EdgeIsFinish[EI] && S <= X && X <= E && E < Y) {
            Prov.ForcedEdges.push_back({X, Y});
            if (Plan.Feasible)
              appendAlternatives(Plan, EI, Prov);
          }
        }
        // The group's rejection log rides on its first applied repair.
        Prov.Rejected = std::move(Rejected);
        Rejected.clear();
        Result.Diag.Repairs.push_back(std::move(Prov));
      }
      ++Out.Finishes;
      RefreshAlive();
    }
  }

  // Non-finish edits, per edge. applyForce/applyIsolated re-map under the
  // post-finish AST (indices looked up through synthesized wrappers); a
  // mapping that fails here leaves the edge's races pending, and the next
  // detection run picks them up again.
  if (Plan.Feasible) {
    for (size_t EI = 0; EI != NE; ++EI) {
      const EdgeChoice &EC = Plan.Edges[EI];
      if (EC.Construct == RepairConstruct::Finish)
        continue;
      std::optional<AppliedRepair> A =
          EC.Construct == RepairConstruct::ForceFuture
              ? Placer.applyForce(G, EC.X, EC.Y)
              : Placer.applyIsolated(G, EC.X, EC.Y);
      if (!A)
        continue;
      Result.InsertedAt.push_back(A->AnchorLoc);
      if (EC.Construct == RepairConstruct::ForceFuture)
        ++Out.Forces;
      else
        ++Out.Isolated;
      for (size_t R = 0; R != G.Races.size(); ++R)
        if (G.RaceIdx[R] == std::make_pair(EC.X, EC.Y))
          Out.NonFinishResolved.push_back(
              {G.Races[R].Src, G.Races[R].Snk});
      if (Opts.CollectDiag) {
        diag::FinishProvenance Prov;
        Prov.Iteration = Iter;
        Prov.GroupLcaId = G.Lca->id();
        Prov.Construct = repairConstructName(EC.Construct);
        Prov.Anchor = diag::resolvePos(Opts.SM, A->AnchorLoc);
        Prov.DynamicInstances = A->DynamicInstances;
        Prov.CostBefore = CostBefore;
        Prov.CostAfter = CostAfter;
        Prov.ForcedEdges.push_back({EC.X, EC.Y});
        appendAlternatives(Plan, EI, Prov);
        Prov.Rejected = std::move(Rejected);
        Rejected.clear();
        Result.Diag.Repairs.push_back(std::move(Prov));
      }
    }
  }
  return Out;
}

} // namespace

RepairResult tdr::repairProgram(Program &P, AstContext &Ctx,
                                const RepairOptions &Opts) {
  obs::ScopedSpan RepairSpan(obs::phase::Repair);
  // The driver's instrument set. RepairStats is derived from these (and
  // the detect.* gauges the detector publishes), not hand-maintained: the
  // hook points are the single source of truth and the registry dump, the
  // trace, and the returned stats all agree. Resolved against the current
  // (per-run under ScopedMetrics) registry so concurrent repairs don't
  // perturb each other's deltas.
  obs::MetricsRegistry &Reg = obs::MetricsRegistry::current();
  obs::Counter &CIterations = Reg.counter("repair.iterations");
  obs::Counter &CFinishes = Reg.counter("repair.finishes_inserted");
  obs::Counter &CForces = Reg.counter("repair.forces_inserted");
  obs::Counter &CIsolated = Reg.counter("repair.isolated_inserted");
  obs::Counter &CInterps = Reg.counter("repair.interpretations");
  const uint64_t ItersBase = CIterations.value();
  const uint64_t FinishesBase = CFinishes.value();
  const uint64_t ForcesBase = CForces.value();
  const uint64_t IsolatedBase = CIsolated.value();
  const uint64_t InterpsBase = CInterps.value();

  RepairResult Result;
  RepairStats &Stats = Result.Stats;
  auto DeriveStats = [&] {
    Stats.Iterations = static_cast<unsigned>(CIterations.value() - ItersBase);
    Stats.FinishesInserted =
        static_cast<unsigned>(CFinishes.value() - FinishesBase);
    Stats.ForcesInserted = static_cast<unsigned>(CForces.value() - ForcesBase);
    Stats.IsolatedInserted =
        static_cast<unsigned>(CIsolated.value() - IsolatedBase);
    Stats.Interpretations =
        static_cast<unsigned>(CInterps.value() - InterpsBase);
  };

  // A repair needs at least one detection run: with zero iterations even a
  // race-free program would fall out of the loop and be reported as
  // unrepaired ("races remained after 0 repair iterations").
  if (Opts.MaxIterations == 0) {
    Result.Error = "MaxIterations must be at least 1: a repair cannot verify "
                   "the program without a detection run";
    return Result;
  }

  const DetectOptions Detect{Opts.Mode};

  for (unsigned Iter = 0; Iter != Opts.MaxIterations; ++Iter) {
    Timer DetectTimer;
    Detection D = detectRaces(P, Detect, Opts.Exec);
    CInterps.inc();
    double DetectMs = DetectTimer.elapsedMs();
    Stats.DetectMs.push_back(DetectMs);
    obs::histogram("repair.detect_ms").observe(DetectMs);
    CIterations.inc();
    DeriveStats();

    if (!D.ok()) {
      Result.Error = strFormat("test input failed at run time: %s",
                               D.Exec.Error.c_str());
      return Result;
    }
    if (Opts.CollectDiag) {
      diag::IterationDiag ID;
      ID.Iteration = Iter;
      ID.Witnesses =
          diag::buildWitnesses(*D.Tree, D.Report, Opts.SM, &P, Opts.Exec);
      Result.Diag.Iterations.push_back(std::move(ID));
    }
    if (Iter == 0) {
      // First-run shape columns of Tables 2/3, read back from the gauges
      // detectRaces just published.
      Stats.DpstNodes =
          static_cast<size_t>(Reg.gaugeValue("detect.dpst_nodes"));
      Stats.RawRaces = static_cast<uint64_t>(Reg.gaugeValue("detect.races_raw"));
      Stats.RacePairs =
          static_cast<size_t>(Reg.gaugeValue("detect.race_pairs"));
    }
    if (D.Report.Pairs.empty()) {
      Result.Success = true;
      return Result;
    }

    Timer RepairTimer;
    obs::ScopedSpan PlaceSpan(obs::phase::Placement);
    StaticPlacer Placer(*D.Tree, Ctx, P);
    std::vector<RacePair> Pending = D.Report.Pairs;

    // Process NS-LCA groups deepest-first, regrouping after each since
    // inserted finishes can change the NS-LCA of remaining races.
    bool Progress = true;
    while (!Pending.empty() && Progress) {
      Progress = false;
      std::vector<DepGroup> Groups = buildDepGroups(*D.Tree, Pending);
      assert(!Groups.empty());
      GroupApply Applied =
          solveGroup(*D.Tree, Groups.front(), Placer, Result, Opts, Iter);
      CFinishes.inc(Applied.Finishes);
      CForces.inc(Applied.Forces);
      CIsolated.inc(Applied.Isolated);
      DeriveStats();

      // Finish edits resolve races observably (the S-DPST gained join
      // nodes); force/isolated edits do not touch the tree, so their
      // resolved races are dropped by identity and the next detection run
      // is the ground truth.
      size_t Before = Pending.size();
      Pending.erase(
          std::remove_if(
              Pending.begin(), Pending.end(),
              [&](const RacePair &R) {
                if (!D.Tree->mayHappenInParallel(R.Src, R.Snk))
                  return true;
                for (auto [Src, Snk] : Applied.NonFinishResolved)
                  if (R.Src == Src && R.Snk == Snk)
                    return true;
                return false;
              }),
          Pending.end());
      Progress = Applied.total() != 0 && Pending.size() < Before;
    }
    double RepairMs = RepairTimer.elapsedMs();
    Stats.RepairMs.push_back(RepairMs);
    obs::histogram("repair.repair_ms").observe(RepairMs);

    if (!Pending.empty() && Stats.FinishesInserted + Stats.ForcesInserted +
                                    Stats.IsolatedInserted ==
                                0) {
      Result.Error = "no applicable repair was found for the "
                     "remaining races";
      return Result;
    }
    // Loop: the next detection run verifies (and, for SRW, finds races the
    // single-reader-writer shadow memory missed).
  }

  Result.Error = strFormat("races remained after %u repair iterations",
                           Opts.MaxIterations);
  return Result;
}

RepairResult tdr::repairSource(const std::string &Source,
                               std::string &RepairedOut,
                               const RepairOptions &Opts) {
  RepairResult Result;
  SourceManager SM("input.hj", Source);
  DiagnosticsEngine Diags;
  AstContext Ctx;
  Parser Parse(SM.buffer(), Ctx, Diags);
  Program *P = Parse.parseProgram();
  if (!Diags.hasErrors())
    runSema(*P, Ctx, Diags);
  if (Diags.hasErrors()) {
    Result.Error = Diags.render(SM);
    return Result;
  }
  // Witness positions must resolve against this parse's source manager,
  // whatever the caller left in Opts.
  RepairOptions LocalOpts = Opts;
  LocalOpts.SM = &SM;
  Result = repairProgram(*P, Ctx, LocalOpts);
  RepairedOut = printProgram(*P);
  return Result;
}
