//===- DepGraph.cpp -------------------------------------------------------===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//

#include "repair/DepGraph.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>
#include <unordered_map>

using namespace tdr;

namespace {

/// Coarsens the vertex sequence: consecutive *step* nodes with no outgoing
/// edges and identical incoming-source sets collapse into one vertex whose
/// time is the run's total.
///
/// This is lossless for the DP. Race sources are always asyncs (Theorem
/// 1), so steps never carry outgoing edges. For a run of sink steps with
/// the same sources, every edge into the run imposes the same constraints
/// on finish ranges, and serial step time is invariant under where a
/// finish boundary falls between serial steps. It matters in practice: a
/// benchmark's final checksum loop otherwise contributes one DP vertex per
/// loop iteration, and the DP is O(n^3).
struct Coarsener {
  /// Raw index -> merged index.
  std::vector<uint32_t> Remap;

  void run(std::vector<DpstNode *> &Nodes, PlacementProblem &P,
           const std::vector<std::pair<uint32_t, uint32_t>> &RawEdges) {
    size_t N = Nodes.size();
    std::vector<char> IsSource(N, 0);
    std::vector<std::vector<uint32_t>> Sources(N);
    for (auto [X, Y] : RawEdges) {
      IsSource[X] = 1;
      Sources[Y].push_back(X);
    }
    for (auto &S : Sources) {
      std::sort(S.begin(), S.end());
      S.erase(std::unique(S.begin(), S.end()), S.end());
    }

    std::vector<DpstNode *> NewNodes;
    PlacementProblem NewP;
    Remap.resize(N);
    bool RunMergeable = false;
    bool RunHasSources = false;
    for (size_t I = 0; I != N; ++I) {
      bool Mergeable = Nodes[I]->isStep() && !IsSource[I];
      // A step extends the current run when
      //  * it has no incoming edges (no constraints of its own; loop
      //    bookkeeping steps interleaved with sink steps fall here), or
      //  * the run started at a real sink. Retargeting an edge (x, y) to
      //    the run's first node only strengthens it, and is satisfiable
      //    because every source of every sink in a consecutive step run
      //    precedes the run (a source inside would break the run). What
      //    must never happen is a run that starts with edge-free steps
      //    *gaining* sinks: the edge-free prefix may belong to a source
      //    region's statement extent (e.g. the trailing loop-condition
      //    step of a parallel phase), and moving sink constraints onto it
      //    would forbid wrapping that region in a finish.
      if (Mergeable && RunMergeable &&
          (RunHasSources || Sources[I].empty())) {
        NewP.Times.back() += P.Times[I];
        Remap[I] = static_cast<uint32_t>(NewNodes.size() - 1);
        continue;
      }
      Remap[I] = static_cast<uint32_t>(NewNodes.size());
      NewNodes.push_back(Nodes[I]);
      NewP.Times.push_back(P.Times[I]);
      NewP.IsAsync.push_back(P.IsAsync[I]);
      RunMergeable = Mergeable;
      RunHasSources = !Sources[I].empty();
    }

    std::set<std::pair<uint32_t, uint32_t>> EdgeSet;
    for (auto [X, Y] : RawEdges) {
      uint32_t NX = Remap[X], NY = Remap[Y];
      assert(NX < NY && "merging must preserve edge direction");
      EdgeSet.insert({NX, NY});
    }
    NewP.Edges.assign(EdgeSet.begin(), EdgeSet.end());

    Nodes = std::move(NewNodes);
    P = std::move(NewP);
  }
};

} // namespace

std::vector<DepGroup> tdr::buildDepGroups(const Dpst &Tree,
                                          const std::vector<RacePair> &Races) {
  obs::ScopedSpan Span(obs::phase::DpstGroup);
  obs::Counter &CGroups = obs::counter("repair.groups");
  // Bucket races by NS-LCA.
  std::unordered_map<const DpstNode *, std::vector<RacePair>> Buckets;
  for (const RacePair &R : Races) {
    const DpstNode *L = Tree.nsLca(R.Src, R.Snk);
    Buckets[L].push_back(R);
  }

  std::vector<DepGroup> Groups;
  Groups.reserve(Buckets.size());
  for (auto &[L, GroupRaces] : Buckets) {
    DepGroup G;
    G.Lca = const_cast<DpstNode *>(L);
    G.Nodes = Tree.nonScopeChildren(L);
    G.Races = std::move(GroupRaces);

    std::unordered_map<const DpstNode *, uint32_t> Index;
    Index.reserve(G.Nodes.size());
    for (uint32_t I = 0; I != G.Nodes.size(); ++I)
      Index[G.Nodes[I]] = I;

    G.Problem.Times.reserve(G.Nodes.size());
    G.Problem.IsAsync.reserve(G.Nodes.size());
    for (const DpstNode *N : G.Nodes) {
      G.Problem.Times.push_back(N->isStep() ? N->weight()
                                            : Tree.subtreeCpl(N));
      // Futures are task nodes too: their subtree overlaps the parent's
      // continuation until joined, exactly like an async for the DP's
      // cost/feasibility model.
      G.Problem.IsAsync.push_back(N->isTaskNode());
    }

    std::set<std::pair<uint32_t, uint32_t>> EdgeSet;
    std::vector<std::pair<uint32_t, uint32_t>> RawRaceIdx;
    RawRaceIdx.reserve(G.Races.size());
    for (const RacePair &R : G.Races) {
      const DpstNode *SrcChild = Tree.nonScopeChildToward(L, R.Src);
      const DpstNode *SnkChild = Tree.nonScopeChildToward(L, R.Snk);
      assert(SrcChild && SnkChild && "race steps must be below their NS-LCA");
      auto SrcIt = Index.find(SrcChild);
      auto SnkIt = Index.find(SnkChild);
      assert(SrcIt != Index.end() && SnkIt != Index.end());
      uint32_t X = SrcIt->second, Y = SnkIt->second;
      assert(X != Y && "source and sink cannot share a non-scope child");
      if (X > Y) {
        // The detector orders Src before Snk in depth-first order, so this
        // should not occur; tolerate it defensively.
        std::swap(X, Y);
      }
      EdgeSet.insert({X, Y});
      RawRaceIdx.push_back({X, Y});
    }

    std::vector<std::pair<uint32_t, uint32_t>> RawEdges(EdgeSet.begin(),
                                                        EdgeSet.end());
    Coarsener C;
    C.run(G.Nodes, G.Problem, RawEdges);
    G.RaceIdx.reserve(RawRaceIdx.size());
    for (auto [X, Y] : RawRaceIdx)
      G.RaceIdx.push_back({C.Remap[X], C.Remap[Y]});

    Groups.push_back(std::move(G));
  }

  CGroups.inc(Groups.size());
  // Deepest NS-LCA first; ties by id for determinism. Depth is a walk to
  // the root, so it is taken once per group, not per comparison.
  std::vector<std::pair<uint32_t, size_t>> Order; // (depth, group index)
  Order.reserve(Groups.size());
  for (size_t I = 0; I != Groups.size(); ++I)
    Order.push_back({Groups[I].Lca->depth(), I});
  std::sort(Order.begin(), Order.end(), [&Groups](auto A, auto B) {
    if (A.first != B.first)
      return A.first > B.first;
    return Groups[A.second].Lca->id() < Groups[B.second].Lca->id();
  });
  std::vector<DepGroup> Sorted;
  Sorted.reserve(Groups.size());
  for (auto [Depth, I] : Order)
    Sorted.push_back(std::move(Groups[I]));
  return Sorted;
}
