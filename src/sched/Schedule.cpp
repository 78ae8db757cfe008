//===- Schedule.cpp -------------------------------------------------------===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//

#include "sched/Schedule.h"

#include "dpst/Dpst.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <queue>
#include <unordered_map>

using namespace tdr;

namespace {

/// Recursive DAG construction. Preds is the set of DAG nodes whose
/// completion enables the next step of the current sequential thread.
class GraphBuilder {
public:
  GraphBuilder(const Dpst &Tree, CompGraph &G) : Tree(Tree), G(G) {}

  struct WalkResult {
    std::vector<uint32_t> Exits;   ///< preds for the continuation
    std::vector<uint32_t> Pending; ///< exits of spawned, unjoined tasks
    /// The last forced set joined into Exits (see joinForced).
    const std::vector<uint32_t> *Joined = nullptr;
  };

  /// \p Joined is a forced set (Dpst::forced) already joined into a node
  /// of \p Preds, so a step after \p Preds carrying that same set waits
  /// for its futures without new force edges.
  WalkResult walk(const DpstNode *N, std::vector<uint32_t> Preds,
                  const std::vector<uint32_t> *Joined) {
    std::vector<uint32_t> Pending;
    if (N->isCollapsed()) {
      // A collapsed leaf is the chain of its folded steps.
      const std::vector<uint32_t> *F = Tree.forced(N);
      Tree.forEachFoldedStep(N, [&](uint64_t W) {
        Joined = addStep(W, F, Preds, Joined);
      });
      return WalkResult{std::move(Preds), std::move(Pending), Joined};
    }
    for (const DpstNode *C : Tree.children(N)) {
      switch (C->kind()) {
      case DpstKind::Step:
        Joined = addStep(C->weight(), Tree.forced(C), Preds, Joined);
        break;
      case DpstKind::Scope: {
        WalkResult R = walk(C, std::move(Preds), Joined);
        Preds = std::move(R.Exits);
        Joined = R.Joined;
        append(Pending, R.Pending);
        break;
      }
      case DpstKind::Async:
      case DpstKind::Future: {
        // The spawned task starts after the same preds; the parent thread
        // continues without waiting.
        WalkResult R = walk(C, Preds, Joined);
        if (C->isFuture()) {
          // A force waits for the future's body and, through its implicit
          // finish, for every task the body spawned.
          std::vector<uint32_t> &Done = FutureExits[C->futureId()];
          Done = R.Exits;
          append(Done, R.Pending);
        }
        append(Pending, R.Exits);
        append(Pending, R.Pending);
        break;
      }
      case DpstKind::Finish: {
        WalkResult R = walk(C, std::move(Preds), Joined);
        Preds = std::move(R.Exits);
        Joined = R.Joined;
        append(Preds, R.Pending);
        dedup(Preds);
        break;
      }
      case DpstKind::Root:
        assert(false && "root cannot be a child");
        break;
      }
    }
    return WalkResult{std::move(Preds), std::move(Pending), Joined};
  }

private:
  /// Appends a step of weight \p Weight and forced set \p F after
  /// \p Preds, which becomes the new step alone. Returns the set now
  /// joined (see joinForced).
  const std::vector<uint32_t> *addStep(uint64_t Weight,
                                       const std::vector<uint32_t> *F,
                                       std::vector<uint32_t> &Preds,
                                       const std::vector<uint32_t> *Joined) {
    uint32_t Id = addNode(Weight);
    for (uint32_t P : Preds)
      addEdge(P, Id);
    Preds.assign(1, Id);
    return joinForced(F, Id, Joined);
  }

  uint32_t addNode(uint64_t Weight) {
    G.Nodes.push_back(CompGraph::Node{Weight, {}, 0});
    return static_cast<uint32_t>(G.Nodes.size() - 1);
  }

  void addEdge(uint32_t From, uint32_t To) {
    G.Nodes[From].Succs.push_back(To);
    ++G.Nodes[To].NumPreds;
  }

  /// Force edges: step \p Id starts after every future its forced set
  /// \p F names, i.e. after all of that future's exits. The set is skipped
  /// when it is \p Joined (see walk). Returns the set now joined. Futures
  /// complete before any step that forces them, so the edges respect the
  /// node order.
  const std::vector<uint32_t> *joinForced(const std::vector<uint32_t> *F,
                                          uint32_t Id,
                                          const std::vector<uint32_t> *Joined) {
    if (!F || F == Joined)
      return Joined;
    for (uint32_t Fid : *F)
      for (uint32_t E : FutureExits[Fid])
        addEdge(E, Id);
    return F;
  }

  static void append(std::vector<uint32_t> &To,
                     const std::vector<uint32_t> &From) {
    To.insert(To.end(), From.begin(), From.end());
  }

  static void dedup(std::vector<uint32_t> &V) {
    std::sort(V.begin(), V.end());
    V.erase(std::unique(V.begin(), V.end()), V.end());
  }

  const Dpst &Tree;
  CompGraph &G;
  /// Per dynamic future id: the DAG nodes a force of it waits for.
  std::unordered_map<uint32_t, std::vector<uint32_t>> FutureExits;
};

} // namespace

CompGraph tdr::buildCompGraph(const Dpst &Tree, const DpstNode *N) {
  CompGraph G;
  GraphBuilder B(Tree, G);
  B.walk(N, {}, nullptr);
  return G;
}

CompGraph tdr::buildCompGraph(const Dpst &Tree) {
  return buildCompGraph(Tree, Tree.root());
}

uint64_t tdr::criticalPathLength(const CompGraph &G) {
  // Node indices are topologically ordered by construction.
  std::vector<uint64_t> Finish(G.Nodes.size(), 0);
  uint64_t Cpl = 0;
  for (size_t I = 0; I != G.Nodes.size(); ++I) {
    uint64_t F = Finish[I] + G.Nodes[I].Weight;
    Finish[I] = F;
    Cpl = std::max(Cpl, F);
    for (uint32_t S : G.Nodes[I].Succs)
      Finish[S] = std::max(Finish[S], F);
  }
  return Cpl;
}

uint64_t tdr::greedySchedule(const CompGraph &G, unsigned NumProcs) {
  assert(NumProcs > 0 && "need at least one processor");
  size_t N = G.Nodes.size();
  if (N == 0)
    return 0;

  std::vector<uint32_t> PredsLeft(N);
  // FIFO ready queue ordered by node index gives a deterministic greedy
  // list schedule.
  std::priority_queue<uint32_t, std::vector<uint32_t>,
                      std::greater<uint32_t>>
      Ready;
  for (size_t I = 0; I != N; ++I) {
    PredsLeft[I] = G.Nodes[I].NumPreds;
    if (PredsLeft[I] == 0)
      Ready.push(static_cast<uint32_t>(I));
  }

  // Min-heap of running tasks by completion time (node index tiebreak).
  using Running = std::pair<uint64_t, uint32_t>;
  std::priority_queue<Running, std::vector<Running>, std::greater<Running>>
      InFlight;

  uint64_t Now = 0;
  uint64_t Makespan = 0;
  size_t Scheduled = 0;
  while (Scheduled != N || !InFlight.empty()) {
    // Fill idle processors from the ready queue.
    while (!Ready.empty() && InFlight.size() < NumProcs) {
      uint32_t Id = Ready.top();
      Ready.pop();
      InFlight.push({Now + G.Nodes[Id].Weight, Id});
      ++Scheduled;
    }
    assert(!InFlight.empty() && "deadlock: graph is not a DAG");
    // Advance to the next completion.
    auto [T, Id] = InFlight.top();
    InFlight.pop();
    Now = T;
    Makespan = std::max(Makespan, Now);
    for (uint32_t S : G.Nodes[Id].Succs)
      if (--PredsLeft[S] == 0)
        Ready.push(S);
  }
  return Makespan;
}

ParallelismStats tdr::analyzeDpst(const Dpst &Tree, unsigned NumProcs) {
  CompGraph G = buildCompGraph(Tree);
  ParallelismStats S;
  S.T1 = G.totalWork();
  S.Tinf = criticalPathLength(G);
  S.TP = greedySchedule(G, NumProcs);
  return S;
}
