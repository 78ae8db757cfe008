//===- FinishPlacement.cpp ------------------------------------------------===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//

#include "repair/FinishPlacement.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <algorithm>
#include <cassert>
#include <limits>

using namespace tdr;

namespace {

constexpr uint64_t Infinite = std::numeric_limits<uint64_t>::max();

/// Memoizing wrapper around the caller's validity oracle.
class ValidCache {
public:
  ValidCache(size_t N, const ValidRangeFn &Valid) : N(N), Valid(Valid) {
    Cache.assign(N * N, 0);
  }

  bool operator()(uint32_t I, uint32_t K) {
    // Single-node ranges go through the oracle too: a wrap the AST mapping
    // cannot realize (StaticPlacer::apply would reject it) must make the
    // DP report infeasible rather than hand back an unapplicable plan.
    uint8_t &Slot = Cache[I * N + K];
    if (Slot == 0)
      Slot = Valid(I, K) ? 1 : 2;
    return Slot == 1;
  }

private:
  size_t N;
  const ValidRangeFn &Valid;
  std::vector<uint8_t> Cache;
};

} // namespace

CrossingTable::CrossingTable(const PlacementProblem &P) : N(P.size()) {
  std::vector<std::vector<uint32_t>> Succ(N);
  for (auto [X, Y] : P.Edges)
    Succ[X].push_back(Y);
  for (auto &S : Succ)
    std::sort(S.begin(), S.end());

  Table.assign(N * N, NoEdge);
  for (uint32_t K = 0; K != N; ++K) {
    uint32_t RunningMin = NoEdge;
    for (int64_t I = K; I >= 0; --I) {
      // Smallest successor of node I strictly greater than K.
      const auto &S = Succ[static_cast<size_t>(I)];
      auto It = std::upper_bound(S.begin(), S.end(), K);
      if (It != S.end())
        RunningMin = std::min(RunningMin, *It);
      Table[static_cast<size_t>(I) * N + K] = RunningMin;
    }
  }
}

PlacementResult tdr::placeFinishes(const PlacementProblem &Problem,
                                   const ValidRangeFn &Valid) {
  return placeFinishes(Problem, CrossingTable(Problem), Valid);
}

PlacementResult tdr::placeFinishes(const PlacementProblem &Problem,
                                   const CrossingTable &Cross,
                                   const ValidRangeFn &Valid) {
  obs::ScopedSpan Span(obs::phase::PlacementDp);
  obs::counter("dp.runs").inc();
  size_t N = Problem.size();
  PlacementResult Result;
  if (N == 0) {
    Result.Feasible = true;
    return Result;
  }

  ValidCache IsValid(N, Valid);
  uint64_t Subproblems = N; // the N base cases below
  uint64_t PartitionsTried = 0;

  // Opt[i][j]: minimal completion time of block i..j.
  // Est[i][j]: earliest start of the node following block i..j, relative
  //            to the block's start, under the chosen structure.
  // Partition[i][j]: chosen k; NeedsFinish[i][j]: finish around i..k?
  auto Idx = [N](size_t I, size_t J) { return I * N + J; };
  std::vector<uint64_t> Opt(N * N, Infinite), Est(N * N, 0);
  std::vector<uint32_t> Partition(N * N, 0);
  std::vector<uint8_t> NeedsFinish(N * N, 0);

  for (size_t I = 0; I != N; ++I) {
    Opt[Idx(I, I)] = Problem.Times[I];
    Est[Idx(I, I)] = Problem.IsAsync[I] ? 0 : Problem.Times[I];
  }

  for (size_t S = 2; S <= N; ++S) {
    for (size_t I = 0; I + S - 1 < N; ++I) {
      size_t J = I + S - 1;
      ++Subproblems;
      PartitionsTried += J - I;
      uint64_t CMin = Infinite;
      uint64_t EBest = Infinite;
      uint32_t PBest = 0;
      bool FBest = false;
      for (size_t K = I; K != J; ++K) {
        uint64_t OptL = Opt[Idx(I, K)];
        uint64_t OptR = Opt[Idx(K + 1, J)];
        if (OptL == Infinite || OptR == Infinite)
          continue;
        uint64_t C, E;
        bool F;
        if (!Cross.crosses(static_cast<uint32_t>(I), static_cast<uint32_t>(K),
                           static_cast<uint32_t>(J))) {
          // No dependence crosses the partition: the right part starts as
          // soon as the left part's serial prefix allows.
          C = std::max(OptL, Est[Idx(I, K)] + OptR);
          F = false;
          E = Est[Idx(I, K)] + Est[Idx(K + 1, J)];
        } else if (IsValid(static_cast<uint32_t>(I),
                           static_cast<uint32_t>(K))) {
          // Dependences cross: a finish around i..k serializes the parts.
          C = OptL + OptR;
          F = true;
          E = OptL + Est[Idx(K + 1, J)];
        } else {
          continue;
        }
        if (C < CMin || (C == CMin && E < EBest)) {
          CMin = C;
          EBest = E;
          PBest = static_cast<uint32_t>(K);
          FBest = F;
        }
      }
      Opt[Idx(I, J)] = CMin;
      if (CMin != Infinite) {
        Est[Idx(I, J)] = EBest;
        Partition[Idx(I, J)] = PBest;
        NeedsFinish[Idx(I, J)] = FBest;
      }
    }
  }

  obs::counter("dp.subproblems").inc(Subproblems);
  obs::counter("dp.placements_tried").inc(PartitionsTried);

  if (Opt[Idx(0, N - 1)] == Infinite)
    return Result; // infeasible under the validity oracle

  Result.Feasible = true;
  Result.Cost = Opt[Idx(0, N - 1)];

  // Algorithm 3: recover the finish set, outer ranges first (pre-order).
  struct Range {
    uint32_t Begin, End;
  };
  std::vector<Range> Work{{0, static_cast<uint32_t>(N - 1)}};
  while (!Work.empty()) {
    Range R = Work.back();
    Work.pop_back();
    if (R.Begin == R.End)
      continue;
    uint32_t P = Partition[Idx(R.Begin, R.End)];
    if (NeedsFinish[Idx(R.Begin, R.End)])
      Result.Finishes.push_back({R.Begin, P});
    // Right subproblem pushed first so traversal visits left-to-right.
    Work.push_back({P + 1, R.End});
    Work.push_back({R.Begin, P});
  }
  return Result;
}

//===----------------------------------------------------------------------===//
// Reference evaluator and brute force (testing support)
//===----------------------------------------------------------------------===//

namespace {

/// Evaluates the sequence [I, J] with the given well-nested finish ranges
/// and force join edges. Times are absolute (offsets from the whole
/// block's start) so a force edge can compare the sink's serial clock
/// against the source future's completion time across finish boundaries.
/// Returns {serialEnd, pendingCompletion}.
struct EvalResult {
  uint64_t SerialEnd;
  uint64_t Pending;
};

struct ConstructEvaluator {
  const PlacementProblem &P;
  const std::vector<std::pair<uint32_t, uint32_t>> &Finishes;
  /// Per node, the force-edge sources joined right before it starts.
  std::vector<std::vector<uint32_t>> ForcesInto;
  /// Absolute completion time per node, filled left-to-right (edges are
  /// (x, y) with x < y, so a source is always evaluated before its sink).
  std::vector<uint64_t> Done;

  ConstructEvaluator(
      const PlacementProblem &P,
      const std::vector<std::pair<uint32_t, uint32_t>> &Finishes,
      const std::vector<std::pair<uint32_t, uint32_t>> &ForceEdges)
      : P(P), Finishes(Finishes), ForcesInto(P.size()), Done(P.size(), 0) {
    for (auto [X, Y] : ForceEdges)
      ForcesInto[Y].push_back(X);
  }

  EvalResult eval(uint32_t I, uint32_t J, uint64_t Start,
                  uint32_t EnclosingBegin, uint32_t EnclosingEnd) {
    uint64_t Cur = Start, Pending = Start;
    uint32_t Pos = I;
    while (Pos <= J) {
      // The tightest finish range starting at Pos, other than the
      // enclosing range itself.
      int64_t Best = -1;
      for (size_t F = 0; F != Finishes.size(); ++F) {
        auto [S, E] = Finishes[F];
        if (S == Pos && E <= J && !(S == EnclosingBegin && E == EnclosingEnd))
          if (Best < 0 || E > Finishes[static_cast<size_t>(Best)].second)
            Best = static_cast<int64_t>(F);
      }
      if (Best >= 0) {
        auto [S, E] = Finishes[static_cast<size_t>(Best)];
        EvalResult Sub = eval(S, E, Cur, S, E);
        Cur = std::max(Sub.SerialEnd, Sub.Pending);
        Pos = E + 1;
        continue;
      }
      for (uint32_t X : ForcesInto[Pos])
        Cur = std::max(Cur, Done[X]);
      if (P.IsAsync[Pos]) {
        Done[Pos] = Cur + P.Times[Pos];
        Pending = std::max(Pending, Done[Pos]);
      } else {
        Cur += P.Times[Pos];
        Done[Pos] = Cur;
      }
      ++Pos;
    }
    return {Cur, Pending};
  }
};

} // namespace

uint64_t tdr::evalConstructCost(
    const PlacementProblem &Problem,
    const std::vector<std::pair<uint32_t, uint32_t>> &Finishes,
    const std::vector<std::pair<uint32_t, uint32_t>> &ForceEdges) {
  if (Problem.size() == 0)
    return 0;
  ConstructEvaluator Eval(Problem, Finishes, ForceEdges);
  EvalResult R = Eval.eval(0, static_cast<uint32_t>(Problem.size() - 1), 0,
                           std::numeric_limits<uint32_t>::max(),
                           std::numeric_limits<uint32_t>::max());
  return std::max(R.SerialEnd, R.Pending);
}

uint64_t tdr::evalPlacementCost(
    const PlacementProblem &Problem,
    const std::vector<std::pair<uint32_t, uint32_t>> &Finishes) {
  return evalConstructCost(Problem, Finishes, {});
}

bool tdr::placementResolvesAllEdges(
    const PlacementProblem &Problem,
    const std::vector<std::pair<uint32_t, uint32_t>> &Finishes) {
  for (auto [X, Y] : Problem.Edges) {
    bool Covered = false;
    for (auto [S, E] : Finishes)
      if (S <= X && X <= E && E < Y) {
        Covered = true;
        break;
      }
    if (!Covered)
      return false;
  }
  return true;
}

namespace {

/// Exhaustive search over the DP's decision space (all partition trees
/// with finish choices). Exponential; small n only.
struct BruteSearcher {
  const PlacementProblem &P;
  ValidCache &IsValid;
  const CrossingTable &Cross;

  struct Outcome {
    uint64_t Cost = Infinite;
    uint64_t Est = 0;
    std::vector<std::pair<uint32_t, uint32_t>> Finishes;
  };

  /// All feasible (cost, est, ranges) combinations would be exponential;
  /// instead enumerate partition choices and keep the best (cost, est)
  /// lexicographically, mirroring the DP's tie-break.
  Outcome search(uint32_t I, uint32_t J) {
    Outcome Best;
    if (I == J) {
      Best.Cost = P.Times[I];
      Best.Est = P.IsAsync[I] ? 0 : P.Times[I];
      return Best;
    }
    for (uint32_t K = I; K != J; ++K) {
      Outcome L = search(I, K);
      Outcome R = search(K + 1, J);
      if (L.Cost == Infinite || R.Cost == Infinite)
        continue;
      bool Crossing = Cross.crosses(I, K, J);
      if (!Crossing) {
        uint64_t C = std::max(L.Cost, L.Est + R.Cost);
        uint64_t E = L.Est + R.Est;
        if (C < Best.Cost || (C == Best.Cost && E < Best.Est)) {
          Best.Cost = C;
          Best.Est = E;
          Best.Finishes = L.Finishes;
          Best.Finishes.insert(Best.Finishes.end(), R.Finishes.begin(),
                               R.Finishes.end());
        }
      } else if (IsValid(I, K)) {
        uint64_t C = L.Cost + R.Cost;
        uint64_t E = L.Cost + R.Est;
        if (C < Best.Cost || (C == Best.Cost && E < Best.Est)) {
          Best.Cost = C;
          Best.Est = E;
          Best.Finishes.clear();
          Best.Finishes.push_back({I, K});
          Best.Finishes.insert(Best.Finishes.end(), L.Finishes.begin(),
                               L.Finishes.end());
          Best.Finishes.insert(Best.Finishes.end(), R.Finishes.begin(),
                               R.Finishes.end());
        }
      }
    }
    return Best;
  }
};

} // namespace

PlacementResult tdr::bruteForcePlacement(const PlacementProblem &Problem,
                                         const ValidRangeFn &Valid) {
  PlacementResult Result;
  size_t N = Problem.size();
  if (N == 0) {
    Result.Feasible = true;
    return Result;
  }
  assert(N <= 12 && "brute force is exponential; small problems only");
  CrossingTable Cross(Problem);
  ValidCache IsValid(N, Valid);
  BruteSearcher B{Problem, IsValid, Cross};
  BruteSearcher::Outcome O = B.search(0, static_cast<uint32_t>(N - 1));
  if (O.Cost == Infinite)
    return Result;
  Result.Feasible = true;
  Result.Cost = O.Cost;
  Result.Finishes = std::move(O.Finishes);
  return Result;
}
