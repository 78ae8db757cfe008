//===- FinishPlacement.h - Optimal finish placement DP -----------*- C++ -*-===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamic finish placement algorithm (paper §5.2, Algorithms 1-3).
/// Input: the dependence graph built from the subtree rooted at one
/// NS-LCA — nodes are the NS-LCA's non-scope children in left-to-right
/// order, each with an execution time; edges are data races (source index <
/// sink index). Output: a set of index ranges [s, e] to enclose in finish
/// blocks such that every edge (x, y) has some range with s <= x <= e < y,
/// minimizing the completion time of the block sequence.
///
/// The interval DP follows the paper's optimal-substructure recurrences
/// (Figures 12 and 13): Opt[i][j] is the minimal completion time of nodes
/// i..j; Est[i][j] is the earliest start offset of whatever follows the
/// block i..j. Partitioning i..j at k either crosses no edges (no finish
/// needed) or requires a finish around i..k, which must pass the caller's
/// lexical-scope validity test (Algorithm 2 in the paper; here a callback,
/// because full validity also involves AST mapping — see StaticPlacer).
///
/// Two fixes relative to the paper's pseudocode, both consistent with its
/// prose: Cmin is reset per (i, j) rather than per k, and Algorithm 3's
/// right recursion uses (p+1, end).
///
//===----------------------------------------------------------------------===//

#ifndef TDR_REPAIR_FINISHPLACEMENT_H
#define TDR_REPAIR_FINISHPLACEMENT_H

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace tdr {

/// The abstract dependence graph the DP runs on (paper §5.1). Indices are
/// 0-based here.
struct PlacementProblem {
  /// Execution time of each node: step weight for steps, subtree critical
  /// path length for asyncs and pre-existing finish subtrees.
  std::vector<uint64_t> Times;
  /// True when the node is an async (its time does not delay successors).
  std::vector<bool> IsAsync;
  /// Race edges (x, y), x < y, deduplicated.
  std::vector<std::pair<uint32_t, uint32_t>> Edges;

  size_t size() const { return Times.size(); }
};

/// Lexical validity oracle: may a finish be placed around nodes [I, K]
/// (inclusive, 0-based)? The oracle is consulted for every range,
/// single-node ranges included — when it rejects even those, the DP
/// reports the problem infeasible instead of returning a plan the AST
/// mapping would later refuse to apply.
using ValidRangeFn = std::function<bool(uint32_t I, uint32_t K)>;

/// CrossMin[i][k]: the smallest edge sink y with source x in [i, k] and
/// y > k, or NoEdge. succ(i..k) crosses into (k, j] iff CrossMin[i][k] <= j.
/// O(n^2 log m) to build. One table serves a whole finish-edge subset: the
/// DP reads it for its crossing test, and the static placer for the sinks
/// a finish around i..k must leave outside.
class CrossingTable {
public:
  static constexpr uint32_t NoEdge = UINT32_MAX;

  explicit CrossingTable(const PlacementProblem &P);

  uint32_t minSink(uint32_t I, uint32_t K) const {
    return Table[static_cast<size_t>(I) * N + K];
  }
  bool crosses(uint32_t I, uint32_t K, uint32_t J) const {
    return minSink(I, K) <= J;
  }

private:
  size_t N;
  std::vector<uint32_t> Table;
};

/// DP outcome.
struct PlacementResult {
  bool Feasible = false;
  /// Finish ranges [s, e], inclusive, 0-based; outer ranges first.
  std::vector<std::pair<uint32_t, uint32_t>> Finishes;
  /// Opt(0, n-1): modeled completion time of the repaired block.
  uint64_t Cost = 0;
};

/// Runs Algorithms 1 and 3 on \p Problem. O(n^3) time; \p Cross must be
/// built from \p Problem.
PlacementResult placeFinishes(const PlacementProblem &Problem,
                              const CrossingTable &Cross,
                              const ValidRangeFn &Valid);

/// As above, building the crossing table first.
PlacementResult placeFinishes(const PlacementProblem &Problem,
                              const ValidRangeFn &Valid);

/// Reference cost model used by tests: evaluates the completion time of
/// the node sequence under a given set of (well-nested) finish ranges.
/// Semantics match the DP's model: asyncs run concurrently from their
/// spawn point; a finish range joins everything spawned inside it.
uint64_t evalPlacementCost(
    const PlacementProblem &Problem,
    const std::vector<std::pair<uint32_t, uint32_t>> &Finishes);

/// Construct-aware generalization of evalPlacementCost: additionally
/// models force join edges (x, y) — a `force` of future x inserted in
/// front of node y raises the serial clock at y to x's completion time
/// (everything the future did happens-before the forcing continuation),
/// without joining any other task. With empty \p ForceEdges this is
/// exactly evalPlacementCost (which delegates here). Isolated edges are
/// *not* modeled — isolation imposes no ordering; the chooser adds its
/// contention penalty on top.
uint64_t evalConstructCost(
    const PlacementProblem &Problem,
    const std::vector<std::pair<uint32_t, uint32_t>> &Finishes,
    const std::vector<std::pair<uint32_t, uint32_t>> &ForceEdges);

/// True when every edge (x, y) has a finish range [s, e] with
/// s <= x <= e < y.
bool placementResolvesAllEdges(
    const PlacementProblem &Problem,
    const std::vector<std::pair<uint32_t, uint32_t>> &Finishes);

/// Exhaustive optimal placement for small problems (n <= ~10); used by
/// property tests to validate the DP.
PlacementResult bruteForcePlacement(const PlacementProblem &Problem,
                                    const ValidRangeFn &Valid);

} // namespace tdr

#endif // TDR_REPAIR_FINISHPLACEMENT_H
