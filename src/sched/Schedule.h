//===- Schedule.h - Computation DAG and schedule simulation ------*- C++ -*-===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parallelism measurement over an S-DPST. The paper defines maximal
/// parallelism as minimal critical path length (Definition 1: "the
/// execution time of a program on a computer with unbounded number of
/// processors"); its Figure 16 runs on 12 real cores. This module provides
/// both measurements deterministically:
///
///  * buildCompGraph turns an S-DPST into the computation DAG: step nodes
///    weighted by their work, continuation edges within a task, spawn edges
///    at asyncs and futures, join edges at finish boundaries and at every
///    step that follows a force of a future;
///  * criticalPathLength gives T-infinity (the paper's CPL);
///  * greedySchedule simulates a greedy (work-conserving) P-processor
///    schedule, giving the T_P this repository reports where the paper
///    reports 12-core wall-clock times (see DESIGN.md, substitutions).
///
//===----------------------------------------------------------------------===//

#ifndef TDR_SCHED_SCHEDULE_H
#define TDR_SCHED_SCHEDULE_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tdr {

class Dpst;
class DpstNode;

/// A weighted DAG of steps. Node indices are topologically sorted (they
/// follow the sequential execution order).
struct CompGraph {
  struct Node {
    uint64_t Weight = 0;
    std::vector<uint32_t> Succs;
    uint32_t NumPreds = 0;
  };
  std::vector<Node> Nodes;

  uint64_t totalWork() const {
    uint64_t W = 0;
    for (const Node &N : Nodes)
      W += N.Weight;
    return W;
  }
  size_t numEdges() const {
    size_t E = 0;
    for (const Node &N : Nodes)
      E += N.Succs.size();
    return E;
  }
};

/// Builds the computation DAG of the whole execution.
CompGraph buildCompGraph(const Dpst &Tree);

/// Builds the computation DAG of the subtree rooted at \p N (including the
/// implicit join of all tasks spawned inside it).
CompGraph buildCompGraph(const Dpst &Tree, const DpstNode *N);

/// Longest weighted path: T-infinity, the paper's critical path length.
uint64_t criticalPathLength(const CompGraph &G);

/// Simulated completion time of a greedy P-processor list schedule (ties
/// broken by node index, so the result is deterministic).
uint64_t greedySchedule(const CompGraph &G, unsigned NumProcs);

/// The three standard measures in one call.
struct ParallelismStats {
  uint64_t T1 = 0;   ///< total work
  uint64_t Tinf = 0; ///< critical path length
  uint64_t TP = 0;   ///< greedy schedule length on NumProcs processors
  double parallelism() const {
    return Tinf ? static_cast<double>(T1) / static_cast<double>(Tinf) : 0.0;
  }
  double speedup() const {
    return TP ? static_cast<double>(T1) / static_cast<double>(TP) : 0.0;
  }
};

ParallelismStats analyzeDpst(const Dpst &Tree, unsigned NumProcs);

} // namespace tdr

#endif // TDR_SCHED_SCHEDULE_H
