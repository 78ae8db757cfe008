//===- shadow_diff_test.cpp - Flat vs map shadow differential tests -------===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
// The flat-shadow fast path (paged direct-map shadow memory, small-vector
// access lists, fused monitor dispatch, step caching) is a pure
// representation change: on every program it must produce the IDENTICAL
// RaceReport as the frozen pre-change detectors in RefDetectors.h. These
// tests check that on ~100 random programs per detector variant, plus the
// pair-key packing.
//
// The two-level compressed shadow map (ShadowMemory.h) is held to the same
// bar on the access shapes it exists for: random programs biased to huge
// strided heap indices must produce ESP-bags reports byte-identical to the
// frozen reference and (MRW) to the Theorem-1 oracle, fresh and replayed, and
// the sparse footprint / no-access-page COW invariants are pinned directly.
//
//===----------------------------------------------------------------------===//

#include "RandomProgram.h"
#include "TestUtil.h"

#include "ast/Transforms.h"
#include "race/Detect.h"
#include "race/RefDetectors.h"
#include "race/ShadowMemory.h"
#include "trace/Replay.h"

#include <set>

using namespace tdr;
using namespace tdr::test;

namespace {

/// A report plus the tree its step pointers live in (the pairs point into
/// the Dpst, so it must outlive them).
struct RefRun {
  std::unique_ptr<Dpst> Tree = std::make_unique<Dpst>();
  RaceReport Report;
};

/// Runs \p P under the frozen map-shadow ESP-bags detector with the exact
/// pre-fast-path wiring (builder and detector fanned out by a pipeline).
RefRun runRefEspBags(ParsedProgram &P, EspBagsDetector::Mode Mode) {
  RefRun Run;
  DpstBuilder Builder(*Run.Tree);
  RefEspBagsDetector Det(Mode, Builder);
  MonitorPipeline Pipeline;
  Pipeline.add(&Builder);
  Pipeline.add(&Det);
  ExecOptions Exec;
  Exec.Monitor = &Pipeline;
  ExecResult R = runProgram(*P.Prog, std::move(Exec));
  EXPECT_TRUE(R.Ok) << R.Error;
  Run.Report = Det.takeReport();
  return Run;
}

/// Ditto for the frozen map-shadow Theorem-1 oracle.
RefRun runRefOracle(ParsedProgram &P) {
  RefRun Run;
  DpstBuilder Builder(*Run.Tree);
  RefOracleDetector Det(*Run.Tree, Builder);
  MonitorPipeline Pipeline;
  Pipeline.add(&Builder);
  Pipeline.add(&Det);
  ExecOptions Exec;
  Exec.Monitor = &Pipeline;
  ExecResult R = runProgram(*P.Prog, std::move(Exec));
  EXPECT_TRUE(R.Ok) << R.Error;
  Run.Report = Det.takeReport();
  return Run;
}

/// Asserts the two reports are identical record for record. Steps live in
/// different trees, so they are compared by id — node ids are assigned in
/// the canonical execution order and thus stable across runs of the same
/// program.
void expectIdenticalReports(const RaceReport &Flat, const RaceReport &Map,
                            const std::string &Src) {
  EXPECT_EQ(Flat.RawCount, Map.RawCount) << Src;
  ASSERT_EQ(Flat.Pairs.size(), Map.Pairs.size()) << Src;
  for (size_t I = 0; I != Flat.Pairs.size(); ++I) {
    const RacePair &F = Flat.Pairs[I];
    const RacePair &M = Map.Pairs[I];
    EXPECT_EQ(F.Src->id(), M.Src->id()) << "pair " << I << "\n" << Src;
    EXPECT_EQ(F.Snk->id(), M.Snk->id()) << "pair " << I << "\n" << Src;
    EXPECT_TRUE(F.Loc == M.Loc) << "pair " << I << "\n" << Src;
    EXPECT_EQ(F.SrcKind, M.SrcKind) << "pair " << I << "\n" << Src;
    EXPECT_EQ(F.SnkKind, M.SnkKind) << "pair " << I << "\n" << Src;
  }
}

std::set<std::pair<uint32_t, uint32_t>> pairIdSet(const RaceReport &R) {
  std::set<std::pair<uint32_t, uint32_t>> S;
  for (const RacePair &P : R.Pairs)
    S.insert({P.Src->id(), P.Snk->id()});
  return S;
}

//===----------------------------------------------------------------------===//
// Differential: flat shadow == frozen map shadow on random programs
//===----------------------------------------------------------------------===//

class FlatVsMapShadow : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FlatVsMapShadow, EspBagsReportsAreIdentical) {
  Rng SeedGen(GetParam());
  for (int Trial = 0; Trial != 25; ++Trial) {
    RandomProgramGen Gen(SeedGen.next());
    std::string Src = Gen.generate();
    ParsedProgram P = parseAndCheck(Src);
    ASSERT_TRUE(P.ok()) << P.errors() << "\n" << Src;

    for (EspBagsDetector::Mode Mode :
         {EspBagsDetector::Mode::SRW, EspBagsDetector::Mode::MRW}) {
      Detection Flat = detectRaces(*P.Prog, Mode);
      ASSERT_TRUE(Flat.ok()) << Flat.Exec.Error << "\n" << Src;
      RefRun Map = runRefEspBags(P, Mode);
      expectIdenticalReports(Flat.Report, Map.Report, Src);
    }
  }
}

TEST_P(FlatVsMapShadow, OracleReportsAreIdentical) {
  Rng SeedGen(GetParam() ^ 0x9e3779b9);
  // The Theorem-1 oracle is O(tree depth) per access pair; fewer trials.
  for (int Trial = 0; Trial != 10; ++Trial) {
    RandomProgramGen Gen(SeedGen.next());
    std::string Src = Gen.generate();
    ParsedProgram P = parseAndCheck(Src);
    ASSERT_TRUE(P.ok()) << P.errors() << "\n" << Src;

    Detection Flat = detectRacesOracle(*P.Prog);
    ASSERT_TRUE(Flat.ok()) << Flat.Exec.Error << "\n" << Src;
    RefRun Map = runRefOracle(P);
    expectIdenticalReports(Flat.Report, Map.Report, Src);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatVsMapShadow,
                         ::testing::Values(101u, 202u, 303u, 404u));

//===----------------------------------------------------------------------===//
// Differential: two-level shadow on sparse giant heaps
//===----------------------------------------------------------------------===//

/// Records one interpretation of \p P for the replayed leg.
trace::InputTrace recordTrace(ParsedProgram &P) {
  trace::InputTrace T;
  trace::RecorderMonitor Rec(T.Log);
  ExecOptions E;
  E.Monitor = &Rec;
  T.Exec = runProgram(*P.Prog, E);
  Rec.flush();
  return T;
}

TEST(SparseHeapDifferential, EspBagsMatchesFrozenRefAndOracle) {
  // Sparse-heap profile: 2^18-cell arrays, indices biased to hot low
  // cells, a hot page at the top of the span, and page-hostile stride
  // sweeps — the distribution the two-level map's table, no-access page,
  // and one-entry cache all have to get right. ESP-bags must match the
  // frozen map-shadow reference byte for byte in both modes, both on a
  // fresh interpretation and on a replayed event log; in MRW mode it must
  // also match the Theorem-1 oracle on the same log.
  Rng SeedGen(0x5AD5E001);
  for (int Trial = 0; Trial != 6; ++Trial) {
    RandomProgramGen Gen(SeedGen.next());
    Gen.enableSparseHeap();
    std::string Src = Gen.generate();
    ParsedProgram P = parseAndCheck(Src);
    ASSERT_TRUE(P.ok()) << P.errors() << "\n" << Src;

    trace::InputTrace T = recordTrace(P);
    ASSERT_TRUE(T.Exec.Ok) << T.Exec.Error << "\n" << Src;
    FinishEditMap NoEdits;
    trace::ReplayPlan Plan = trace::buildReplayPlan(*P.Prog, NoEdits);

    for (EspBagsDetector::Mode Mode :
         {EspBagsDetector::Mode::SRW, EspBagsDetector::Mode::MRW}) {
      RefRun Ref = runRefEspBags(P, Mode);
      std::string RefKey = renderRaceReportKey(Ref.Report);

      Detection Fresh = detectRaces(*P.Prog, Mode);
      ASSERT_TRUE(Fresh.ok()) << Fresh.Exec.Error << "\n" << Src;
      EXPECT_EQ(renderRaceReportKey(Fresh.Report), RefKey)
          << "fresh mode " << static_cast<int>(Mode) << "\n"
          << Src;

      Detection Replayed = detectRaces(*P.Prog, Mode, T, Plan);
      ASSERT_TRUE(Replayed.ok()) << Replayed.Exec.Error << "\n" << Src;
      EXPECT_EQ(renderRaceReportKey(Replayed.Report), RefKey)
          << "replayed mode " << static_cast<int>(Mode) << "\n"
          << Src;

      if (Mode == EspBagsDetector::Mode::MRW) {
        Detection Oracle = detectRacesOracle(*P.Prog, T, Plan);
        ASSERT_TRUE(Oracle.ok()) << Oracle.Exec.Error << "\n" << Src;
        EXPECT_EQ(renderRaceReportKey(Oracle.Report), RefKey)
            << "oracle\n"
            << Src;
      }
    }
  }
}

TEST(SparseHeapDifferential, OracleMatchesFrozenRefOnSparseHeaps) {
  Rng SeedGen(0x5AD5E002);
  // The oracle walks the tree per access pair; a couple of programs is
  // plenty to cross-check the shared shadow plumbing.
  for (int Trial = 0; Trial != 2; ++Trial) {
    RandomProgramGen Gen(SeedGen.next());
    Gen.enableSparseHeap();
    std::string Src = Gen.generate();
    ParsedProgram P = parseAndCheck(Src);
    ASSERT_TRUE(P.ok()) << P.errors() << "\n" << Src;

    Detection Fresh = detectRacesOracle(*P.Prog);
    ASSERT_TRUE(Fresh.ok()) << Fresh.Exec.Error << "\n" << Src;
    RefRun Ref = runRefOracle(P);
    expectIdenticalReports(Fresh.Report, Ref.Report, Src);
  }
}

//===----------------------------------------------------------------------===//
// Two-level shadow map: footprint and no-access-page COW invariants
//===----------------------------------------------------------------------===//

/// Inline-lane record: small, all-zero-init, trivially destructible.
struct InlineRec {
  static constexpr bool AllZeroInit = true;
  uint32_t Epoch = 0;
};

/// Slab-lane record: too big for a page cell, so pages hold 4-byte slot
/// references into the dense slab.
struct BigRec {
  static constexpr bool AllZeroInit = true;
  uint64_t A = 0;
  uint64_t B = 0;
  uint64_t C = 0;
};

static_assert(ShadowMemory<InlineRec>::InlineCells,
              "small zero-init records must take the inline lane");
static_assert(!ShadowMemory<BigRec>::InlineCells,
              "large records must take the compact slab lane");

TEST(TwoLevelShadow, DistantArrayIdsStayCompact) {
  // Regression: the dense baseline resizes its id-indexed table to the
  // highest array id, so two arrays whose ids differ by 10^6 committed
  // megabytes before a single element was shadowed. The two-level map
  // hashes (id, page) and must stay in the kilobytes.
  constexpr uint32_t FarId = 1000000;
  ShadowMemory<InlineRec> Sparse;
  Sparse.slot(MemLoc::elem(0, 5)).Epoch = 1;
  Sparse.slot(MemLoc::elem(FarId, 5)).Epoch = 2;
  EXPECT_EQ(Sparse.numPrivatePages(), 2u);
  EXPECT_LT(Sparse.bytesUsed(), 64u * 1024);
  EXPECT_EQ(Sparse.peek(MemLoc::elem(0, 5)).Epoch, 1u);
  EXPECT_EQ(Sparse.peek(MemLoc::elem(FarId, 5)).Epoch, 2u);

  // The preserved dense baseline demonstrates the blow-up being fixed:
  // its ArrayTable alone is FarId+1 pointers.
  DenseShadowMemory<InlineRec> Dense;
  Dense.slot(MemLoc::elem(0, 5)).Epoch = 1;
  Dense.slot(MemLoc::elem(FarId, 5)).Epoch = 2;
  EXPECT_GE(Dense.bytesUsed(), (FarId + 1) * sizeof(void *));
}

TEST(TwoLevelShadow, GiantElementIndicesStayCompact) {
  // One access to element ~2^40 must commit one 64-cell page, not a dense
  // index structure proportional to the touched index.
  ShadowMemory<InlineRec> S;
  constexpr int64_t Giant = (1ll << 40) + 123;
  S.slot(MemLoc::elem(3, Giant)).Epoch = 7;
  S.slot(MemLoc::elem(3, 0)).Epoch = 9;
  EXPECT_EQ(S.numPrivatePages(), 2u);
  EXPECT_LT(S.bytesUsed(), 64u * 1024);
  EXPECT_EQ(S.peek(MemLoc::elem(3, Giant)).Epoch, 7u);
  EXPECT_EQ(S.peek(MemLoc::elem(3, 0)).Epoch, 9u);
}

TEST(TwoLevelShadow, PeekAliasesNoAccessPageUntilFirstWrite) {
  ShadowMemory<InlineRec> S;
  size_t Baseline = S.bytesUsed();

  // Untouched ranges alias the shared read-only no-access page: peek
  // resolves to zero records without materializing anything.
  EXPECT_EQ(S.peek(MemLoc::elem(42, 1ll << 30)).Epoch, 0u);
  EXPECT_EQ(S.peek(MemLoc::elem(7, 0)).Epoch, 0u);
  EXPECT_EQ(S.peek(MemLoc::global(3)).Epoch, 0u);
  EXPECT_EQ(S.numPrivatePages(), 0u);
  EXPECT_EQ(S.bytesUsed(), Baseline);

  // First slot() copy-on-writes a private page from the zero image; the
  // written cell sticks and its 63 page neighbors read as untouched.
  S.slot(MemLoc::elem(42, 1ll << 30)).Epoch = 5;
  EXPECT_EQ(S.numPrivatePages(), 1u);
  EXPECT_EQ(S.peek(MemLoc::elem(42, 1ll << 30)).Epoch, 5u);
  EXPECT_EQ(S.peek(MemLoc::elem(42, (1ll << 30) + 1)).Epoch, 0u);
  EXPECT_EQ(S.numPrivatePages(), 1u); // neighbor peek did not materialize
}

TEST(TwoLevelShadow, SlabLanePeeksWithoutMaterializing) {
  ShadowMemory<BigRec> S;
  S.slot(MemLoc::elem(1, 100)).A = 11;
  S.slot(MemLoc::elem(1, 5000000)).B = 22;
  size_t AfterWrites = S.bytesUsed();
  // Peeking untouched neighbors (same page and far away) allocates no
  // slab records.
  EXPECT_EQ(S.peek(MemLoc::elem(1, 101)).A, 0u);
  EXPECT_EQ(S.peek(MemLoc::elem(9, 1ll << 35)).A, 0u);
  EXPECT_EQ(S.bytesUsed(), AfterWrites);
  EXPECT_EQ(S.peek(MemLoc::elem(1, 100)).A, 11u);
  EXPECT_EQ(S.peek(MemLoc::elem(1, 5000000)).B, 22u);
  // Slab-lane references are stable: re-resolving yields the same record.
  BigRec &R1 = S.slot(MemLoc::elem(1, 100));
  EXPECT_EQ(&R1, &S.slot(MemLoc::elem(1, 100)));
}

TEST(TwoLevelShadow, ForRunSweepsConsecutiveCellsAcrossPages) {
  ShadowMemory<InlineRec> S;
  // A run straddling a page boundary (indices 60..69 with 64-cell pages)
  // must visit every location once, in ascending order, and hand out the
  // same cells slot() resolves.
  constexpr int64_t Start = 60;
  constexpr uint64_t N = 10;
  uint64_t Seen = 0;
  S.forRun(MemLoc::elem(9, Start), N, [&](InlineRec &R, MemLoc At) {
    EXPECT_EQ(At.Id, 9u);
    EXPECT_EQ(At.Index, Start + static_cast<int64_t>(Seen));
    R.Epoch = static_cast<uint32_t>(At.Index);
    ++Seen;
  });
  EXPECT_EQ(Seen, N);
  EXPECT_EQ(S.numPrivatePages(), 2u);
  for (int64_t I = Start; I != Start + static_cast<int64_t>(N); ++I)
    EXPECT_EQ(S.slot(MemLoc::elem(9, I)).Epoch, static_cast<uint32_t>(I));
}

//===----------------------------------------------------------------------===//
// Extended constructs through the shadow fast paths
//===----------------------------------------------------------------------===//

TEST(ConstructShadow, EspBagsMatchesOracleOnConstructPrograms) {
  // The frozen map-shadow references predate future/isolated and stay
  // frozen, so construct-generator programs are differentialed against the
  // production Theorem-1 oracle instead: the flat-shadow ESP-bags fast
  // path must agree on every race pair when futures join subtrees and
  // isolated sections commute.
  Rng SeedGen(31337);
  for (int Trial = 0; Trial != 15; ++Trial) {
    RandomProgramGen Gen(SeedGen.next());
    Gen.enableConstructs();
    std::string Src = Gen.generate();
    ParsedProgram P = parseAndCheck(Src);
    ASSERT_TRUE(P.ok()) << P.errors() << "\n" << Src;

    Detection Bags = detectRaces(*P.Prog, EspBagsDetector::Mode::MRW);
    ASSERT_TRUE(Bags.ok()) << Bags.Exec.Error << "\n" << Src;
    Detection Oracle = detectRacesOracle(*P.Prog);
    ASSERT_TRUE(Oracle.ok()) << Oracle.Exec.Error << "\n" << Src;
    EXPECT_EQ(pairIdSet(Bags.Report), pairIdSet(Oracle.Report)) << Src;
    EXPECT_EQ(Bags.Report.RawCount, Oracle.Report.RawCount) << Src;
  }
}

TEST(ConstructShadow, SparseHeapConstructProgramsAgreeWithOracle) {
  // Same differential with the sparse-heap profile on top: giant strided
  // indices drive the two-level shadow map while future/force joins and
  // isolated sections shape the happens-before relation.
  Rng SeedGen(424242);
  for (int Trial = 0; Trial != 6; ++Trial) {
    RandomProgramGen Gen(SeedGen.next());
    Gen.enableSparseHeap();
    Gen.enableConstructs();
    std::string Src = Gen.generate();
    ParsedProgram P = parseAndCheck(Src);
    ASSERT_TRUE(P.ok()) << P.errors() << "\n" << Src;

    Detection Bags = detectRaces(*P.Prog, EspBagsDetector::Mode::MRW);
    ASSERT_TRUE(Bags.ok()) << Bags.Exec.Error << "\n" << Src;
    Detection Oracle = detectRacesOracle(*P.Prog);
    ASSERT_TRUE(Oracle.ok()) << Oracle.Exec.Error << "\n" << Src;
    EXPECT_EQ(pairIdSet(Bags.Report), pairIdSet(Oracle.Report)) << Src;
    EXPECT_EQ(Bags.Report.RawCount, Oracle.Report.RawCount) << Src;
  }
}

//===----------------------------------------------------------------------===//
// Pair-key packing
//===----------------------------------------------------------------------===//

TEST(RacePairKey, DistinctPairsGetDistinctKeys) {
  // Regression: a key built by hashing or xor-folding the two ids would
  // collide when halves coincide across pairs; keeping each id in its own
  // 32-bit half must not.
  EXPECT_NE(packRacePairKey(1, 2), packRacePairKey(1, 3));
  EXPECT_NE(packRacePairKey(1, 2), packRacePairKey(2, 2));
  // Same multiset of halves in different positions: {0,x} vs {x,x}.
  EXPECT_NE(packRacePairKey(0, 7), packRacePairKey(7, 7));
  // Swapping which id contributes which half must not alias another pair.
  EXPECT_NE(packRacePairKey(2, 1), packRacePairKey(1, 1));
  EXPECT_NE(packRacePairKey(0, 1), packRacePairKey(1, 0x10000));
}

TEST(RacePairKey, NormalizedOnUnorderedPair) {
  EXPECT_EQ(packRacePairKey(3, 9), packRacePairKey(9, 3));
  EXPECT_EQ(packRacePairKey(0, 0xffffffffu), packRacePairKey(0xffffffffu, 0));
  EXPECT_EQ(packRacePairKey(5, 5), packRacePairKey(5, 5));
}

TEST(RacePairKey, LargeIdsKeepTheirBits) {
  uint32_t A = 0xdeadbeefu, B = 0x12345678u;
  uint64_t K = packRacePairKey(A, B);
  EXPECT_EQ(static_cast<uint32_t>(K >> 32), B); // smaller id in high half
  EXPECT_EQ(static_cast<uint32_t>(K), A);
}

} // namespace
