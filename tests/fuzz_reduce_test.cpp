//===- fuzz_reduce_test.cpp - Reducer + fuzz-farm properties --------------===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
// Pins the contracts the fuzz farm's triage story depends on:
//
//  * the promoted generator's default profile is BYTE-STABLE (golden
//    FNV-1a hashes) so every seeded differential corpus in the tree kept
//    its programs across the tests/ -> src/fuzz/ move;
//  * ddmin reduction is deterministic, idempotent (reducing a reduced
//    program is a fixpoint), and 1-minimal at statement granularity on
//    seeded known-failing programs, and shrinks them to a handful of
//    lines;
//  * the differential oracle is clean on generated programs and the fuzz
//    driver's summary JSON parses with the schema fields the check_fuzz.py
//    validator gates CI on.
//
//===----------------------------------------------------------------------===//

#include "RandomProgram.h"

#include "fuzz/Fuzzer.h"
#include "fuzz/Oracle.h"
#include "fuzz/Reduce.h"
#include "race/Detect.h"
#include "support/Json.h"

#include "ast/AstContext.h"
#include "frontend/Parser.h"
#include "sema/Sema.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"

#include <gtest/gtest.h>

using namespace tdr;

namespace {

uint64_t fnv1a(const std::string &S) {
  uint64_t H = 1469598103934665603ull;
  for (char C : S) {
    H ^= static_cast<unsigned char>(C);
    H *= 1099511628211ull;
  }
  return H;
}

size_t countLines(const std::string &S) {
  size_t N = 0;
  for (char C : S)
    N += C == '\n';
  return N;
}

/// True when \p Source is well-formed and MRW ESP-bags detection reports
/// at least one racing pair — the "still fails" predicate used to exercise
/// the reducer the same way a real detector-bug predicate would.
bool stillRaces(const std::string &Source) {
  SourceManager SM("pred.hj", Source);
  DiagnosticsEngine Diags;
  AstContext Ctx;
  Parser P(SM.buffer(), Ctx, Diags);
  Program *Prog = P.parseProgram();
  if (Diags.hasErrors())
    return false;
  runSema(*Prog, Ctx, Diags);
  if (Diags.hasErrors())
    return false;
  Detection D = detectRaces(*Prog, EspBagsDetector::Mode::MRW);
  return D.ok() && !D.Report.Pairs.empty();
}

//===----------------------------------------------------------------------===//
// Generator byte-stability (satellite 5)
//===----------------------------------------------------------------------===//

TEST(RandomProgramGolden, DefaultProfileByteStable) {
  // Golden FNV-1a hashes of the default profile, captured from the
  // pre-promotion tests/RandomProgram.h generator. A mismatch means the
  // shared generator changed the default profile's text and every seeded
  // corpus in the tree silently shifted — change the generator only behind
  // new opt-in switches.
  struct {
    uint64_t Seed;
    uint64_t Hash;
  } const Golden[] = {
      {1, 0x1737cb9223b9fe76ull},     {2, 0x672454e8886b59a5ull},
      {3, 0xd2b6b41542679138ull},     {42, 0x54033b853c2e2159ull},
      {12345, 0xc8f664c63bc66a26ull},
  };
  for (const auto &G : Golden) {
    fuzz::RandomProgramGen Gen(G.Seed);
    EXPECT_EQ(fnv1a(Gen.generate()), G.Hash) << "seed " << G.Seed;
  }
}

TEST(RandomProgramGolden, TestAliasIsSameGenerator) {
  test::RandomProgramGen A(99);
  fuzz::RandomProgramGen B(99);
  EXPECT_EQ(A.generate(), B.generate());
}

TEST(RandomProgramGolden, FuzzProgramDerivationIsDeterministic) {
  for (size_t I : {size_t(0), size_t(1), size_t(2), size_t(17)}) {
    EXPECT_EQ(fuzz::fuzzProgramSeed(7, I), fuzz::fuzzProgramSeed(7, I));
    EXPECT_EQ(fuzz::generateFuzzProgram(7, I),
              fuzz::generateFuzzProgram(7, I));
  }
  // The profile rotation covers all three shapes.
  EXPECT_EQ(fuzz::fuzzProgramProfile(0), fuzz::FuzzProfile::Default);
  EXPECT_EQ(fuzz::fuzzProgramProfile(1), fuzz::FuzzProfile::Constructs);
  EXPECT_EQ(fuzz::fuzzProgramProfile(2), fuzz::FuzzProfile::Sparse);
  EXPECT_EQ(fuzz::fuzzProgramProfile(3), fuzz::FuzzProfile::Default);
}

//===----------------------------------------------------------------------===//
// Reducer properties (satellite 4)
//===----------------------------------------------------------------------===//

TEST(Reduce, ShrinksRacyProgramsSmallDeterministicIdempotentMinimal) {
  for (uint64_t Seed : {3ull, 11ull, 29ull}) {
    fuzz::RandomProgramGen Gen(Seed);
    std::string Source = Gen.generate();
    if (!stillRaces(Source))
      continue; // generator aims for racy programs but does not guarantee

    fuzz::ReduceResult R = fuzz::reduceProgram(Source, stillRaces);
    ASSERT_TRUE(R.PredicateHeld) << "seed " << Seed;
    EXPECT_TRUE(R.Minimal) << "seed " << Seed;
    EXPECT_TRUE(stillRaces(R.Text)) << "seed " << Seed;
    // A minimal racy program is a couple of declarations plus two
    // conflicting accesses — the "minimized to a handful of lines" bar
    // trophies are held to.
    EXPECT_LE(countLines(R.Text), 15u) << "seed " << Seed << ":\n" << R.Text;

    // Deterministic: the same input reduces to byte-identical text.
    fuzz::ReduceResult R2 = fuzz::reduceProgram(Source, stillRaces);
    EXPECT_EQ(R.Text, R2.Text) << "seed " << Seed;
    EXPECT_EQ(R.Tests, R2.Tests) << "seed " << Seed;

    // Idempotent: reducing a reduced program is a fixpoint.
    fuzz::ReduceResult R3 = fuzz::reduceProgram(R.Text, stillRaces);
    EXPECT_EQ(R3.Text, R.Text) << "seed " << Seed;
    EXPECT_TRUE(R3.Minimal) << "seed " << Seed;
    EXPECT_EQ(R3.RemovedStmts, 0u) << "seed " << Seed;

    // 1-minimal: removing any single remaining statement kills the
    // failure.
    size_t Slots = fuzz::countRemovableSlots(R.Text);
    ASSERT_GT(Slots, 0u) << "seed " << Seed;
    for (size_t S = 0; S != Slots; ++S) {
      std::string Removed = fuzz::removeSlot(R.Text, S);
      ASSERT_NE(Removed, R.Text) << "seed " << Seed << " slot " << S;
      EXPECT_FALSE(stillRaces(Removed)) << "seed " << Seed << " slot " << S;
    }
  }
}

TEST(Reduce, PredicateNeverHoldsReturnsInputUntouched) {
  fuzz::RandomProgramGen Gen(5);
  std::string Source = Gen.generate();
  fuzz::ReduceResult R = fuzz::reduceProgram(
      Source, [](const std::string &) { return false; });
  EXPECT_FALSE(R.PredicateHeld);
  EXPECT_EQ(R.Text, Source);
  EXPECT_EQ(R.RemovedStmts, 0u);
}

TEST(Reduce, BudgetExhaustionReportsNotMinimal) {
  fuzz::RandomProgramGen Gen(3);
  std::string Source = Gen.generate();
  if (!stillRaces(Source))
    GTEST_SKIP();
  fuzz::ReduceOptions O;
  O.MaxTests = 3; // far too small to reach the fixpoint
  fuzz::ReduceResult R = fuzz::reduceProgram(Source, stillRaces, O);
  EXPECT_TRUE(R.PredicateHeld);
  EXPECT_FALSE(R.Minimal);
  EXPECT_TRUE(stillRaces(R.Text)); // best-so-far still reproduces
}

TEST(Reduce, SlotHooksRoundTrip) {
  const char *Source = "func main() {\n"
                       "  var x: int = 0;\n"
                       "  x = 1;\n"
                       "  x = 2;\n"
                       "}\n";
  EXPECT_EQ(fuzz::countRemovableSlots(Source), 3u);
  // Out-of-range slot and unparsable text are identity.
  EXPECT_EQ(fuzz::removeSlot(Source, 99), Source);
  EXPECT_EQ(fuzz::countRemovableSlots("not a program"), 0u);
  EXPECT_EQ(fuzz::removeSlot("not a program", 0), "not a program");
  // Removing slot 1 drops the first assignment, not the declaration.
  std::string Removed = fuzz::removeSlot(Source, 1);
  EXPECT_NE(Removed.find("var x"), std::string::npos);
  EXPECT_EQ(Removed.find("x = 1"), std::string::npos);
  EXPECT_NE(Removed.find("x = 2"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Oracle + driver
//===----------------------------------------------------------------------===//

TEST(Oracle, CleanOnGeneratedPrograms) {
  for (size_t I = 0; I != 8; ++I) {
    fuzz::OracleConfig C;
    C.CheckRepair = I % 2 == 0; // keep the test fast
    fuzz::OracleOutcome Out =
        fuzz::runOracle(fuzz::generateFuzzProgram(11, I), C);
    EXPECT_TRUE(Out.clean())
        << "program " << I << ": "
        << fuzz::findingKindName(Out.Findings.front().Kind) << " at "
        << Out.Findings.front().Config << ": " << Out.Findings.front().Detail;
    EXPECT_GT(Out.DetectRuns, 0u);
    EXPECT_GT(Out.ReplayRuns, 0u);
  }
}

TEST(Oracle, FindingKindNamesRoundTrip) {
  for (fuzz::FindingKind K :
       {fuzz::FindingKind::ParseError, fuzz::FindingKind::ExecError,
        fuzz::FindingKind::BackendMismatch,
        fuzz::FindingKind::ReplayDivergence, fuzz::FindingKind::RepairDisagree,
        fuzz::FindingKind::RepairNotConverged}) {
    fuzz::FindingKind Parsed;
    ASSERT_TRUE(fuzz::parseFindingKind(fuzz::findingKindName(K), Parsed));
    EXPECT_EQ(Parsed, K);
  }
  fuzz::FindingKind Unused;
  EXPECT_FALSE(fuzz::parseFindingKind("no-such-kind", Unused));
}

TEST(Oracle, MalformedProgramIsAParseErrorFinding) {
  EXPECT_TRUE(fuzz::oracleFires("func main() { oops", fuzz::OracleConfig(),
                                fuzz::FindingKind::ParseError));
}

TEST(Fuzzer, SummaryJsonParsesWithSchemaFields) {
  fuzz::FuzzOptions O;
  O.Programs = 6;
  O.Jobs = 2;
  O.Seed = 21;
  fuzz::FuzzSummary S = fuzz::runFuzz(O);
  EXPECT_EQ(S.ProgramsRun, 6u);
  EXPECT_TRUE(S.clean());

  json::ParseResult P = json::parse(fuzz::renderFuzzSummaryJson(S, O));
  ASSERT_TRUE(P.Ok) << P.Error;
  EXPECT_EQ(P.Doc.getString("schema"), fuzz::FuzzSummarySchema);
  EXPECT_EQ(static_cast<int>(P.Doc.getNumber("version")),
            fuzz::FuzzSummaryVersion);
  EXPECT_EQ(P.Doc.getNumber("programs_run"), 6);
  EXPECT_EQ(P.Doc.getNumber("programs_skipped"), 0);
  EXPECT_GT(P.Doc.getNumber("detect_runs"), 0);
  const json::Value *Findings = P.Doc.get("findings");
  ASSERT_NE(Findings, nullptr);
  EXPECT_TRUE(Findings->isArray());
  EXPECT_TRUE(Findings->elements().empty());
  const json::Value *Counters = P.Doc.get("counters");
  ASSERT_NE(Counters, nullptr);
  ASSERT_TRUE(Counters->isObject());
  EXPECT_EQ(Counters->getNumber("fuzz.programs"), 6);
}

TEST(Fuzzer, JobCountDoesNotChangeResults) {
  fuzz::FuzzOptions O;
  O.Programs = 8;
  O.Seed = 33;
  O.Jobs = 1;
  fuzz::FuzzSummary S1 = fuzz::runFuzz(O);
  O.Jobs = 4;
  fuzz::FuzzSummary S4 = fuzz::runFuzz(O);
  EXPECT_EQ(S1.ProgramsRun, S4.ProgramsRun);
  EXPECT_EQ(S1.DetectRuns, S4.DetectRuns);
  EXPECT_EQ(S1.ReplayRuns, S4.ReplayRuns);
  EXPECT_EQ(S1.RepairRuns, S4.RepairRuns);
  EXPECT_EQ(S1.Findings.size(), S4.Findings.size());
}

} // namespace
