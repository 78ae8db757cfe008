//===- diag_test.cpp - Witness, provenance, and run-report tests ----------===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
// The explainable-diagnostics layer: race witnesses reconstructed from the
// S-DPST and a re-interpretation of the program (src/diag/Witness.h),
// per-finish
// repair provenance (RepairOptions::CollectDiag), and the schema-versioned
// run report with its `tdr explain` renderer (src/diag/RunReport.h).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "RandomProgram.h"

#include "diag/RunReport.h"
#include "diag/Witness.h"
#include "race/Detect.h"
#include "repair/RepairDriver.h"
#include "support/Json.h"

using namespace tdr;
using namespace tdr::test;

namespace {

/// One write-in-async vs read-after race on global X.
const char *SimpleRace = R"(
var X: int = 0;
func main() {
  async { X = 1; }
  print(X);
}
)";

/// Races depend on the input: the Y async only spawns when arg(0) > 10
/// (the multi_input_test fixture).
const char *InputDependent = R"(
var X: int = 0;
var Y: int = 0;
func main() {
  var n: int = arg(0);
  async { X = n; }
  if (n > 10) {
    async { Y = n; }
  }
  print(X + Y);
}
)";

/// A future's write races with the continuation's write: nothing forces
/// the future before main writes X.
const char *FutureRace = R"(
var X: int = 0;
func produce(): int {
  X = 1;
  return 1;
}
func main() {
  future f = produce();
  X = 2;
  print(X);
}
)";

ExecOptions inputs(std::vector<int64_t> Args) {
  ExecOptions Exec;
  Exec.Args = std::move(Args);
  return Exec;
}

/// MRW detection of \p P plus its witnesses, with access sites refined by
/// re-interpretation the way the CLI's --report path does.
Detection detectExplained(const ParsedProgram &P,
                          std::vector<diag::RaceWitness> &Ws,
                          std::vector<int64_t> Args = {}) {
  Detection D = detectRaces(*P.Prog, EspBagsDetector::Mode::MRW, inputs(Args));
  if (D.ok())
    Ws = diag::buildWitnesses(*D.Tree, D.Report, P.SM.get(), P.Prog,
                              inputs(Args));
  return D;
}

TEST(Witness, SimpleRaceIsFullyExplained) {
  ParsedProgram P = parseAndCheck(SimpleRace);
  ASSERT_TRUE(P.ok()) << P.errors();

  std::vector<diag::RaceWitness> Ws;
  Detection D = detectExplained(P, Ws);
  ASSERT_TRUE(D.ok());
  ASSERT_EQ(D.Report.Pairs.size(), 1u);
  ASSERT_EQ(Ws.size(), 1u);
  const diag::RaceWitness &W = Ws[0];

  // The location and both access kinds come from the report's witness.
  EXPECT_EQ(W.Location, D.Report.Pairs[0].Loc.str());
  EXPECT_EQ(W.Src.Step, D.Report.Pairs[0].Src->id());
  EXPECT_EQ(W.Snk.Step, D.Report.Pairs[0].Snk->id());

  // Site refinement: the write attributes to `X = 1` inside the async
  // body (line 4, past the `async {` header), the read to the print.
  EXPECT_EQ(W.Src.Kind, AccessKind::Write);
  EXPECT_EQ(W.Src.Pos.Line, 4u);
  EXPECT_GT(W.Src.Pos.Col, 9u) << "write must refine into the async body";
  EXPECT_NE(W.Src.Pos.LineText.find("X = 1"), std::string::npos);
  EXPECT_EQ(W.Snk.Kind, AccessKind::Read);
  EXPECT_EQ(W.Snk.Pos.Line, 5u);
  EXPECT_NE(W.Snk.Pos.LineText.find("print"), std::string::npos);

  // Theorem-1 evidence: the async at 4:3 escapes the NS-LCA unjoined.
  EXPECT_TRUE(W.HasBreakingAsync);
  EXPECT_EQ(W.BreakingAsyncPos.Line, 4u);
  EXPECT_EQ(W.BreakingAsyncPos.Col, 3u);

  // Spines run nearest-first and end at the root; the write's spine
  // passes through the breaking async.
  ASSERT_FALSE(W.SrcSpine.empty());
  ASSERT_FALSE(W.SnkSpine.empty());
  EXPECT_EQ(W.SrcSpine.front().Id, W.BreakingAsyncId);
  EXPECT_EQ(W.SrcSpine.back().Kind, DpstKind::Root);
  EXPECT_EQ(W.SnkSpine.back().Kind, DpstKind::Root);
}

TEST(Witness, RenderedTextCarriesCaretsAndTheorem1Argument) {
  ParsedProgram P = parseAndCheck(SimpleRace);
  ASSERT_TRUE(P.ok()) << P.errors();

  std::vector<diag::RaceWitness> Ws;
  detectExplained(P, Ws);
  ASSERT_EQ(Ws.size(), 1u);

  std::string Text = diag::renderWitnessText(Ws[0]);
  EXPECT_NE(Text.find("race on global#0: write"), std::string::npos) << Text;
  EXPECT_NE(Text.find("first access"), std::string::npos);
  EXPECT_NE(Text.find("second access"), std::string::npos);
  EXPECT_NE(Text.find("^"), std::string::npos) << "missing caret: " << Text;
  EXPECT_NE(Text.find("unordered because"), std::string::npos);
  EXPECT_NE(Text.find("escapes it unjoined"), std::string::npos);
  // Plain render stays ANSI-free; Color=true adds SGR escapes.
  EXPECT_EQ(Text.find('\x1b'), std::string::npos);
  std::string Colored = diag::renderWitnessText(Ws[0], /*Color=*/true);
  EXPECT_NE(Colored.find("\x1b["), std::string::npos);
}

TEST(Witness, DiffersPerInputOnInputDependentProgram) {
  ParsedProgram P = parseAndCheck(InputDependent);
  ASSERT_TRUE(P.ok()) << P.errors();

  // Small input: only the X race exists.
  std::vector<diag::RaceWitness> SmallWs;
  detectExplained(P, SmallWs, {5});
  ASSERT_EQ(SmallWs.size(), 1u);
  EXPECT_EQ(SmallWs[0].Location, "global#0");

  // Large input: the Y async spawns too, adding a second, distinct
  // witness with its own breaking async (line 8 vs line 6).
  std::vector<diag::RaceWitness> LargeWs;
  detectExplained(P, LargeWs, {20});
  ASSERT_EQ(LargeWs.size(), 2u);
  EXPECT_EQ(LargeWs[0].Location, "global#0");
  EXPECT_EQ(LargeWs[1].Location, "global#1");
  EXPECT_NE(LargeWs[0].BreakingAsyncPos.Line,
            LargeWs[1].BreakingAsyncPos.Line);
  EXPECT_EQ(SmallWs[0].BreakingAsyncPos.Line,
            LargeWs[0].BreakingAsyncPos.Line);
}

TEST(Witness, FutureIsTheBreakingTask) {
  ParsedProgram P = parseAndCheck(FutureRace);
  ASSERT_TRUE(P.ok()) << P.errors();

  std::vector<diag::RaceWitness> Ws;
  Detection D = detectExplained(P, Ws);
  ASSERT_TRUE(D.ok()) << D.Exec.Error;
  ASSERT_FALSE(Ws.empty());
  const diag::RaceWitness &W = Ws[0];
  EXPECT_EQ(W.Src.Kind, AccessKind::Write);
  EXPECT_EQ(W.Src.Pos.Line, 4u) << "write must refine into the future body";

  // Theorem 1 with futures: the unforced future is the task that leaves
  // the writes unordered; it sits at the future statement, line 8.
  ASSERT_TRUE(W.HasBreakingAsync);
  EXPECT_EQ(W.BreakingAsyncPos.Line, 8u);
  ASSERT_FALSE(W.SrcSpine.empty());
  EXPECT_EQ(W.SrcSpine.front().Kind, DpstKind::Future);
  EXPECT_EQ(W.SrcSpine.front().Id, W.BreakingAsyncId);
  EXPECT_EQ(W.SrcSpine.front().Pos.Line, 8u);

  std::string Text = diag::renderWitnessText(W);
  EXPECT_EQ(Text.find("no breaking async found"), std::string::npos) << Text;
  EXPECT_NE(Text.find("future#"), std::string::npos) << Text;

  // The kind survives the report round trip `tdr explain` reads.
  diag::RunReport Rep;
  Rep.Tool = "races";
  Rep.Mode = "mrw";
  diag::JobReport Job;
  Job.Name = "future.hj";
  diag::IterationDiag It;
  It.Witnesses = Ws;
  Job.Diag.Iterations.push_back(std::move(It));
  Rep.Jobs.push_back(std::move(Job));
  json::ParseResult Parsed = json::parse(diag::renderRunReportJson(Rep));
  ASSERT_TRUE(Parsed.Ok) << Parsed.Error;
  std::string Out, Err;
  ASSERT_TRUE(diag::renderExplainText(Parsed.Doc, /*Color=*/false, Out, Err))
      << Err;
  EXPECT_EQ(Out.find("no breaking async found"), std::string::npos) << Out;
  EXPECT_NE(Out.find("first  spine: future#"), std::string::npos) << Out;
}

TEST(Witness, PropertyEveryReportedPairYieldsUnorderedWitness) {
  for (uint64_t Seed = 1; Seed <= 25; ++Seed) {
    RandomProgramGen Gen(Seed);
    ParsedProgram P = parseAndCheck(Gen.generate());
    ASSERT_TRUE(P.ok()) << "seed " << Seed << ": " << P.errors();

    std::vector<diag::RaceWitness> Ws;
    Detection D = detectExplained(P, Ws);
    if (!D.ok())
      continue; // work-limit aborts are not witness material
    ASSERT_EQ(Ws.size(), D.Report.Pairs.size()) << "seed " << Seed;

    for (size_t I = 0; I != Ws.size(); ++I) {
      const RacePair &R = D.Report.Pairs[I];
      const diag::RaceWitness &W = Ws[I];
      // The witness explains exactly the reported pair...
      EXPECT_EQ(W.Src.Step, R.Src->id()) << "seed " << Seed;
      EXPECT_EQ(W.Snk.Step, R.Snk->id()) << "seed " << Seed;
      // ...whose steps the S-DPST confirms are unordered (Theorem 1),
      // with the breaking async as evidence.
      EXPECT_TRUE(D.Tree->mayHappenInParallel(R.Src, R.Snk))
          << "seed " << Seed << ": reported pair is ordered";
      EXPECT_TRUE(W.HasBreakingAsync)
          << "seed " << Seed << ": no breaking async for an unordered pair";
      // Refined sites resolved to real source positions.
      EXPECT_TRUE(W.Src.Pos.valid()) << "seed " << Seed;
      EXPECT_TRUE(W.Snk.Pos.valid()) << "seed " << Seed;
    }
  }
}

TEST(Provenance, RepairRecordsWhyEachFinishExists) {
  ParsedProgram P = parseAndCheck(InputDependent);
  ASSERT_TRUE(P.ok()) << P.errors();

  RepairOptions Opts;
  Opts.Exec.Args = {20};
  Opts.CollectDiag = true;
  Opts.SM = P.SM.get();
  RepairResult R = repairProgram(*P.Prog, *P.Ctx, Opts);
  ASSERT_TRUE(R.Success) << R.Error;
  ASSERT_EQ(R.Stats.FinishesInserted, 2u);

  // One provenance record per inserted finish.
  ASSERT_EQ(R.Diag.Repairs.size(), 2u);
  for (const diag::FinishProvenance &F : R.Diag.Repairs) {
    EXPECT_EQ(F.Construct, "finish");
    EXPECT_TRUE(F.Anchor.valid());
    EXPECT_GE(F.DynamicInstances, 1u);
    EXPECT_FALSE(F.ForcedEdges.empty());
    // Adding a finish can only lengthen (or keep) the critical path.
    EXPECT_GE(F.CostAfter, F.CostBefore);
  }

  // The iteration log shows convergence: first iteration racy, final
  // iteration clean.
  ASSERT_GE(R.Diag.Iterations.size(), 2u);
  EXPECT_FALSE(R.Diag.Iterations.front().Witnesses.empty());
  EXPECT_TRUE(R.Diag.Iterations.back().Witnesses.empty());
}

TEST(RunReport, JsonRoundTripsThroughParserAndExplain) {
  ParsedProgram P = parseAndCheck(InputDependent);
  ASSERT_TRUE(P.ok()) << P.errors();

  RepairOptions Opts;
  Opts.Exec.Args = {20};
  Opts.CollectDiag = true;
  Opts.SM = P.SM.get();
  RepairResult R = repairProgram(*P.Prog, *P.Ctx, Opts);
  ASSERT_TRUE(R.Success) << R.Error;

  diag::RunReport Rep;
  Rep.Tool = "repair";
  Rep.Mode = "mrw";
  diag::JobReport Job;
  Job.Name = "test.hj";
  Job.Args = {20};
  Job.Success = true;
  Job.Stats.Iterations = R.Stats.Iterations;
  Job.Stats.FinishesInserted = R.Stats.FinishesInserted;
  Job.Stats.RacePairs = R.Stats.RacePairs;
  Job.Diag = R.Diag;
  Rep.Jobs.push_back(std::move(Job));

  std::string JsonText = diag::renderRunReportJson(Rep);
  json::ParseResult Parsed = json::parse(JsonText);
  ASSERT_TRUE(Parsed.Ok) << Parsed.Error;
  EXPECT_EQ(Parsed.Doc.getString("schema"), "tdr-report");
  EXPECT_EQ(Parsed.Doc.getNumber("version"), 3.0);

  std::string Out, Err;
  ASSERT_TRUE(diag::renderExplainText(Parsed.Doc, /*Color=*/false, Out, Err))
      << Err;
  EXPECT_NE(Out.find("tdr run report"), std::string::npos);
  EXPECT_NE(Out.find("inserted repairs (2)"), std::string::npos) << Out;
  EXPECT_NE(Out.find("critical path"), std::string::npos);
  EXPECT_NE(Out.find("forced by dependence edge(s)"), std::string::npos);
  EXPECT_NE(Out.find("unordered because"), std::string::npos);

  // A document from another schema family is rejected with a message.
  json::ParseResult Other = json::parse(R"({"schema":"not-tdr"})");
  ASSERT_TRUE(Other.Ok);
  Out.clear();
  EXPECT_FALSE(diag::renderExplainText(Other.Doc, false, Out, Err));
  EXPECT_FALSE(Err.empty());
}

TEST(RunReport, WitnessSectionsMatchOracle) {
  // The report's diagnostic subtree must not depend on the detector that
  // found the races: ESP-bags and the Theorem-1 oracle render the same
  // witnesses for the same execution.
  ParsedProgram P = parseAndCheck(InputDependent);
  ASSERT_TRUE(P.ok()) << P.errors();

  std::string Sections[2];
  for (int I = 0; I != 2; ++I) {
    Detection D = I == 0 ? detectRaces(*P.Prog, DetectOptions(), inputs({20}))
                         : detectRacesOracle(*P.Prog, inputs({20}));
    std::vector<diag::RaceWitness> Ws = diag::buildWitnesses(
        *D.Tree, D.Report, P.SM.get(), P.Prog, inputs({20}));
    Sections[I] = diag::renderWitnessesText(Ws);
  }
  EXPECT_EQ(Sections[0], Sections[1]);
}

} // namespace
