//===- multi_input_test.cpp - Multi-input repair and coverage tests -------===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
// The paper applies the tool "iteratively for different test inputs" (§2)
// and names test-coverage analysis as future work (§9); both are
// implemented in repair/MultiInput.h.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "race/Detect.h"
#include "repair/MultiInput.h"

using namespace tdr;
using namespace tdr::test;

namespace {

/// A program whose races depend on the input: the async only spawns when
/// arg(0) > 10, so small test inputs cannot observe (or repair) its race.
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

TEST(MultiInput, SecondInputExposesMoreRaces) {
  ParsedProgram P = parseAndCheck(InputDependent);
  ASSERT_TRUE(P.ok()) << P.errors();

  // Repairing with the small input only fixes the X race.
  std::vector<ExecOptions> SmallOnly(1);
  SmallOnly[0].Args = {5};
  MultiRepairResult R1 =
      repairProgramForInputs(*P.Prog, *P.Ctx, SmallOnly);
  ASSERT_TRUE(R1.Success) << R1.Error;
  EXPECT_EQ(R1.FinishesInserted, 1u);

  // The large input still races (the Y async was never exercised).
  ExecOptions Large;
  Large.Args = {20};
  Detection D = detectRaces(*P.Prog, EspBagsDetector::Mode::MRW, Large);
  EXPECT_FALSE(D.Report.Pairs.empty());

  // A second repair round with the large input finishes the job.
  std::vector<ExecOptions> LargeOnly{Large};
  MultiRepairResult R2 =
      repairProgramForInputs(*P.Prog, *P.Ctx, LargeOnly);
  ASSERT_TRUE(R2.Success) << R2.Error;
  EXPECT_GE(R2.FinishesInserted, 1u);
  Detection D2 = detectRaces(*P.Prog, EspBagsDetector::Mode::MRW, Large);
  EXPECT_TRUE(D2.Report.Pairs.empty());
}

TEST(MultiInput, RepairForBothInputsAtOnce) {
  ParsedProgram P = parseAndCheck(InputDependent);
  ASSERT_TRUE(P.ok());
  std::vector<ExecOptions> Inputs(2);
  Inputs[0].Args = {5};
  Inputs[1].Args = {20};
  MultiRepairResult R = repairProgramForInputs(*P.Prog, *P.Ctx, Inputs);
  ASSERT_TRUE(R.Success) << R.Error;
  // Both inputs contributed finishes.
  EXPECT_EQ(R.InputsThatContributed.size(), 2u);
  for (const ExecOptions &E : Inputs) {
    Detection D = detectRaces(*P.Prog, EspBagsDetector::Mode::MRW, E);
    EXPECT_TRUE(D.Report.Pairs.empty());
  }
}

TEST(MultiInput, LaterInputsSeeEarlierFinishes) {
  ParsedProgram P = parseAndCheck(InputDependent);
  ASSERT_TRUE(P.ok());
  std::vector<ExecOptions> Inputs(3);
  Inputs[0].Args = {20}; // exercises everything
  Inputs[1].Args = {5};
  Inputs[2].Args = {30};
  MultiRepairResult R = repairProgramForInputs(*P.Prog, *P.Ctx, Inputs);
  ASSERT_TRUE(R.Success);
  // Only the first input inserts finishes; the rest confirm in one run.
  ASSERT_EQ(R.InputsThatContributed.size(), 1u);
  EXPECT_EQ(R.InputsThatContributed[0], 0u);
  EXPECT_EQ(R.IterationsPerInput[1], 1u);
  EXPECT_EQ(R.IterationsPerInput[2], 1u);
}

TEST(MultiInput, SuccessfulRepairIsFinallyVerified) {
  // Satellite of the repair loop: after the last input's repair, every
  // earlier input is re-verified (a later repair could in principle
  // interact with earlier inputs), and the result says so.
  ParsedProgram P = parseAndCheck(InputDependent);
  ASSERT_TRUE(P.ok());
  std::vector<ExecOptions> Inputs(2);
  Inputs[0].Args = {5};
  Inputs[1].Args = {20};
  MultiRepairResult R = repairProgramForInputs(*P.Prog, *P.Ctx, Inputs);
  ASSERT_TRUE(R.Success) << R.Error;
  EXPECT_TRUE(R.FinalVerified);
  EXPECT_EQ(R.FailedVerifyInput, static_cast<size_t>(-1));
}

TEST(MultiInput, CrashingInputFailsBeforeVerification) {
  const char *CrashesOnNegative = R"(
var X: int = 0;
func main() {
  var a: int[] = new int[arg(0)];
  async { X = 1; }
  print(X);
}
)";
  ParsedProgram P = parseAndCheck(CrashesOnNegative);
  ASSERT_TRUE(P.ok()) << P.errors();
  std::vector<ExecOptions> Inputs(2);
  Inputs[0].Args = {4};
  Inputs[1].Args = {-5}; // negative array dimension: runtime error
  MultiRepairResult R = repairProgramForInputs(*P.Prog, *P.Ctx, Inputs);
  EXPECT_FALSE(R.Success);
  EXPECT_FALSE(R.FinalVerified);
  EXPECT_FALSE(R.Error.empty());
}

TEST(Coverage, DetectsUnexercisedAsyncSites) {
  ParsedProgram P = parseAndCheck(InputDependent);
  ASSERT_TRUE(P.ok());
  std::vector<ExecOptions> Small(1);
  Small[0].Args = {5};
  CoverageReport C = analyzeTestCoverage(*P.Prog, Small);
  ASSERT_EQ(C.Sites.size(), 2u);
  EXPECT_EQ(C.NumExercised, 1u);
  EXPECT_EQ(C.NumUnexercised, 1u);
  EXPECT_FALSE(C.suitable());
  EXPECT_DOUBLE_EQ(C.siteCoverage(), 0.5);
}

TEST(Coverage, FullCoverageWithAdequateInputs) {
  ParsedProgram P = parseAndCheck(InputDependent);
  ASSERT_TRUE(P.ok());
  std::vector<ExecOptions> Inputs(2);
  Inputs[0].Args = {5};
  Inputs[1].Args = {20};
  CoverageReport C = analyzeTestCoverage(*P.Prog, Inputs);
  EXPECT_TRUE(C.suitable());
  EXPECT_EQ(C.NumUnexercised, 0u);
  // The unconditional async ran on both inputs; the guarded one on one.
  EXPECT_EQ(C.Sites[0].totalInstances(), 2u);
  EXPECT_EQ(C.Sites[1].totalInstances(), 1u);
}

TEST(Coverage, CountsFutureSites) {
  // A future is a spawn site like an async: if no input takes the branch,
  // no race of its body was observable, so the test set is not suitable.
  const char *GuardedFuture = R"(
var X: int = 0;
func produce(): int {
  X = 1;
  return 1;
}
func main() {
  var n: int = arg(0);
  if (n > 10) {
    future f = produce();
  }
  X = 2;
  print(X);
}
)";
  ParsedProgram P = parseAndCheck(GuardedFuture);
  ASSERT_TRUE(P.ok()) << P.errors();
  std::vector<ExecOptions> Inputs(2);
  Inputs[0].Args = {1};
  Inputs[1].Args = {2};
  CoverageReport C = analyzeTestCoverage(*P.Prog, Inputs);
  ASSERT_EQ(C.Sites.size(), 1u);
  EXPECT_FALSE(C.Sites[0].exercised());
  EXPECT_EQ(C.NumUnexercised, 1u);
  EXPECT_FALSE(C.suitable());

  // An input that takes the branch exercises the future once.
  Inputs[1].Args = {20};
  CoverageReport C2 = analyzeTestCoverage(*P.Prog, Inputs);
  ASSERT_EQ(C2.Sites.size(), 1u);
  EXPECT_EQ(C2.Sites[0].InstancesPerInput, (std::vector<uint64_t>{0, 1}));
  EXPECT_TRUE(C2.suitable());
}

TEST(Coverage, CrashingInputIsReportedNotSkipped) {
  // Regression: analyzeTestCoverage used to `continue` over inputs that
  // failed to execute, so a test set full of crashing inputs could still
  // look "suitable". Failures must be recorded and veto suitability.
  const char *CrashesOnNegative = R"(
var X: int = 0;
func main() {
  var a: int[] = new int[arg(0)];
  async { X = 1; }
  if (arg(0) > 10) {
    async { X = 2; }
  }
}
)";
  ParsedProgram P = parseAndCheck(CrashesOnNegative);
  ASSERT_TRUE(P.ok()) << P.errors();

  std::vector<ExecOptions> Inputs(3);
  Inputs[0].Args = {4};
  Inputs[1].Args = {-5}; // crashes: negative array dimension
  Inputs[2].Args = {20};
  CoverageReport C = analyzeTestCoverage(*P.Prog, Inputs);

  // Both async sites are exercised by the good inputs...
  EXPECT_EQ(C.NumUnexercised, 0u);
  // ...but the crashing input is on record and vetoes suitability.
  ASSERT_EQ(C.FailedInputs.size(), 1u);
  EXPECT_EQ(C.FailedInputs[0].Index, 1u);
  EXPECT_FALSE(C.FailedInputs[0].Error.empty());
  EXPECT_FALSE(C.suitable());

  // Dropping the bad input restores suitability.
  std::vector<ExecOptions> Good{Inputs[0], Inputs[2]};
  CoverageReport C2 = analyzeTestCoverage(*P.Prog, Good);
  EXPECT_TRUE(C2.FailedInputs.empty());
  EXPECT_TRUE(C2.suitable());
}

TEST(Coverage, CountsRecursiveInstances) {
  const char *Fib = R"(
func fib(ret: int[], n: int) {
  if (n < 2) { ret[0] = n; return; }
  var x: int[] = new int[1];
  var y: int[] = new int[1];
  finish {
    async fib(x, n - 1);
    async fib(y, n - 2);
  }
  ret[0] = x[0] + y[0];
}
func main() {
  var r: int[] = new int[1];
  fib(r, arg(0));
  print(r[0]);
}
)";
  ParsedProgram P = parseAndCheck(Fib);
  ASSERT_TRUE(P.ok());
  std::vector<ExecOptions> Inputs(1);
  Inputs[0].Args = {10};
  CoverageReport C = analyzeTestCoverage(*P.Prog, Inputs);
  ASSERT_EQ(C.Sites.size(), 2u);
  EXPECT_TRUE(C.suitable());
  // fib(10): each async site spawns once per internal call.
  EXPECT_GT(C.Sites[0].totalInstances(), 50u);
  EXPECT_EQ(C.Sites[0].totalInstances(), C.Sites[1].totalInstances());
}

} // namespace
