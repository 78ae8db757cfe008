//===- classroom_grader.cpp - Automated homework grading (§7.4) -----------===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
// The paper's classroom use case: grade a student's finish placement for
// the parallel-quicksort assignment against the tool's own repair. A
// submission is "racy" if the detector finds races on the test input,
// "over-synchronized" if race free but with a longer critical path than
// the tool's repair, and "matches the tool" otherwise.
//
// Run with no arguments to grade three sample submissions, or pass a path
// to an HJ-mini file to grade it (the program must read its input size
// from arg(0)).
//
// Run: build/examples/classroom_grader [submission.hj]
//
//===----------------------------------------------------------------------===//

#include "ast/Transforms.h"
#include "frontend/Parser.h"
#include "race/Detect.h"
#include "repair/MultiInput.h"
#include "repair/RepairDriver.h"
#include "sema/Sema.h"
#include "suite/StudentCohort.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace tdr;

namespace {

constexpr int64_t InputSize = 200;

/// The assignment skeleton with no synchronization; the tool's repair of
/// it is the grading baseline.
const char *Skeleton = R"(
var A: int[];

func partition(lo: int, hi: int, out: int[]) {
  var pivot: int = A[(lo + hi) / 2];
  var i: int = lo;
  var j: int = hi;
  while (i <= j) {
    while (A[i] < pivot) { i = i + 1; }
    while (A[j] > pivot) { j = j - 1; }
    if (i <= j) {
      var t: int = A[i]; A[i] = A[j]; A[j] = t;
      i = i + 1; j = j - 1;
    }
  }
  out[0] = i;
  out[1] = j;
}

func quicksort(m: int, n: int) {
  if (m < n) {
    var p: int[] = new int[2];
    partition(m, n, p);
    async quicksort(m, p[1]);
    async quicksort(p[0], n);
  }
}

func main() {
  var n: int = arg(0);
  A = new int[n];
  randSeed(42);
  for (var i: int = 0; i < n; i = i + 1) { A[i] = randInt(100000); }
  quicksort(0, n - 1);
  var ok: bool = true;
  for (var i: int = 1; i < n; i = i + 1) {
    if (A[i - 1] > A[i]) { ok = false; }
  }
  print(ok);
}
)";

uint64_t toolBaselineCpl() {
  SourceManager SM("skeleton.hj", Skeleton);
  DiagnosticsEngine Diags;
  AstContext Ctx;
  Parser P(SM.buffer(), Ctx, Diags);
  Program *Prog = P.parseProgram();
  runSema(*Prog, Ctx, Diags);
  RepairOptions Opts;
  Opts.Exec.Args = {InputSize};
  RepairResult R = repairProgram(*Prog, Ctx, Opts);
  if (!R.Success)
    return 0;
  Detection D = detectRaces(*Prog, EspBagsDetector::Mode::SRW, Opts.Exec);
  return D.Tree->subtreeCpl(D.Tree->root());
}

void grade(const std::string &Name, const std::string &Src,
           uint64_t ToolCpl) {
  SourceManager SM(Name, Src);
  DiagnosticsEngine Diags;
  AstContext Ctx;
  Parser P(SM.buffer(), Ctx, Diags);
  Program *Prog = P.parseProgram();
  if (!Diags.hasErrors())
    runSema(*Prog, Ctx, Diags);
  if (Diags.hasErrors()) {
    std::printf("%-28s does not compile:\n%s", Name.c_str(),
                Diags.render(SM).c_str());
    return;
  }
  ExecOptions Exec;
  Exec.Args = {InputSize};
  Detection D = detectRaces(*Prog, EspBagsDetector::Mode::MRW, Exec);
  if (!D.ok()) {
    std::printf("%-28s crashed on the test input: %s\n", Name.c_str(),
                D.Exec.Error.c_str());
    return;
  }
  if (!D.Report.Pairs.empty()) {
    std::printf("%-28s RACY: %zu racing step pairs (e.g. on %s)\n",
                Name.c_str(), D.Report.Pairs.size(),
                D.Report.Pairs.front().Loc.str().c_str());
    return;
  }
  uint64_t Cpl = D.Tree->subtreeCpl(D.Tree->root());
  if (Cpl > ToolCpl + ToolCpl / 200) {
    std::printf("%-28s OVER-SYNCHRONIZED: CPL %llu vs tool %llu "
                "(%.2fx less parallel)\n",
                Name.c_str(), static_cast<unsigned long long>(Cpl),
                static_cast<unsigned long long>(ToolCpl),
                static_cast<double>(Cpl) / static_cast<double>(ToolCpl));
    return;
  }
  std::printf("%-28s FULL MARKS: race free and as parallel as the tool's "
              "repair (CPL %llu)\n",
              Name.c_str(), static_cast<unsigned long long>(Cpl));
}

std::string withMainFinish(const std::string &S) {
  std::string Out = S;
  auto Pos = Out.find("  quicksort(0, n - 1);");
  Out.replace(Pos, 22, "  finish quicksort(0, n - 1);");
  return Out;
}

/// Before trusting grades, check the test-input set itself (paper §9):
/// every spawn site (async or future) must spawn at least once, and every
/// input must actually execute — a crashing input observes nothing, which
/// is not the same as observing no races.
void checkTestSuitability() {
  SourceManager SM("skeleton.hj", Skeleton);
  DiagnosticsEngine Diags;
  AstContext Ctx;
  Parser P(SM.buffer(), Ctx, Diags);
  Program *Prog = P.parseProgram();
  runSema(*Prog, Ctx, Diags);

  // The grading input plus a deliberately broken one (negative array
  // size), to show crashing inputs are reported rather than silently
  // counted as zero coverage.
  std::vector<ExecOptions> Inputs(2);
  Inputs[0].Args = {InputSize};
  Inputs[1].Args = {-5};
  CoverageReport C = analyzeTestCoverage(*Prog, Inputs);
  std::printf("test-set check: %zu/%zu spawn sites exercised, %zu input(s) "
              "failed to execute\n",
              C.NumExercised, C.Sites.size(), C.FailedInputs.size());
  for (const CoverageReport::FailedInput &F : C.FailedInputs)
    std::printf("  input %zu (arg %lld) failed: %s\n", F.Index,
                static_cast<long long>(Inputs[F.Index].Args[0]),
                F.Error.c_str());
  std::printf("  -> grading below uses only the good input (n=%lld)\n\n",
              static_cast<long long>(InputSize));
}

std::string withSerializingFinishes(const std::string &S) {
  std::string Out = S;
  auto Pos = Out.find("    async quicksort(m, p[1]);\n"
                      "    async quicksort(p[0], n);");
  Out.replace(Pos, 58, "    finish async quicksort(m, p[1]);\n"
                       "    finish async quicksort(p[0], n);");
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  std::printf("computing the tool's baseline repair...\n");
  uint64_t ToolCpl = toolBaselineCpl();
  if (!ToolCpl) {
    std::printf("baseline repair failed\n");
    return 1;
  }
  std::printf("tool repair CPL on n=%lld: %llu work units\n\n",
              static_cast<long long>(InputSize),
              static_cast<unsigned long long>(ToolCpl));

  checkTestSuitability();

  if (argc > 1) {
    std::ifstream In(argv[1]);
    if (!In) {
      std::printf("cannot open %s\n", argv[1]);
      return 1;
    }
    std::stringstream SS;
    SS << In.rdbuf();
    grade(argv[1], SS.str(), ToolCpl);
    return 0;
  }

  grade("no-synchronization", Skeleton, ToolCpl);
  grade("serializing-finishes", withSerializingFinishes(Skeleton), ToolCpl);
  grade("finish-around-call", withMainFinish(Skeleton), ToolCpl);

  std::printf("\n(The full 59-student cohort of paper §7.4 is regenerated "
              "by bench/bench_students.)\n");
  return 0;
}
