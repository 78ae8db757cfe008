//===- tdr.cpp - Command-line driver for the repair tool ------------------===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
// The command-line face of the pipeline, mirroring the paper's artifact
// workflow (Appendix A: instrument, execute to pinpoint races, analyze to
// place finishes):
//
//   tdr repair  prog.hj [--arg N]... [--srw] [-o out.hj]   repair races
//   tdr races   prog.hj [--arg N]... [--srw]               detect and list
//   tdr run     prog.hj [--arg N]... [--workers K]         run (par if K>1)
//   tdr stats   prog.hj [--arg N]... [--procs P]           T1/Tinf/TP
//   tdr dot     prog.hj [--arg N]...                       S-DPST Graphviz
//   tdr batch   manifest [--jobs N] [--srw] [-o outdir]    parallel repairs
//   tdr fuzz    [--programs N] [--jobs N] [--seed S]       differential fuzz
//   tdr explain report.json                                explain a report
//   tdr dump    <benchmark-name>                           suite source
//
//===----------------------------------------------------------------------===//

#include "ast/AstPrinter.h"
#include "batch/BatchRepair.h"
#include "diag/RunReport.h"
#include "fuzz/Fuzzer.h"
#include "frontend/Parser.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "pinterp/ParallelInterpreter.h"
#include "race/Detect.h"
#include "repair/MultiInput.h"
#include "repair/RepairDriver.h"
#include "runtime/Runtime.h"
#include "sched/Schedule.h"
#include "sema/Sema.h"
#include "suite/Benchmarks.h"
#include "support/Diagnostics.h"
#include "support/Json.h"
#include "support/SourceManager.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include <unistd.h>

using namespace tdr;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: tdr <command> [options]\n"
      "  tdr repair  prog.hj [--arg N]... [--srw] [--constructs L]"
      " [-o out.hj]\n"
      "  tdr races   prog.hj [--arg N]... [--srw]\n"
      "  tdr run     prog.hj [--arg N]... [--workers K]\n"
      "  tdr stats   prog.hj [--arg N]... [--procs P]\n"
      "  tdr dot     prog.hj [--arg N]...\n"
      "  tdr coverage prog.hj --arg N [--arg M]... (one input per --arg)\n"
      "  tdr batch   manifest [--jobs N] [--srw] [--constructs L]"
      " [-o outdir]\n"
      "              manifest lines: <prog.hj> [int args...]\n"
      "  tdr fuzz    [--programs N] [--jobs N] [--seed S] [--summary FILE]\n"
      "              [--trophy-dir DIR] [--time-budget SEC] [--no-reduce]\n"
      "              [--no-repair]\n"
      "              differential fuzz farm: random programs through\n"
      "              ESP-bags fresh + replayed, the Theorem-1 oracle and\n"
      "              the repair loop; findings are ddmin-minimized and\n"
      "              persisted as trophies. Exit 0 when clean, 1 on\n"
      "              findings\n"
      "  tdr explain report.json   pretty-print a --report document\n"
      "  tdr dump    <benchmark>   (e.g. Mergesort; see bench_table1)\n"
      "observability (any command):\n"
      "  --trace FILE         phase spans as Chrome trace JSON (.jsonl for\n"
      "                       line-delimited events); TDR_TRACE=FILE works\n"
      "                       for any tdr binary\n"
      "  --metrics-json FILE  dump the metrics registry as one JSON object\n"
      "  --report FILE        (races/repair/batch) structured run report:\n"
      "                       race witnesses, finish provenance, stats as\n"
      "                       schema-versioned JSON; read it back with\n"
      "                       'tdr explain'\n"
      "detection options:\n"
      "  --srw                single-reader shadow memory (default: MRW);\n"
      "                       TDR_BACKEND_CHECK=1 in the environment\n"
      "                       cross-checks every detection against the\n"
      "                       Theorem-1 oracle\n"
      "repair options:\n"
      "  --constructs L       comma list of repair constructs the per-edge\n"
      "                       chooser may use; must include 'finish'.\n"
      "                       Default 'finish,future'; add 'isolated' to\n"
      "                       allow isolated{} wrapping of racing\n"
      "                       statements\n");
  return 2;
}

struct Options {
  std::string File;
  std::vector<int64_t> Args;
  bool Srw = false;
  unsigned Workers = 1;
  unsigned Jobs = 1;
  unsigned Procs = 12;
  /// Fuzz-farm knobs (tdr fuzz only).
  unsigned Programs = 2000;
  uint64_t Seed = 1;
  unsigned TimeBudget = 0;
  bool NoReduce = false;
  bool NoRepair = false;
  std::string SummaryFile;
  std::string TrophyDir = "fuzz-trophies";
  /// Repair-construct allowlist (--constructs), parsed eagerly so a bad
  /// list exits 2 like every other malformed flag value.
  unsigned Constructs = constructs::Default;
  std::string OutFile;
  std::string TraceFile;
  std::string MetricsFile;
  std::string ReportFile;
};

/// Parses a strictly positive integer flag value; diagnoses garbage,
/// negatives, and zero instead of letting atoi cast them through.
bool parsePositive(const char *Flag, const char *Text, unsigned &Out) {
  char *End = nullptr;
  errno = 0;
  long V = std::strtol(Text, &End, 10);
  if (End == Text || *End != '\0' || errno == ERANGE || V <= 0 ||
      V > 1 << 20) {
    std::fprintf(stderr, "error: %s expects a positive integer, got '%s'\n",
                 Flag, Text);
    return false;
  }
  Out = static_cast<unsigned>(V);
  return true;
}

/// Parses a non-negative 64-bit seed value (any uint64, 0 allowed).
bool parseSeed(const char *Flag, const char *Text, uint64_t &Out) {
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(Text, &End, 10);
  if (End == Text || *End != '\0' || errno == ERANGE || Text[0] == '-') {
    std::fprintf(stderr, "error: %s expects a non-negative integer, got '%s'\n",
                 Flag, Text);
    return false;
  }
  Out = V;
  return true;
}

bool parseOptions(int Argc, char **Argv, Options &O, bool RequireFile) {
  for (int I = 0; I != Argc; ++I) {
    if (!std::strcmp(Argv[I], "--arg") && I + 1 != Argc) {
      O.Args.push_back(std::atoll(Argv[++I]));
    } else if (!std::strcmp(Argv[I], "--srw")) {
      O.Srw = true;
    } else if (!std::strcmp(Argv[I], "--no-reduce")) {
      O.NoReduce = true;
    } else if (!std::strcmp(Argv[I], "--no-repair")) {
      O.NoRepair = true;
    } else if (!std::strcmp(Argv[I], "--programs") && I + 1 != Argc) {
      if (!parsePositive("--programs", Argv[++I], O.Programs))
        return false;
    } else if (!std::strcmp(Argv[I], "--seed") && I + 1 != Argc) {
      if (!parseSeed("--seed", Argv[++I], O.Seed))
        return false;
    } else if (!std::strcmp(Argv[I], "--time-budget") && I + 1 != Argc) {
      if (!parsePositive("--time-budget", Argv[++I], O.TimeBudget))
        return false;
    } else if (!std::strcmp(Argv[I], "--summary") && I + 1 != Argc) {
      O.SummaryFile = Argv[++I];
    } else if (!std::strcmp(Argv[I], "--trophy-dir") && I + 1 != Argc) {
      O.TrophyDir = Argv[++I];
    } else if (!std::strcmp(Argv[I], "--constructs") && I + 1 != Argc) {
      std::string Err;
      if (!parseConstructList(Argv[++I], O.Constructs, Err)) {
        std::fprintf(stderr, "error: --constructs: %s\n", Err.c_str());
        return false;
      }
    } else if (!std::strcmp(Argv[I], "--workers") && I + 1 != Argc) {
      if (!parsePositive("--workers", Argv[++I], O.Workers))
        return false;
    } else if (!std::strcmp(Argv[I], "--jobs") && I + 1 != Argc) {
      if (!parsePositive("--jobs", Argv[++I], O.Jobs))
        return false;
    } else if (!std::strcmp(Argv[I], "--procs") && I + 1 != Argc) {
      if (!parsePositive("--procs", Argv[++I], O.Procs))
        return false;
    } else if (!std::strcmp(Argv[I], "-o") && I + 1 != Argc) {
      O.OutFile = Argv[++I];
    } else if (!std::strcmp(Argv[I], "--trace") && I + 1 != Argc) {
      O.TraceFile = Argv[++I];
    } else if (!std::strcmp(Argv[I], "--metrics-json") && I + 1 != Argc) {
      O.MetricsFile = Argv[++I];
    } else if (!std::strcmp(Argv[I], "--report") && I + 1 != Argc) {
      O.ReportFile = Argv[++I];
    } else if (!std::strcmp(Argv[I], "--arg") ||
               !std::strcmp(Argv[I], "--constructs") ||
               !std::strcmp(Argv[I], "--workers") ||
               !std::strcmp(Argv[I], "--jobs") ||
               !std::strcmp(Argv[I], "--procs") ||
               !std::strcmp(Argv[I], "--programs") ||
               !std::strcmp(Argv[I], "--seed") ||
               !std::strcmp(Argv[I], "--time-budget") ||
               !std::strcmp(Argv[I], "--summary") ||
               !std::strcmp(Argv[I], "--trophy-dir") ||
               !std::strcmp(Argv[I], "-o") ||
               !std::strcmp(Argv[I], "--trace") ||
               !std::strcmp(Argv[I], "--metrics-json") ||
               !std::strcmp(Argv[I], "--report")) {
      // A known value flag fell through the matches above: its value is
      // missing. Say so instead of "unknown option".
      std::fprintf(stderr, "error: %s expects a value\n", Argv[I]);
      return false;
    } else if (Argv[I][0] == '-') {
      std::fprintf(stderr, "unknown option '%s'\n", Argv[I]);
      return false;
    } else if (O.File.empty()) {
      O.File = Argv[I];
    } else {
      std::fprintf(stderr, "unexpected argument '%s'\n", Argv[I]);
      return false;
    }
  }
  if (!RequireFile && !O.File.empty()) {
    std::fprintf(stderr, "unexpected argument '%s'\n", O.File.c_str());
    return false;
  }
  return !RequireFile || !O.File.empty();
}

struct Loaded {
  std::unique_ptr<SourceManager> SM;
  std::unique_ptr<AstContext> Ctx;
  Program *Prog = nullptr;
};

bool load(const std::string &Path, Loaded &L) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "error: cannot open '%s'\n", Path.c_str());
    return false;
  }
  std::stringstream SS;
  SS << In.rdbuf();
  L.SM = std::make_unique<SourceManager>(Path, SS.str());
  L.Ctx = std::make_unique<AstContext>();
  DiagnosticsEngine Diags;
  Parser P(L.SM->buffer(), *L.Ctx, Diags);
  L.Prog = P.parseProgram();
  if (!Diags.hasErrors())
    runSema(*L.Prog, *L.Ctx, Diags);
  if (Diags.hasErrors()) {
    std::fprintf(stderr, "%s", Diags.render(*L.SM).c_str());
    return false;
  }
  return true;
}

ExecOptions execOptions(const Options &O) {
  ExecOptions E;
  E.Args = O.Args;
  return E;
}

/// Flattens a repair outcome into one report job entry.
diag::JobReport jobReportFromRepair(std::string Name, std::vector<int64_t> Args,
                                    const RepairResult &R) {
  diag::JobReport J;
  J.Name = std::move(Name);
  J.Args = std::move(Args);
  J.Success = R.Success;
  J.Error = R.Error;
  J.Stats.Iterations = R.Stats.Iterations;
  J.Stats.FinishesInserted = R.Stats.FinishesInserted;
  J.Stats.ForcesInserted = R.Stats.ForcesInserted;
  J.Stats.IsolatedInserted = R.Stats.IsolatedInserted;
  J.Stats.Interpretations = R.Stats.Interpretations;
  J.Stats.Replays = R.Stats.Replays;
  J.Stats.RawRaces = R.Stats.RawRaces;
  J.Stats.RacePairs = R.Stats.RacePairs;
  J.Stats.DpstNodes = R.Stats.DpstNodes;
  J.Diag = R.Diag;
  return J;
}

diag::RunReport makeRunReport(const char *Tool, const Options &O) {
  diag::RunReport Rep;
  Rep.Tool = Tool;
  Rep.Mode = O.Srw ? "srw" : "mrw";
  return Rep;
}

/// Writes \p Rep to O.ReportFile (no-op when --report was not given).
/// Returns false on I/O failure.
bool emitReport(const diag::RunReport &Rep, const Options &O) {
  if (O.ReportFile.empty())
    return true;
  std::string Err;
  if (!diag::writeRunReport(Rep, O.ReportFile, &Err)) {
    std::fprintf(stderr, "tdr: %s\n", Err.c_str());
    return false;
  }
  std::fprintf(stderr, "tdr: wrote report to %s\n", O.ReportFile.c_str());
  return true;
}

int cmdRepair(const Options &O) {
  Loaded L;
  if (!load(O.File, L))
    return 1;
  RepairOptions Opts;
  Opts.Mode =
      O.Srw ? EspBagsDetector::Mode::SRW : EspBagsDetector::Mode::MRW;
  Opts.Exec = execOptions(O);
  Opts.Constructs = O.Constructs;
  Opts.CollectDiag = !O.ReportFile.empty();
  Opts.SM = L.SM.get();
  RepairResult R = repairProgram(*L.Prog, *L.Ctx, Opts);
  // The report is written success or fail — diagnostics matter most when
  // the repair could not finish.
  diag::RunReport Rep = makeRunReport("repair", O);
  Rep.Jobs.push_back(jobReportFromRepair(O.File, O.Args, R));
  bool ReportOk = emitReport(Rep, O);
  if (!R.Success) {
    std::fprintf(stderr, "repair failed: %s\n", R.Error.c_str());
    return 1;
  }
  if (!ReportOk)
    return 1;
  std::fprintf(stderr,
               "%s: %zu S-DPST nodes, %llu race reports (%zu pairs), "
               "%u finish(es), %u force(s), %u isolated inserted, "
               "%u detection run(s)\n",
               O.File.c_str(), R.Stats.DpstNodes,
               static_cast<unsigned long long>(R.Stats.RawRaces),
               R.Stats.RacePairs, R.Stats.FinishesInserted,
               R.Stats.ForcesInserted, R.Stats.IsolatedInserted,
               R.Stats.Iterations);
  for (SourceLoc Loc : R.InsertedAt) {
    LineCol LC = L.SM->lineCol(Loc);
    if (LC.Line)
      std::fprintf(stderr, "  repair inserted at %s:%u:%u\n",
                   O.File.c_str(), LC.Line, LC.Col);
  }
  std::string Out = printProgram(*L.Prog);
  if (O.OutFile.empty()) {
    std::fputs(Out.c_str(), stdout);
  } else {
    std::ofstream OutStream(O.OutFile);
    OutStream << Out;
    std::fprintf(stderr, "wrote %s\n", O.OutFile.c_str());
  }
  return 0;
}

int cmdRaces(const Options &O) {
  Loaded L;
  if (!load(O.File, L))
    return 1;
  DetectOptions Detect;
  Detect.Mode = O.Srw ? EspBagsDetector::Mode::SRW : EspBagsDetector::Mode::MRW;
  Detection D = detectRaces(*L.Prog, Detect, execOptions(O));
  if (!D.ok()) {
    std::fprintf(stderr, "execution failed: %s\n", D.Exec.Error.c_str());
    return 1;
  }
  std::printf("%zu racing step pair(s), %llu report(s), %zu S-DPST nodes\n",
              D.Report.Pairs.size(),
              static_cast<unsigned long long>(D.Report.RawCount),
              D.Tree->numNodes());
  for (const RacePair &R : D.Report.Pairs) {
    const Stmt *SrcStmt = R.Src->owner();
    const Stmt *SnkStmt = R.Snk->owner();
    LineCol SrcLC =
        SrcStmt ? L.SM->lineCol(SrcStmt->loc()) : LineCol();
    LineCol SnkLC =
        SnkStmt ? L.SM->lineCol(SnkStmt->loc()) : LineCol();
    std::printf("  %s on %s: line %u -> line %u\n",
                R.SrcKind == AccessKind::Write &&
                        R.SnkKind == AccessKind::Write
                    ? "write-write"
                    : "read-write",
                R.Loc.str().c_str(), SrcLC.Line, SnkLC.Line);
  }
  if (!O.ReportFile.empty()) {
    diag::RunReport Rep = makeRunReport("races", O);
    diag::JobReport J;
    J.Name = O.File;
    J.Args = O.Args;
    J.Success = D.Report.Pairs.empty();
    J.Stats.Iterations = 1;
    J.Stats.Interpretations = 1;
    J.Stats.RawRaces = D.Report.RawCount;
    J.Stats.RacePairs = D.Report.Pairs.size();
    J.Stats.DpstNodes = D.Tree->numNodes();
    diag::IterationDiag ID;
    ID.Witnesses = diag::buildWitnesses(*D.Tree, D.Report, L.SM.get(),
                                        L.Prog, execOptions(O));
    J.Diag.Iterations.push_back(std::move(ID));
    Rep.Jobs.push_back(std::move(J));
    if (!emitReport(Rep, O))
      return 1;
  }
  return D.Report.Pairs.empty() ? 0 : 1;
}

int cmdExplain(const Options &O) {
  std::ifstream In(O.File);
  if (!In) {
    std::fprintf(stderr, "error: cannot open '%s'\n", O.File.c_str());
    return 1;
  }
  std::stringstream SS;
  SS << In.rdbuf();
  json::ParseResult P = json::parse(SS.str());
  if (!P.Ok) {
    std::fprintf(stderr, "error: %s: %s\n", O.File.c_str(), P.Error.c_str());
    return 1;
  }
  std::string Out, Err;
  bool Color = isatty(fileno(stdout)) != 0;
  if (!diag::renderExplainText(P.Doc, Color, Out, Err)) {
    std::fprintf(stderr, "error: %s: %s\n", O.File.c_str(), Err.c_str());
    return 1;
  }
  std::fputs(Out.c_str(), stdout);
  return 0;
}

int cmdRun(const Options &O) {
  Loaded L;
  if (!load(O.File, L))
    return 1;
  ExecResult R;
  if (O.Workers > 1) {
    Runtime RT(O.Workers);
    R = runProgramParallel(*L.Prog, RT, execOptions(O));
  } else {
    R = runProgram(*L.Prog, execOptions(O));
  }
  std::fputs(R.Output.c_str(), stdout);
  if (!R.Ok) {
    LineCol LC = L.SM->lineCol(R.ErrorLoc);
    std::fprintf(stderr, "runtime error at %s:%u:%u: %s\n", O.File.c_str(),
                 LC.Line, LC.Col, R.Error.c_str());
    return 1;
  }
  return 0;
}

int cmdStats(const Options &O) {
  Loaded L;
  if (!load(O.File, L))
    return 1;
  Detection D = detectRaces(
      *L.Prog, DetectOptions{EspBagsDetector::Mode::SRW}, execOptions(O));
  if (!D.ok()) {
    std::fprintf(stderr, "execution failed: %s\n", D.Exec.Error.c_str());
    return 1;
  }
  ParallelismStats S = analyzeDpst(*D.Tree, O.Procs);
  std::printf("T1   (work):            %llu\n",
              static_cast<unsigned long long>(S.T1));
  std::printf("Tinf (critical path):   %llu\n",
              static_cast<unsigned long long>(S.Tinf));
  std::printf("T%-3u (greedy schedule): %llu\n", O.Procs,
              static_cast<unsigned long long>(S.TP));
  std::printf("parallelism T1/Tinf:    %.2f\n", S.parallelism());
  std::printf("speedup T1/T%u:          %.2f\n", O.Procs, S.speedup());
  std::printf("races:                  %zu pair(s)\n",
              D.Report.Pairs.size());
  return 0;
}

int cmdDot(const Options &O) {
  Loaded L;
  if (!load(O.File, L))
    return 1;
  Detection D = detectRaces(
      *L.Prog, DetectOptions{EspBagsDetector::Mode::SRW}, execOptions(O));
  if (!D.ok()) {
    std::fprintf(stderr, "execution failed: %s\n", D.Exec.Error.c_str());
    return 1;
  }
  std::fputs(D.Tree->dumpDot().c_str(), stdout);
  return 0;
}

int cmdCoverage(const Options &O) {
  Loaded L;
  if (!load(O.File, L))
    return 1;
  // Each --arg value is one single-argument test input.
  std::vector<ExecOptions> Inputs;
  for (int64_t A : O.Args) {
    ExecOptions E;
    E.Args = {A};
    Inputs.push_back(E);
  }
  if (Inputs.empty()) {
    std::fprintf(stderr, "coverage needs at least one --arg input\n");
    return 2;
  }
  CoverageReport C = analyzeTestCoverage(*L.Prog, Inputs);
  for (const CoverageReport::FailedInput &F : C.FailedInputs)
    std::printf("input %zu (--arg %lld) FAILED to execute: %s\n", F.Index,
                static_cast<long long>(O.Args[F.Index]), F.Error.c_str());
  for (const AsyncSiteCoverage &Site : C.Sites) {
    LineCol LC = L.SM->lineCol(Site.Loc);
    std::printf("async at %s:%u:%u  instances:", O.File.c_str(), LC.Line,
                LC.Col);
    for (uint64_t N : Site.InstancesPerInput)
      std::printf(" %llu", static_cast<unsigned long long>(N));
    std::printf("%s\n", Site.exercised() ? "" : "   <- NEVER EXERCISED");
  }
  std::printf("async coverage: %.0f%% (%zu/%zu sites); %zu input(s) failed; "
              "test set %s for repair\n",
              C.asyncCoverage() * 100.0, C.NumExercised, C.Sites.size(),
              C.FailedInputs.size(),
              C.suitable() ? "is suitable" : "is NOT suitable");
  return C.suitable() ? 0 : 1;
}

/// Reads a batch manifest: one job per line, `<path> [int args...]`; blank
/// lines and lines starting with '#' are skipped.
bool loadManifest(const Options &O, std::vector<RepairJob> &Jobs) {
  std::ifstream In(O.File);
  if (!In) {
    std::fprintf(stderr, "error: cannot open manifest '%s'\n",
                 O.File.c_str());
    return false;
  }
  std::string Line;
  while (std::getline(In, Line)) {
    std::istringstream LS(Line);
    std::string Path;
    if (!(LS >> Path) || Path[0] == '#')
      continue;
    RepairJob J;
    J.Name = Path;
    std::ifstream Src(Path);
    if (!Src) {
      std::fprintf(stderr, "error: cannot open '%s' (from manifest)\n",
                   Path.c_str());
      return false;
    }
    std::stringstream SS;
    SS << Src.rdbuf();
    J.Source = SS.str();
    J.Opts.Mode =
        O.Srw ? EspBagsDetector::Mode::SRW : EspBagsDetector::Mode::MRW;
    J.Opts.Constructs = O.Constructs;
    J.Opts.CollectDiag = !O.ReportFile.empty();
    int64_t A;
    while (LS >> A)
      J.Opts.Exec.Args.push_back(A);
    Jobs.push_back(std::move(J));
  }
  return true;
}

int cmdBatch(const Options &O) {
  std::vector<RepairJob> Jobs;
  if (!loadManifest(O, Jobs))
    return 1;
  if (Jobs.empty()) {
    std::fprintf(stderr, "error: manifest '%s' has no jobs\n",
                 O.File.c_str());
    return 1;
  }

  BatchRepairRunner Runner(O.Jobs);
  BatchSummary Summary = Runner.run(Jobs);

  bool WriteFailed = false;
  for (const BatchJobResult &R : Summary.Results) {
    if (R.Repair.Success)
      std::fprintf(stderr,
                   "%s: ok, %u repair(s) inserted, %u detection run(s)\n",
                   R.Name.c_str(),
                   R.Repair.Stats.FinishesInserted +
                       R.Repair.Stats.ForcesInserted +
                       R.Repair.Stats.IsolatedInserted,
                   R.Repair.Stats.Iterations);
    else
      std::fprintf(stderr, "%s: FAILED: %s\n", R.Name.c_str(),
                   R.Repair.Error.c_str());
    if (!O.OutFile.empty()) {
      // -o names a directory; each repaired program keeps its base name.
      std::string Base = R.Name;
      if (size_t Slash = Base.find_last_of('/'); Slash != std::string::npos)
        Base = Base.substr(Slash + 1);
      std::string OutPath = O.OutFile + "/" + Base;
      std::ofstream Out(OutPath);
      Out << R.RepairedSource;
      if (!Out) {
        std::fprintf(stderr, "error: cannot write '%s'\n", OutPath.c_str());
        WriteFailed = true;
      }
    } else {
      std::fputs(R.RepairedSource.c_str(), stdout);
    }
  }
  std::fprintf(stderr, "batch: %zu job(s), %u worker(s): %zu ok, %zu failed\n",
               Summary.Results.size(), Runner.numWorkers(),
               Summary.NumSucceeded, Summary.NumFailed);
  if (!O.ReportFile.empty()) {
    diag::RunReport Rep = makeRunReport("batch", O);
    for (size_t I = 0; I != Summary.Results.size(); ++I)
      Rep.Jobs.push_back(jobReportFromRepair(Summary.Results[I].Name,
                                             Jobs[I].Opts.Exec.Args,
                                             Summary.Results[I].Repair));
    if (!emitReport(Rep, O))
      WriteFailed = true;
  }
  return Summary.NumFailed == 0 && !WriteFailed ? 0 : 1;
}

int cmdFuzz(const Options &O) {
  fuzz::FuzzOptions FO;
  FO.Programs = O.Programs;
  FO.Seed = O.Seed;
  FO.Jobs = O.Jobs;
  FO.TrophyDir = O.TrophyDir;
  FO.TimeBudgetSec = O.TimeBudget;
  FO.Reduce = !O.NoReduce;
  FO.CheckRepair = !O.NoRepair;

  std::string Progress;
  fuzz::FuzzSummary S = fuzz::runFuzz(FO, &Progress);
  std::fputs(Progress.c_str(), stderr);

  std::string Json = fuzz::renderFuzzSummaryJson(S, FO);
  if (O.SummaryFile.empty() || O.SummaryFile == "-") {
    std::fputs(Json.c_str(), stdout);
  } else {
    std::ofstream Out(O.SummaryFile);
    Out << Json;
    if (!Out) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   O.SummaryFile.c_str());
      return 1;
    }
    std::fprintf(stderr, "tdr: wrote fuzz summary to %s\n",
                 O.SummaryFile.c_str());
  }
  return S.clean() ? 0 : 1;
}

int cmdDump(const std::string &Name) {
  const BenchmarkSpec *B = findBenchmark(Name);
  if (!B) {
    std::fprintf(stderr, "unknown benchmark '%s'; known:", Name.c_str());
    for (const BenchmarkSpec &S : allBenchmarks())
      std::fprintf(stderr, " '%s'", S.Name);
    std::fprintf(stderr, "\n");
    return 1;
  }
  std::fputs(B->Source, stdout);
  return 0;
}

int dispatch(const std::string &Cmd, const Options &O) {
  if (Cmd == "repair")
    return cmdRepair(O);
  if (Cmd == "races")
    return cmdRaces(O);
  if (Cmd == "run")
    return cmdRun(O);
  if (Cmd == "stats")
    return cmdStats(O);
  if (Cmd == "dot")
    return cmdDot(O);
  if (Cmd == "coverage")
    return cmdCoverage(O);
  if (Cmd == "batch")
    return cmdBatch(O);
  if (Cmd == "fuzz")
    return cmdFuzz(O);
  if (Cmd == "explain")
    return cmdExplain(O);
  return usage();
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  std::string Cmd = Argv[1];
  // fuzz generates its own corpus; every other command names an input file.
  if (Cmd != "fuzz" && Argc < 3)
    return usage();
  if (Cmd == "dump")
    return cmdDump(Argv[2]);

  Options O;
  if (!parseOptions(Argc - 2, Argv + 2, O, /*RequireFile=*/Cmd != "fuzz"))
    return usage();

  if (!O.TraceFile.empty())
    obs::Tracer::global().enable();

  int Ret = dispatch(Cmd, O);

  if (!O.TraceFile.empty()) {
    obs::Tracer &T = obs::Tracer::global();
    if (T.writeTo(O.TraceFile))
      std::fprintf(stderr, "tdr: wrote trace to %s (%zu events)\n",
                   O.TraceFile.c_str(), T.numEvents());
    else {
      std::fprintf(stderr, "tdr: failed to write trace to %s\n",
                   O.TraceFile.c_str());
      Ret = Ret ? Ret : 1;
    }
  }
  if (!O.MetricsFile.empty()) {
    if (obs::MetricsRegistry::global().writeJson(O.MetricsFile))
      std::fprintf(stderr, "tdr: wrote metrics to %s\n",
                   O.MetricsFile.c_str());
    else {
      std::fprintf(stderr, "tdr: failed to write metrics to %s\n",
                   O.MetricsFile.c_str());
      Ret = Ret ? Ret : 1;
    }
  }
  return Ret;
}
