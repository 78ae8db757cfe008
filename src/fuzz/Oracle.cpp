//===- Oracle.cpp - Differential correctness oracle for fuzzing -----------===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Oracle.h"

#include "ast/AstContext.h"
#include "frontend/Parser.h"
#include "obs/Metrics.h"
#include "repair/RepairDriver.h"
#include "sema/Sema.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"
#include "support/StringUtils.h"
#include "trace/EventLog.h"

#include <memory>

namespace tdr {
namespace fuzz {

const char *findingKindName(FindingKind K) {
  switch (K) {
  case FindingKind::ParseError:
    return "parse-error";
  case FindingKind::ExecError:
    return "exec-error";
  case FindingKind::BackendMismatch:
    return "backend-mismatch";
  case FindingKind::ReplayDivergence:
    return "replay-divergence";
  case FindingKind::RepairDisagree:
    return "repair-disagree";
  case FindingKind::RepairNotConverged:
    return "repair-not-converged";
  }
  return "unknown";
}

bool parseFindingKind(std::string_view Name, FindingKind &Out) {
  for (FindingKind K :
       {FindingKind::ParseError, FindingKind::ExecError,
        FindingKind::BackendMismatch, FindingKind::ReplayDivergence,
        FindingKind::RepairDisagree, FindingKind::RepairNotConverged}) {
    if (Name == findingKindName(K)) {
      Out = K;
      return true;
    }
  }
  return false;
}

namespace {

/// A parsed-and-checked program plus everything that owns it.
struct Loaded {
  std::unique_ptr<SourceManager> SM;
  std::unique_ptr<DiagnosticsEngine> Diags;
  std::unique_ptr<AstContext> Ctx;
  Program *Prog = nullptr;

  bool ok() const { return Prog && !Diags->hasErrors(); }
};

Loaded loadChecked(const std::string &Source) {
  Loaded L;
  L.SM = std::make_unique<SourceManager>("fuzz.hj", Source);
  L.Diags = std::make_unique<DiagnosticsEngine>();
  L.Ctx = std::make_unique<AstContext>();
  Parser P(L.SM->buffer(), *L.Ctx, *L.Diags);
  L.Prog = P.parseProgram();
  if (!L.Diags->hasErrors())
    runSema(*L.Prog, *L.Ctx, *L.Diags);
  return L;
}

const char *modeName(EspBagsDetector::Mode M) {
  return M == EspBagsDetector::Mode::SRW ? "srw" : "mrw";
}

std::string configName(EspBagsDetector::Mode M, const char *Detector,
                       const char *Feed) {
  return strFormat("%s/%s/%s", modeName(M), Detector, Feed);
}

void addFinding(OracleOutcome &O, FindingKind K, std::string Config,
                std::string Detail, std::string Expected = std::string(),
                std::string Actual = std::string()) {
  Finding F;
  F.Kind = K;
  F.Config = std::move(Config);
  F.Detail = std::move(Detail);
  F.Expected = std::move(Expected);
  F.Actual = std::move(Actual);
  O.Findings.push_back(std::move(F));
  obs::counter("fuzz.findings").inc();
}

/// Detection legs for one mode: record ESP-bags's fresh run, check it
/// against the Theorem-1 reference \p Theorem1 (MRW: byte-identical; SRW:
/// a consistent subset), then replay the recorded stream through ESP-bags
/// and require the fresh report again.
void runDetectionLegs(const Program &Prog, EspBagsDetector::Mode Mode,
                      const Detection &Theorem1, OracleOutcome &Out) {
  trace::InputTrace T;
  trace::RecorderMonitor Recorder(T.Log);
  ExecOptions Exec;
  Exec.Monitor = &Recorder;
  Detection Fresh = detectRaces(Prog, Mode, std::move(Exec));
  Recorder.flush();
  ++Out.DetectRuns;
  if (!Fresh.ok()) {
    addFinding(Out, FindingKind::ExecError,
               configName(Mode, "espbags", "fresh"),
               "interpretation failed: " + Fresh.Exec.Error);
    return;
  }
  T.Exec = Fresh.Exec;
  std::string FreshKey = renderRaceReportKey(Fresh.Report);

  std::string OracleKey = renderRaceReportKey(Theorem1.Report);
  bool Agree = Mode == EspBagsDetector::Mode::MRW
                   ? FreshKey == OracleKey
                   : srwConsistentWith(Fresh.Report, Theorem1);
  if (!Agree)
    addFinding(Out, FindingKind::BackendMismatch,
               configName(Mode, "oracle", "fresh"),
               Mode == EspBagsDetector::Mode::MRW
                   ? "fresh espbags report differs from the Theorem-1 oracle"
                   : "srw espbags pairs are not a consistent subset of the "
                     "Theorem-1 oracle's",
               OracleKey, FreshKey);

  Detection D = detectRaces(Prog, Mode, T, trace::ReplayPlan());
  ++Out.ReplayRuns;
  if (!D.ok()) {
    addFinding(Out, FindingKind::ExecError,
               configName(Mode, "espbags", "replay"),
               "replay failed: " + D.Exec.Error);
    return;
  }
  std::string Key = renderRaceReportKey(D.Report);
  if (Key != FreshKey)
    addFinding(Out, FindingKind::ReplayDivergence,
               configName(Mode, "espbags", "replay"),
               "replayed espbags report differs from fresh espbags", FreshKey,
               Key);
}

/// Repair leg: a successful repair must actually converge — the repaired
/// text re-parses and is race free under the Theorem-1 oracle.
void runRepairLegs(const std::string &Source, const OracleConfig &C,
                   OracleOutcome &Out) {
  RepairOptions Opts;
  Opts.Constructs = C.AllConstructs ? constructs::All : constructs::Default;
  std::string Text;
  RepairResult R = repairSource(Source, Text, Opts);
  ++Out.RepairRuns;
  if (!R.Success)
    return; // an infeasible repair is a result, not a finding
  Loaded L = loadChecked(Text);
  if (!L.ok()) {
    addFinding(Out, FindingKind::RepairNotConverged, "repair/verify",
               "repaired program fails to parse or type-check",
               "well-formed program", L.Diags->render(*L.SM));
    return;
  }
  Detection D = detectRacesOracle(*L.Prog);
  ++Out.DetectRuns;
  if (!D.ok()) {
    addFinding(Out, FindingKind::RepairNotConverged, "repair/verify",
               "repaired program fails to execute: " + D.Exec.Error);
    return;
  }
  if (!D.Report.Pairs.empty())
    addFinding(Out, FindingKind::RepairNotConverged, "repair/verify",
               strFormat("repaired program still has %zu racing pair(s)",
                         D.Report.Pairs.size()),
               "race-free report", renderRaceReportKey(D.Report));
}

} // namespace

OracleOutcome runOracle(const std::string &Source, const OracleConfig &C) {
  OracleOutcome Out;
  obs::counter("fuzz.programs").inc();

  Loaded L = loadChecked(Source);
  if (!L.ok()) {
    addFinding(Out, FindingKind::ParseError, "frontend",
               "program fails to parse or type-check", "well-formed program",
               L.Diags->render(*L.SM));
    return Out;
  }

  // One Theorem-1 run serves both modes: it is MRW by construction, and
  // node ids line up across runs of the same program.
  Detection Theorem1 = detectRacesOracle(*L.Prog);
  ++Out.DetectRuns;
  if (!Theorem1.ok()) {
    addFinding(Out, FindingKind::ExecError, "mrw/oracle/fresh",
               "interpretation failed: " + Theorem1.Exec.Error);
    return Out;
  }
  for (EspBagsDetector::Mode Mode :
       {EspBagsDetector::Mode::SRW, EspBagsDetector::Mode::MRW})
    runDetectionLegs(*L.Prog, Mode, Theorem1, Out);

  if (C.CheckRepair)
    runRepairLegs(Source, C, Out);
  return Out;
}

bool oracleFires(const std::string &Source, const OracleConfig &C,
                 FindingKind K) {
  OracleOutcome Out = runOracle(Source, C);
  for (const Finding &F : Out.Findings)
    if (F.Kind == K)
      return true;
  return false;
}

} // namespace fuzz
} // namespace tdr
