//===- Detect.cpp ---------------------------------------------------------===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//

#include "race/Detect.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "race/OracleDetector.h"
#include "support/StringUtils.h"
#include "support/Timer.h"

#include <cstdlib>
#include <set>
#include <utility>

using namespace tdr;

bool tdr::backendCheckEnv() {
  const char *V = std::getenv("TDR_BACKEND_CHECK");
  return V && *V && !(V[0] == '0' && V[1] == '\0');
}

namespace {

/// Publishes the per-run gauges a finished detection derives its stats
/// from (see RepairStats).
void publishDetection(const Detection &D) {
  obs::gauge("detect.dpst_nodes").set(static_cast<int64_t>(D.Tree->numNodes()));
  obs::gauge("detect.races_raw").set(static_cast<int64_t>(D.Report.RawCount));
  obs::gauge("detect.race_pairs")
      .set(static_cast<int64_t>(D.Report.Pairs.size()));
  obs::gauge("dpst.bytes_used")
      .set(static_cast<int64_t>(D.Tree->bytesUsed()));
  obs::gauge("shadow.bytes_used")
      .set(static_cast<int64_t>(D.ShadowBytesUsed));
  obs::gauge("shadow.bytes_reserved")
      .set(static_cast<int64_t>(D.ShadowBytesReserved));
}

/// One live (interpreting) detection with detector \p DetectorT, built
/// from \p Args and the run's S-DPST builder. ESP-bags and the oracle
/// share the fused single-monitor dispatch, so the choice is this one
/// template parameter.
template <typename DetectorT, typename... ArgsT>
Detection liveDetect(const Program &P, ExecOptions Exec, ArgsT... Args) {
  Detection D;
  D.Tree = std::make_unique<Dpst>();
  DpstBuilder Builder(*D.Tree);
  DetectorT Detector(Args..., Builder);
  FusedDetectMonitor<DetectorT> Fused(Builder, Detector);
  MonitorPipeline Pipeline;
  // Fast path: with no caller monitor the interpreter talks to the fused
  // builder+detector directly — one virtual dispatch per event. A
  // caller-supplied monitor keeps observing the instrumented execution;
  // it runs ahead of the builder/detector so it sees events untouched.
  if (Exec.Monitor) {
    Pipeline.add(Exec.Monitor);
    Pipeline.add(&Fused);
    Exec.Monitor = &Pipeline;
  } else {
    Exec.Monitor = &Fused;
  }
  D.Exec = runProgram(P, std::move(Exec));
  D.Report = Detector.takeReport();
  D.ShadowBytesUsed = Detector.shadowBytesUsed();
  D.ShadowBytesReserved = Detector.shadowBytesReserved();
  return D;
}

/// One log-backed detection with detector \p DetectorT.
template <typename DetectorT, typename... ArgsT>
Detection replayDetect(const trace::InputTrace &T, ArgsT... Args) {
  Detection D;
  D.Tree = std::make_unique<Dpst>();
  DpstBuilder Builder(*D.Tree);
  DetectorT Detector(Args..., Builder);
  FusedDetectMonitor<DetectorT> Fused(Builder, Detector);
  Timer ReplayTimer;
  trace::replayEvents(T.Log, Fused);
  obs::histogram("trace.replay_ms").observe(ReplayTimer.elapsedMs());
  D.Exec = T.Exec;
  D.Report = Detector.takeReport();
  D.ShadowBytesUsed = Detector.shadowBytesUsed();
  D.ShadowBytesReserved = Detector.shadowBytesReserved();
  return D;
}

/// The TDR_BACKEND_CHECK differential: replays the primary run's event
/// stream through the Theorem-1 oracle. MRW reports must render
/// byte-identically; an SRW report must be consistent with the oracle's
/// (see srwConsistentWith). The oracle runs under a throwaway metrics
/// registry, so tests asserting exact counter values (detect.runs,
/// espbags.*) see the same numbers with and without the check — only the
/// verdict escapes. A mismatch fails the detection the way a run-time
/// error would, so every caller (repair loop, CLI, tests) surfaces it.
void crossCheckOracle(Detection &D, EspBagsDetector::Mode Mode,
                      const trace::InputTrace &T) {
  obs::ScopedSpan Span(obs::phase::DetectOracleCheck);
  obs::counter("detect.backend_checks").inc();
  bool Agree;
  {
    obs::MetricsRegistry Scratch;
    obs::ScopedMetrics Scoped(Scratch);
    Detection O = replayDetect<OracleDetector>(T);
    Agree = Mode == EspBagsDetector::Mode::MRW
                ? renderRaceReportKey(O.Report) ==
                      renderRaceReportKey(D.Report)
                : srwConsistentWith(D.Report, O);
  }
  if (Agree)
    return;
  D.Exec.Ok = false;
  D.Exec.Error = strFormat(
      "oracle differential mismatch: espbags (%s) and the Theorem-1 "
      "oracle disagree on the race report",
      Mode == EspBagsDetector::Mode::MRW ? "mrw" : "srw");
}

} // namespace

Detection tdr::detectRaces(const Program &P, const DetectOptions &Opts,
                           ExecOptions Exec) {
  obs::ScopedSpan Span(obs::phase::Detect);
  obs::counter("detect.runs").inc();
  if (!backendCheckEnv()) {
    Detection D = liveDetect<EspBagsDetector>(P, std::move(Exec), Opts.Mode);
    publishDetection(D);
    return D;
  }
  // Oracle check on a live run: record the event stream alongside the
  // primary detection so the oracle replays the exact same events.
  trace::InputTrace T;
  trace::RecorderMonitor Recorder(T.Log);
  MonitorPipeline Pipeline;
  if (Exec.Monitor) {
    Pipeline.add(Exec.Monitor);
    Pipeline.add(&Recorder);
    Exec.Monitor = &Pipeline;
  } else {
    Exec.Monitor = &Recorder;
  }
  Detection D = liveDetect<EspBagsDetector>(P, std::move(Exec), Opts.Mode);
  Recorder.flush();
  T.Exec = D.Exec;
  if (D.Exec.Ok)
    crossCheckOracle(D, Opts.Mode, T);
  publishDetection(D);
  return D;
}

Detection tdr::detectRaces(const Program &P, EspBagsDetector::Mode Mode,
                           ExecOptions Exec) {
  return detectRaces(P, DetectOptions{Mode}, std::move(Exec));
}

Detection tdr::detectRaces(const Program &, const DetectOptions &Opts,
                           const trace::InputTrace &T,
                           const trace::ReplayPlan &) {
  obs::ScopedSpan Span(obs::phase::DetectReplay);
  obs::counter("detect.runs").inc();
  obs::counter("detect.replays").inc();
  Detection D = replayDetect<EspBagsDetector>(T, Opts.Mode);
  if (D.Exec.Ok && backendCheckEnv())
    crossCheckOracle(D, Opts.Mode, T);
  publishDetection(D);
  return D;
}

Detection tdr::detectRaces(const Program &P, EspBagsDetector::Mode Mode,
                           const trace::InputTrace &T,
                           const trace::ReplayPlan &Plan) {
  return detectRaces(P, DetectOptions{Mode}, T, Plan);
}

Detection tdr::detectRacesOracle(const Program &, const trace::InputTrace &T,
                                 const trace::ReplayPlan &) {
  obs::ScopedSpan Span(obs::phase::DetectOracleReplay);
  obs::counter("detect.replays").inc();
  Detection D = replayDetect<OracleDetector>(T);
  publishDetection(D);
  return D;
}

Detection tdr::detectRacesOracle(const Program &P, ExecOptions Exec) {
  obs::ScopedSpan Span(obs::phase::DetectOracle);
  Detection D = liveDetect<OracleDetector>(P, std::move(Exec));
  publishDetection(D);
  return D;
}

bool tdr::srwConsistentWith(const RaceReport &Srw, const Detection &Mrw) {
  std::set<std::pair<uint32_t, uint32_t>> MrwPairs;
  for (const RacePair &P : Mrw.Report.Pairs)
    MrwPairs.insert({P.Src->id(), P.Snk->id()});
  for (const RacePair &P : Srw.Pairs)
    if (!MrwPairs.count({P.Src->id(), P.Snk->id()}))
      return false;
  if (Srw.Pairs.empty() == MrwPairs.empty())
    return true;
  // Only an empty SRW report against a racy MRW one is left; accept it
  // when the execution ran an isolated step or a future (see the
  // declaration).
  return Mrw.Tree->hasIsolatedOrFuture();
}

std::string tdr::renderRaceReportKey(const RaceReport &R) {
  std::string Out = strFormat("raw=%llu\n",
                              static_cast<unsigned long long>(R.RawCount));
  for (const RacePair &P : R.Pairs)
    Out += strFormat("src=%u snk=%u loc=%u:%u:%lld kinds=%u%u\n", P.Src->id(),
                     P.Snk->id(), static_cast<unsigned>(P.Loc.K), P.Loc.Id,
                     static_cast<long long>(P.Loc.Index),
                     static_cast<unsigned>(P.SrcKind),
                     static_cast<unsigned>(P.SnkKind));
  return Out;
}
