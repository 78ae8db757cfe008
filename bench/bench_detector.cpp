//===- bench_detector.cpp - Detector fast-path microbenchmark -------------===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
// Measures raw race-detector throughput (shared-memory accesses checked per
// second) by driving the DPST builder + detector with synthetic monitor
// event streams — no parser or interpreter in the loop, so the numbers
// isolate the per-access detector cost the paper's scalability story (§4.1,
// Table 2) hinges on.
//
// The sweep covers locations × writer-steps × readers-per-location for the
// SRW and MRW variants, comparing:
//
//   map          the frozen pre-fast-path detector (hash-map shadow memory,
//                vector access lists, a global pair hash map, MonitorPipeline
//                dispatch)
//   flat         the production detector (paged direct-map shadow,
//                inline-capacity-2 small vectors, per-sink pair dedupe,
//                fused monitor dispatch)
//
// The main sweep's event pattern is race-free — parallel readers joined by
// a finish, then serial writer steps that scan the reader lists — so no
// time is spent in race recording and the numbers are pure detection
// overhead, the common case when validating repaired programs. The `racy`
// rows (MRW) time race recording instead: parallel writer steps, then
// serial sink steps that read every location, so each sink records one
// pair per writer and sees it once per location (tools/check_bench.py
// checks the counts).
//
// Emits BENCH_detector.json (see --out) in the shared schema validated by
// tools/check_bench.py, so perf work on the detector leaves a measured
// trajectory.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "race/Detect.h"
#include "race/RefDetectors.h"
#include "support/StringUtils.h"
#include "support/Timer.h"

#include <cstring>
#include <string>
#include <vector>

using namespace tdr;

namespace {

struct Config {
  uint32_t Locs;        ///< distinct array elements touched
  uint32_t Readers;     ///< parallel reader tasks (racy: serial sink steps)
  uint32_t WriteSteps;  ///< serial writer steps (racy: parallel writers)
  bool Racy = false;
};

/// Streams one repetition of the workload into \p Mon. Race-free:
///
///   finish { Readers × async { read all Locs } }   // builds reader lists
///   WriteSteps × scope { write all Locs }          // scans reader lists
///
/// Racy:
///
///   WriteSteps × async { write all Locs }          // never joined
///   Readers × scope { read all Locs }              // each read races with
///                                                  // every writer
///
/// Returns the number of read/write accesses emitted.
uint64_t emitRound(ExecMonitor &Mon, const Config &C) {
  auto Step = [&](bool Write) {
    Mon.onStepPoint(nullptr);
    for (uint32_t L = 0; L != C.Locs; ++L) {
      if (Write)
        Mon.onWrite(MemLoc::elem(1, L));
      else
        Mon.onRead(MemLoc::elem(1, L));
    }
  };
  if (!C.Racy)
    Mon.onFinishEnter(nullptr, nullptr);
  for (uint32_t T = 0; T != (C.Racy ? C.WriteSteps : C.Readers); ++T) {
    Mon.onAsyncEnter(nullptr, nullptr);
    Step(/*Write=*/C.Racy);
    Mon.onAsyncExit(nullptr);
  }
  if (!C.Racy)
    Mon.onFinishExit(nullptr);
  for (uint32_t S = 0; S != (C.Racy ? C.Readers : C.WriteSteps); ++S) {
    Mon.onScopeEnter(ScopeKind::Block, nullptr, nullptr, nullptr);
    Step(/*Write=*/!C.Racy);
    Mon.onScopeExit();
  }
  return static_cast<uint64_t>(C.Locs) * (C.Readers + C.WriteSteps);
}

struct Measure {
  double Sec = 0;
  uint64_t Accesses = 0;

  double accessesPerSec() const { return Accesses / (Sec > 0 ? Sec : 1e-9); }
};

/// Repeats \p OneRep (fresh detector state per call) until \p MinSec of
/// wall-clock time accumulates, growing the batch geometrically, and
/// returns the fastest timed window. One untimed warmup rep faults in
/// lazily allocated state so a cold-start stall in the first window cannot
/// masquerade as steady-state throughput.
template <typename Fn> Measure measure(Fn OneRep, double MinSec) {
  OneRep();
  Measure Best;
  uint64_t Batch = 1;
  double Spent = 0;
  while (Spent < MinSec) {
    Timer T;
    uint64_t Acc = 0;
    for (uint64_t I = 0; I != Batch; ++I)
      Acc += OneRep();
    double Sec = T.elapsedSec();
    Spent += Sec;
    if (Best.Sec == 0 || Acc / Sec > Best.accessesPerSec()) {
      Best.Sec = Sec;
      Best.Accesses = Acc;
    }
    Batch *= 2;
  }
  return Best;
}

/// Pre-fast-path wiring: builder and map-shadow detector fanned out by a
/// MonitorPipeline, exactly as detectRaces dispatched before the change.
/// \p Report receives the last repetition's report.
Measure runMap(EspBagsDetector::Mode Mode, const Config &C, double MinSec,
               RaceReport &Report) {
  return measure(
      [&] {
        Dpst Tree;
        DpstBuilder Builder(Tree);
        RefEspBagsDetector Det(Mode, Builder);
        MonitorPipeline Pipeline;
        Pipeline.add(&Builder);
        Pipeline.add(&Det);
        ExecMonitor &Mon = Pipeline;
        uint64_t Accesses = emitRound(Mon, C);
        Report = Det.takeReport();
        return Accesses;
      },
      MinSec);
}

/// Production wiring: the detector behind the fused monitor, as
/// detectRaces dispatches today.
Measure runFlat(EspBagsDetector::Mode Mode, const Config &C, double MinSec,
                RaceReport &Report) {
  return measure(
      [&] {
        Dpst Tree;
        DpstBuilder Builder(Tree);
        EspBagsDetector Det(Mode, Builder);
        FusedDetectMonitor<EspBagsDetector> Fused(Builder, Det);
        ExecMonitor &Mon = Fused;
        uint64_t Accesses = emitRound(Mon, C);
        Report = Det.takeReport();
        return Accesses;
      },
      MinSec);
}

const char *modeName(EspBagsDetector::Mode M) {
  return M == EspBagsDetector::Mode::SRW ? "SRW" : "MRW";
}

void report(bench::JsonReport &Report, EspBagsDetector::Mode Mode,
            const Config &C, const char *Impl, const Measure &M,
            const RaceReport &Races, double SpeedupVsMap) {
  std::string Name =
      strFormat("%s/%slocs%u/r%u/w%u/%s", modeName(Mode), C.Racy ? "racy/" : "",
                C.Locs, C.Readers, C.WriteSteps, Impl);
  bench::JsonRecord &Rec = Report.add();
  Rec.str("name", Name)
      .str("mode", modeName(Mode))
      .str("impl", Impl)
      .num("locs", static_cast<uint64_t>(C.Locs))
      .num("readers", static_cast<uint64_t>(C.Readers))
      .num("write_steps", static_cast<uint64_t>(C.WriteSteps))
      .num("total_accesses", M.Accesses)
      .num("seconds", M.Sec)
      .num("accesses_per_sec", M.accessesPerSec())
      .num("race_reports", Races.RawCount)
      .num("race_pairs", static_cast<uint64_t>(Races.Pairs.size()));
  if (SpeedupVsMap > 0)
    Rec.num("speedup_vs_map", SpeedupVsMap);
  std::printf("%-34s %12.0f acc/s%s\n", Name.c_str(), M.accessesPerSec(),
              SpeedupVsMap > 0
                  ? strFormat("  (%.2fx vs map)", SpeedupVsMap).c_str()
                  : "");
}

/// Measures \p C under both implementations and reports both rows;
/// returns the flat speedup.
double compare(bench::JsonReport &Report, EspBagsDetector::Mode Mode,
               const Config &C, double MinSec) {
  RaceReport MapRaces, FlatRaces;
  Measure Map = runMap(Mode, C, MinSec, MapRaces);
  Measure Flat = runFlat(Mode, C, MinSec, FlatRaces);
  double Speedup = Flat.accessesPerSec() / Map.accessesPerSec();
  report(Report, Mode, C, "map", Map, MapRaces, 0);
  report(Report, Mode, C, "flat", Flat, FlatRaces, Speedup);
  return Speedup;
}

} // namespace

int main(int Argc, char **Argv) {
  bench::ObsSession Obs(Argc, Argv);
  bool Quick = false;
  std::string OutPath = "BENCH_detector.json";
  for (int I = 1; I != Argc; ++I) {
    if (!std::strcmp(Argv[I], "--quick"))
      Quick = true;
    else if (!std::strcmp(Argv[I], "--out") && I + 1 != Argc)
      OutPath = Argv[++I];
  }

  const double MinSec = Quick ? 0.002 : 0.08;
  std::vector<uint32_t> LocSweep = Quick ? std::vector<uint32_t>{64, 256}
                                         : std::vector<uint32_t>{64, 4096, 65536};
  std::vector<uint32_t> ReaderSweep =
      Quick ? std::vector<uint32_t>{1, 4} : std::vector<uint32_t>{1, 4, 16};
  const uint32_t WriteSteps = Quick ? 2 : 4;

  bench::JsonReport Report("detector");
  double LargeArrayMrwSpeedup = 0;
  uint32_t LargestLocs = LocSweep.back();

  for (EspBagsDetector::Mode Mode :
       {EspBagsDetector::Mode::SRW, EspBagsDetector::Mode::MRW}) {
    bench::banner(strFormat("%s detector throughput (accesses/sec)",
                            modeName(Mode)));
    for (uint32_t Locs : LocSweep) {
      for (uint32_t Readers : ReaderSweep) {
        Config C{Locs, Readers, WriteSteps};
        double Speedup = compare(Report, Mode, C, MinSec);
        if (Mode == EspBagsDetector::Mode::MRW && Locs == LargestLocs &&
            Speedup > LargeArrayMrwSpeedup)
          LargeArrayMrwSpeedup = Speedup;
      }
    }
  }

  // Race recording: every sink step records RacyWriters pairs.
  bench::banner("MRW race recording (accesses/sec)");
  const uint32_t RacyWriters = 64;
  const uint32_t RacySinks = Quick ? 512 : 2048;
  double RacySpeedup = 0;
  for (uint32_t Locs : {1u, 8u}) {
    Config C{Locs, RacySinks, RacyWriters, /*Racy=*/true};
    double Speedup = compare(Report, EspBagsDetector::Mode::MRW, C, MinSec);
    if (Speedup > RacySpeedup)
      RacySpeedup = Speedup;
  }

  bench::banner("Summary");
  std::printf("large-array MRW sweep (locs=%u) best flat speedup: %.2fx\n",
              LargestLocs, LargeArrayMrwSpeedup);
  std::printf("racy MRW best flat speedup: %.2fx\n", RacySpeedup);

  if (!Report.writeTo(OutPath)) {
    std::fprintf(stderr, "bench_detector: failed to write %s\n",
                 OutPath.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu records)\n", OutPath.c_str(),
              Report.numRecords());
  return 0;
}
