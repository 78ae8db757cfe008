//===- perfbench.cpp - End-to-end and per-layer benchmark of tdr ----------===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One process runs one workload over the 12 Table 1 programs with their
/// finishes stripped (paper §7.1), single-threaded, as a closed loop with
/// one client: each job starts when the previous one has ended.
///
///   perfbench --workload races-perf|repair-table2
///             [--seed N] [--seconds S] [--trace 0|1]
///
/// Untraced (--trace 0), it repeats whole passes until the measured job
/// regions add up to --seconds, checks every job against an independent
/// reference, and prints the end-to-end metrics. Traced (--trace 1), it
/// repeats passes in which each job runs the layer stack (plain
/// interpretation, no-op monitor, S-DPST builder, event recorder, fresh
/// and log-backed detection, repair, schedule analysis), each call wrapped
/// in a span recorded here, and prints the per-layer metrics. Only public
/// library entry points are called; nothing inside src/ is instrumented
/// for this benchmark beyond the obs spans the program already emits.
///
/// Every check runs outside the measured regions. The references (oracle
/// reports, serial-elision outputs, expert T-infinity) are computed once
/// per run in forked children before the first measured job, so they do
/// not raise this process's peak resident set. See README.md for the
/// metrics and the memory-probe normalization.
///
/// The last line of standard output is one JSON object:
///   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
///
//===----------------------------------------------------------------------===//

#include "ast/AstContext.h"
#include "ast/AstPrinter.h"
#include "ast/Transforms.h"
#include "dpst/Dpst.h"
#include "frontend/Parser.h"
#include "interp/Interpreter.h"
#include "obs/Trace.h"
#include "race/Detect.h"
#include "repair/RepairDriver.h"
#include "sched/Schedule.h"
#include "sema/Sema.h"
#include "suite/Benchmarks.h"
#include "support/Diagnostics.h"
#include "support/Rng.h"
#include "support/SourceManager.h"
#include "support/Timer.h"
#include "trace/EventLog.h"
#include "trace/Replay.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <ctime>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace tdr;

namespace {

//===----------------------------------------------------------------------===//
// Workloads and jobs
//===----------------------------------------------------------------------===//

enum class Op { Detect, Repair };

struct Workload {
  const char *Name;
  Op Kind;
  bool PerfInput; ///< PerfArgs (else the Table 2 RepairArgs)
};

constexpr Workload Workloads[] = {
    {"races-perf", Op::Detect, true},
    {"repair-table2", Op::Repair, false},
};

/// The environment variables through which the libraries pick a detection
/// backend, a differential check, log spilling, a worker count or a trace
/// sink. RepairOptions::Backend defaults from TDR_BACKEND, so an inherited
/// variable would silently benchmark a different program.
constexpr const char *RefusedEnv[] = {
    "TDR_BACKEND",   "TDR_BACKEND_CHECK", "TDR_REPLAY_CHECK",
    "TDR_LOG_SPILL", "TDR_PAR_WORKERS",   "TDR_TRACE",
};

/// One program of one workload.
struct Job {
  const BenchmarkSpec *Spec = nullptr;
  std::string Expert; ///< the suite program, with its finishes
  std::string Buggy;  ///< Expert with every finish stripped, printed
  ExecOptions Exec;
};

/// A parsed and checked program.
struct Loaded {
  std::unique_ptr<AstContext> Ctx;
  Program *Prog = nullptr;
};

/// The independent reference for one job, computed once per run.
struct Reference {
  uint64_t Digest = 0;    ///< races: reportDigest of the oracle's report
  uint64_t JobTinf = 0;   ///< races: T-infinity of the stripped program
  uint64_t ExpertTinf = 0;
  std::string Elision;    ///< repair: output of the serial elision
};

//===----------------------------------------------------------------------===//
// Small helpers
//===----------------------------------------------------------------------===//

double msSince(uint64_t StartNs) {
  return static_cast<double>(Timer::nowNs() - StartNs) / 1e6;
}

/// CPU time (user + system) of this single-threaded process, in ns. The
/// end-to-end times use it rather than wall time: on a quiet host they
/// agree (the tool neither blocks nor sleeps), while on a shared virtual
/// machine it leaves out the time other tenants steal.
uint64_t cpuNs() {
  timespec T{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return static_cast<uint64_t>(T.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(T.tv_nsec);
}

/// Measures one region in CPU and wall time.
struct Stopwatch {
  uint64_t Cpu0 = cpuNs(), Wall0 = Timer::nowNs();
  double CpuMs = 0, WallMs = 0;
  void stop() {
    CpuMs = static_cast<double>(cpuNs() - Cpu0) / 1e6;
    WallMs = msSince(Wall0);
  }
};

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  if (N == 0)
    return 0;
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double geomean(const std::vector<double> &V) {
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return V.empty() ? 0 : std::exp(LogSum / static_cast<double>(V.size()));
}

/// Heap bytes currently allocated through malloc (all arenas, including
/// mmapped chunks).
size_t liveHeapBytes() {
  struct mallinfo2 M = mallinfo2();
  return M.uordblks + M.hblkhd;
}

[[noreturn]] void die(const std::string &Msg) {
  std::fprintf(stderr, "perfbench: %s\n", Msg.c_str());
  std::exit(2);
}

/// Restarts the kernel's peak-resident-set mark (VmHWM) of this process
/// at its current resident set; false where the kernel does not allow it.
bool resetPeakRss() {
  std::FILE *F = std::fopen("/proc/self/clear_refs", "w");
  if (!F)
    return false;
  bool Ok = std::fputs("5", F) >= 0;
  return std::fclose(F) == 0 && Ok;
}

/// VmHWM of this process in MB: its peak resident set since the last
/// resetPeakRss, or since it started.
double peakRssMb() {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    die("cannot read /proc/self/status");
  char Line[256];
  double Kb = -1;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::strncmp(Line, "VmHWM:", 6) == 0)
      Kb = std::atof(Line + 6);
  std::fclose(F);
  if (Kb < 0)
    die("no VmHWM in /proc/self/status");
  return Kb / 1024.0;
}

std::string fmtNum(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string jsonStr(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out + "\"";
}

/// Runs each of \p Tasks in a forked child, at most \p Parallel at a time,
/// and returns the text each produced; nullopt for a child that crashed or
/// threw. Waits for every child before returning.
std::vector<std::optional<std::string>>
inChildren(const std::vector<std::function<std::string()>> &Tasks,
           size_t Parallel) {
  struct Child {
    pid_t Pid;
    int Fd;
    size_t Task;
  };
  auto Spawn = [&](size_t Task) {
    int Fd[2];
    if (pipe(Fd) != 0)
      die(std::string("pipe: ") + std::strerror(errno));
    std::fflush(stdout);
    std::fflush(stderr);
    pid_t Pid = fork();
    if (Pid < 0)
      die(std::string("fork: ") + std::strerror(errno));
    if (Pid == 0) {
      close(Fd[0]);
      std::string Out;
      try {
        Out = Tasks[Task]();
      } catch (...) {
        _exit(3);
      }
      for (size_t Off = 0; Off < Out.size();) {
        ssize_t W = write(Fd[1], Out.data() + Off, Out.size() - Off);
        if (W < 0 && errno == EINTR)
          continue;
        if (W <= 0)
          _exit(4);
        Off += static_cast<size_t>(W);
      }
      _exit(0);
    }
    close(Fd[1]);
    return Child{Pid, Fd[0], Task};
  };
  auto Collect = [](const Child &C) -> std::optional<std::string> {
    std::string Out;
    char Buf[65536];
    for (;;) {
      ssize_t R = read(C.Fd, Buf, sizeof(Buf));
      if (R < 0 && errno == EINTR)
        continue;
      if (R <= 0)
        break;
      Out.append(Buf, static_cast<size_t>(R));
    }
    close(C.Fd);
    int Status = 0;
    while (waitpid(C.Pid, &Status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0)
      return std::nullopt;
    return Out;
  };
  std::vector<std::optional<std::string>> Out(Tasks.size());
  std::deque<Child> Running;
  for (size_t Next = 0; Next < Tasks.size() || !Running.empty();) {
    while (Next < Tasks.size() && Running.size() < Parallel)
      Running.push_back(Spawn(Next++));
    Out[Running.front().Task] = Collect(Running.front());
    Running.pop_front();
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Host memory-speed probe
//===----------------------------------------------------------------------===//

/// The probe's walk time on a quiet host (the 4-core x86-64 VM this
/// benchmark was defined on). Normalized times are scaled to it.
constexpr double ProbeNominalMs = 36.0;

/// Measures how fast this host serves dependent cache misses right now.
/// tdr's work is pointer-heavy (trees, shadow memory, event logs), and on a
/// shared host its CPU time swings by 20 % or more between runs with the
/// memory contention other tenants cause, while a compute-only loop does
/// not move. The probe walks a random single-cycle permutation of 64 MiB
/// (every load depends on the previous one and misses the caches) in a
/// helper process forked before the first measured job: its memory is
/// not this process's resident set, and no fork happens between measured
/// jobs. The helper exits when the probe is destroyed.
class MemoryProbe {
public:
  MemoryProbe() {
    int Req[2], Resp[2];
    if (pipe(Req) != 0 || pipe(Resp) != 0)
      die(std::string("pipe: ") + std::strerror(errno));
    std::fflush(stdout);
    std::fflush(stderr);
    Pid = fork();
    if (Pid < 0)
      die(std::string("fork: ") + std::strerror(errno));
    if (Pid == 0) {
      close(Req[1]);
      close(Resp[0]);
      serve(Req[0], Resp[1]);
      _exit(0);
    }
    close(Req[0]);
    close(Resp[1]);
    ToHelper = Req[1];
    FromHelper = Resp[0];
  }
  MemoryProbe(const MemoryProbe &) = delete;
  MemoryProbe &operator=(const MemoryProbe &) = delete;
  ~MemoryProbe() {
    close(ToHelper);
    close(FromHelper);
    int Status = 0;
    while (waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
    }
  }

  /// CPU time of one walk of WalkSteps loads, in ms.
  double sampleMs() {
    char Go = 1;
    double Ms = 0;
    if (write(ToHelper, &Go, 1) != 1 ||
        read(FromHelper, &Ms, sizeof(Ms)) != sizeof(Ms))
      die("memory probe helper failed");
    return Ms;
  }

private:
  static constexpr uint32_t Entries = 1u << 24;
  static constexpr int WalkSteps = 250000;

  static void serve(int In, int Out) {
    // Sattolo's shuffle: one cycle through all entries.
    std::vector<uint32_t> Next(Entries);
    for (uint32_t I = 0; I != Entries; ++I)
      Next[I] = I;
    Rng R(0x5eed);
    for (uint32_t I = Entries - 1; I > 0; --I)
      std::swap(Next[I], Next[R.nextBelow(I)]);
    uint32_t At = 0;
    char Go;
    while (read(In, &Go, 1) == 1) {
      uint64_t T0 = cpuNs();
      for (int I = 0; I != WalkSteps; ++I)
        At = Next[At];
      double Ms = static_cast<double>(cpuNs() - T0) / 1e6;
      Sink = At; // keeps the walk
      if (write(Out, &Ms, sizeof(Ms)) != sizeof(Ms))
        return;
    }
  }

  static inline volatile uint32_t Sink = 0;
  pid_t Pid = -1;
  int ToHelper = -1, FromHelper = -1;
};

//===----------------------------------------------------------------------===//
// Spans recorded by the benchmark around library calls
//===----------------------------------------------------------------------===//

struct Span {
  const char *Name;
  int Job;
  int Parent; ///< index of the enclosing span, -1 at top level
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  double ms() const { return static_cast<double>(EndNs - StartNs) / 1e6; }
};

class SpanLog {
public:
  int open(const char *Name, int Job) {
    int Id = static_cast<int>(Spans.size());
    Spans.push_back({Name, Job, Open.empty() ? -1 : Open.back(),
                     Timer::nowNs(), 0});
    Open.push_back(Id);
    return Id;
  }
  void close(int Id) {
    Spans[Id].EndNs = Timer::nowNs();
    Open.pop_back();
  }

  /// Summed duration of the spans named \p Name from index \p First on.
  double ms(const char *Name, size_t First) const {
    double T = 0;
    for (size_t I = First; I < Spans.size(); ++I)
      if (std::strcmp(Spans[I].Name, Name) == 0)
        T += Spans[I].ms();
    return T;
  }

  std::vector<Span> Spans;

private:
  std::vector<int> Open;
};

/// Records a span around its scope; a no-op without a log.
class SpanScope {
public:
  SpanScope(SpanLog *L, const char *Name, int Job)
      : L(L), Id(L ? L->open(Name, Job) : -1) {}
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;
  ~SpanScope() {
    if (L)
      L->close(Id);
  }

private:
  SpanLog *L;
  int Id;
};

/// Self time per span name of the obs spans the library recorded (spans
/// nest by time on one thread; a span's self time excludes its children).
std::map<std::string, double> obsSelfMs() {
  std::vector<obs::TraceEvent> Ev = obs::Tracer::global().snapshot();
  std::erase_if(Ev, [](const obs::TraceEvent &E) { return E.Ph != 'X'; });
  std::sort(Ev.begin(), Ev.end(), [](const auto &A, const auto &B) {
    return A.TsNs != B.TsNs ? A.TsNs < B.TsNs : A.DurNs > B.DurNs;
  });
  std::map<std::string, double> Self;
  std::vector<size_t> Stack;
  for (size_t I = 0; I != Ev.size(); ++I) {
    while (!Stack.empty() &&
           Ev[Stack.back()].TsNs + Ev[Stack.back()].DurNs <= Ev[I].TsNs)
      Stack.pop_back();
    double Ms = static_cast<double>(Ev[I].DurNs) / 1e6;
    Self[Ev[I].Name] += Ms;
    if (!Stack.empty())
      Self[Ev[Stack.back()].Name] -= Ms;
    Stack.push_back(I);
  }
  return Self;
}

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

/// Parses and checks \p Src, timing the two front-end layers when \p Spans
/// is given. Suite inputs always compile; anything else ends the process.
Loaded load(const std::string &Src, SpanLog *Spans = nullptr, int JobIdx = -1) {
  Loaded L;
  L.Ctx = std::make_unique<AstContext>();
  DiagnosticsEngine Diags;
  {
    SpanScope S(Spans, "frontend.parse", JobIdx);
    Parser P(Src, *L.Ctx, Diags);
    L.Prog = P.parseProgram();
  }
  if (!Diags.hasErrors()) {
    SpanScope S(Spans, "sema", JobIdx);
    runSema(*L.Prog, *L.Ctx, Diags);
  }
  if (Diags.hasErrors())
    die("input program failed to compile:\n" +
        Diags.render(SourceManager("input.hj", Src)));
  return L;
}

/// The workload's jobs, in Table 1 order: the input set-up.
std::vector<Job> makeJobs(const Workload &W, uint64_t Seed,
                          const std::vector<std::string> &Only) {
  std::vector<Job> Jobs;
  for (const BenchmarkSpec &Spec : allBenchmarks()) {
    if (!Only.empty() &&
        std::find(Only.begin(), Only.end(), Spec.Name) == Only.end())
      continue;
    Job J;
    J.Spec = &Spec;
    J.Expert = Spec.Source;
    Loaded Stripped = load(J.Expert);
    stripFinishes(*Stripped.Prog);
    J.Buggy = printProgram(*Stripped.Prog);
    J.Exec.Args = W.PerfInput ? Spec.PerfArgs : Spec.RepairArgs;
    J.Exec.Seed = Seed;
    Jobs.push_back(std::move(J));
  }
  return Jobs;
}

/// Seed 0 runs the jobs in Table 1 order; other seeds shuffle it.
std::vector<size_t> jobOrder(size_t N, uint64_t Seed) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I != N; ++I)
    Order[I] = I;
  if (Seed == 0)
    return Order;
  Rng R(Seed);
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[R.nextBelow(I)]);
  return Order;
}

//===----------------------------------------------------------------------===//
// References (in forked children) and checks
//===----------------------------------------------------------------------===//

/// T-infinity of \p Tree: the critical path of its computation graph, the
/// Tinf that analyzeDpst reports, without the greedy schedule.
uint64_t tinfOf(const Dpst &Tree) {
  return criticalPathLength(buildCompGraph(Tree));
}

/// FNV-1a over exactly the fields renderRaceReportKey prints, in its order
/// (raw count, then per pair: step ids, location, access kinds). Two
/// reports digest alike when their keys are equal; rendering the key text
/// itself costs ~1 us per pair, seconds per pass at perf inputs.
uint64_t reportDigest(const RaceReport &R) {
  uint64_t H = 0xcbf29ce484222325ull;
  auto Mix = [&H](uint64_t V) {
    for (int I = 0; I != 8; ++I, V >>= 8) {
      H ^= V & 0xff;
      H *= 0x100000001b3ull;
    }
  };
  Mix(R.RawCount);
  Mix(R.Pairs.size());
  for (const RacePair &P : R.Pairs) {
    Mix(P.Src->id());
    Mix(P.Snk->id());
    Mix(static_cast<uint64_t>(P.Loc.K));
    Mix(P.Loc.Id);
    Mix(static_cast<uint64_t>(P.Loc.Index));
    Mix(static_cast<uint64_t>(P.SrcKind));
    Mix(static_cast<uint64_t>(P.SnkKind));
  }
  return H;
}

/// The references of all jobs, computed in forked children two at a time.
/// A child exits as soon as it has replied, so the trees it builds
/// (gigabytes at perf inputs) are left to the kernel instead of being freed
/// node by node; each tree gets its own child to bound a child's memory.
std::vector<std::optional<Reference>> computeReferences(
    const std::vector<Job> &Jobs, Op Kind) {
  // Per job: the expert original's T-infinity, then the serial elision's
  // output (repair) or the oracle's report digest and the stripped
  // program's T-infinity (detection).
  std::vector<std::function<std::string()>> Tasks;
  for (const Job &J : Jobs)
    Tasks.push_back([&J, Kind]() -> std::string {
      Loaded Expert = load(J.Expert);
      auto *Tree = new Dpst(); // left to the kernel, see above
      DpstBuilder Builder(*Tree);
      ExecOptions X = J.Exec;
      X.Monitor = &Builder;
      if (!runProgram(*Expert.Prog, X).Ok)
        throw std::runtime_error("expert program failed");
      std::string Out = std::to_string(tinfOf(*Tree)) + "\n";
      if (Kind == Op::Detect)
        return Out;
      Loaded Elided = load(J.Expert);
      elideParallelism(*Elided.Prog);
      DiagnosticsEngine Diags;
      runSema(*Elided.Prog, *Elided.Ctx, Diags);
      ExecResult E = runProgram(*Elided.Prog, J.Exec);
      if (Diags.hasErrors() || !E.Ok)
        throw std::runtime_error("serial elision failed");
      return Out + E.Output;
    });
  if (Kind == Op::Detect)
    for (const Job &J : Jobs)
      Tasks.push_back([&J]() -> std::string {
        Loaded B = load(J.Buggy);
        auto *O = new Detection(detectRacesOracle(*B.Prog, J.Exec)); // kept
        if (!O->ok())
          throw std::runtime_error("oracle run failed");
        return std::to_string(reportDigest(O->Report)) + " " +
               std::to_string(tinfOf(*O->Tree));
      });

  std::vector<std::optional<std::string>> Out = inChildren(Tasks, 2);
  std::vector<std::optional<Reference>> Refs(Jobs.size());
  for (size_t J = 0; J != Jobs.size(); ++J) {
    const std::optional<std::string> &Expert = Out[J];
    size_t Eol = Expert ? Expert->find('\n') : std::string::npos;
    if (Eol == std::string::npos)
      continue;
    Reference R;
    R.ExpertTinf = std::stoull(Expert->substr(0, Eol));
    R.Elision = Expert->substr(Eol + 1);
    if (Kind == Op::Detect) {
      const std::optional<std::string> &Oracle = Out[Jobs.size() + J];
      if (!Oracle ||
          std::sscanf(Oracle->c_str(), "%lu %lu", &R.Digest, &R.JobTinf) != 2)
        continue;
    }
    Refs[J] = std::move(R);
  }
  return Refs;
}

/// A detection job passes when its report equals the oracle's.
bool checkDetection(const Detection &D, const Reference &Ref) {
  return D.ok() && reportDigest(D.Report) == Ref.Digest;
}

/// A repair job passes when the repaired program is race free under the
/// oracle and prints what the serial elision prints. On success returns
/// the repaired program's T-infinity. Runs in this process: a fork here
/// would leave the next measured job paying copy-on-write faults.
std::optional<uint64_t> checkRepair(const RepairResult &R, const Program &P,
                                    const ExecOptions &Exec,
                                    const Reference &Ref) {
  if (!R.Success)
    return std::nullopt;
  Detection O = detectRacesOracle(P, Exec);
  if (!O.ok() || !O.Report.Pairs.empty() || O.Exec.Output != Ref.Elision)
    return std::nullopt;
  return tinfOf(*O.Tree);
}

//===----------------------------------------------------------------------===//
// The runs
//===----------------------------------------------------------------------===//

struct Result {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::pair<std::string, std::pair<double, const char *>>> Metrics;

  void add(const std::string &Name, double V, const char *Unit) {
    Metrics.push_back({Name, {V, Unit}});
  }
  void note(bool Ok) {
    ++Attempted;
    Failed += Ok ? 0 : 1;
  }
};

DetectOptions mrw() {
  DetectOptions O;
  O.Mode = EspBagsDetector::Mode::MRW;
  return O;
}

RepairOptions repairOptions(const ExecOptions &Exec) {
  RepairOptions O;
  O.Mode = EspBagsDetector::Mode::MRW;
  O.Exec = Exec;
  return O;
}

/// End-to-end run: whole passes until the measured job regions reach
/// \p Seconds of CPU time. A pass's time is the sum of its job times; the
/// checks between jobs are not measured. The memory probe and one more
/// set-up repetition run between jobs, at most every ProbeEveryMs of
/// measured time.
void untracedRun(const Workload &W, std::vector<Job> &Jobs,
                 std::vector<Loaded> &Progs, const std::vector<Reference> &Refs,
                 const std::vector<size_t> &Order, double Seconds,
                 MemoryProbe &Probe, const std::function<void()> &SetUpAgain,
                 Result &Res) {
  constexpr double ProbeEveryMs = 250;
  size_t N = Jobs.size();
  std::vector<std::vector<double>> JobMs(N), JobWallMs(N);
  std::vector<double> PassS, PassWallS, Cpl(N, 0), ProbeMs;
  std::vector<std::vector<double>> JobPeakMb(N);
  std::vector<std::pair<std::string, std::optional<uint64_t>>> Checked(N);
  double Measured = 0, SinceProbeMs = ProbeEveryMs;
  do {
    if (W.Kind == Op::Repair && !PassS.empty())
      for (size_t J = 0; J != N; ++J)
        Progs[J] = load(Jobs[J].Buggy);
    double PassMs = 0, PassWallMs = 0;
    for (size_t J : Order) {
      const Job &Jb = Jobs[J];
      if (SinceProbeMs >= ProbeEveryMs) {
        ProbeMs.push_back(Probe.sampleMs());
        SetUpAgain();
        SinceProbeMs = 0;
      }
      bool Ok = false;
      bool PeakReset = resetPeakRss();
      Stopwatch Clock;
      if (W.Kind == Op::Detect) {
        Detection D = detectRaces(*Progs[J].Prog, mrw(), Jb.Exec);
        Clock.stop();
        JobPeakMb[J].push_back(PeakReset ? peakRssMb() : 0);
        Ok = checkDetection(D, Refs[J]);
        Cpl[J] = static_cast<double>(Refs[J].JobTinf) /
                 static_cast<double>(Refs[J].ExpertTinf);
      } else {
        RepairResult R = repairProgram(*Progs[J].Prog, *Progs[J].Ctx,
                                       repairOptions(Jb.Exec));
        Clock.stop();
        JobPeakMb[J].push_back(PeakReset ? peakRssMb() : 0);
        // The repaired program is deterministic: a pass that repairs a
        // job to the text an earlier pass checked inherits that verdict.
        std::string Repaired = printProgram(*Progs[J].Prog);
        if (Repaired != Checked[J].first)
          Checked[J] = {std::move(Repaired),
                        checkRepair(R, *Progs[J].Prog, Jb.Exec, Refs[J])};
        std::optional<uint64_t> Tinf =
            R.Success ? Checked[J].second : std::nullopt;
        Ok = Tinf.has_value();
        if (Ok)
          Cpl[J] = static_cast<double>(*Tinf) /
                   static_cast<double>(Refs[J].ExpertTinf);
      }
      // Hand freed memory back to the kernel, so every job starts from the
      // same heap state and pays for its memory as a fresh tdr process
      // would, whatever ran before it.
      malloc_trim(0);
      Res.note(Ok);
      if (!Ok)
        std::printf("FAILED check: %s (pass %zu)\n", Jb.Spec->Name,
                    PassS.size() + 1);
      JobMs[J].push_back(Clock.CpuMs);
      JobWallMs[J].push_back(Clock.WallMs);
      PassMs += Clock.CpuMs;
      PassWallMs += Clock.WallMs;
      SinceProbeMs += Clock.CpuMs;
    }
    PassS.push_back(PassMs / 1000.0);
    PassWallS.push_back(PassWallMs / 1000.0);
    Measured += PassMs / 1000.0;
  } while (Measured < Seconds);

  double Scale = ProbeNominalMs / median(ProbeMs);
  std::vector<double> JobMedians, JobWallMedians;
  for (size_t J = 0; J != N; ++J) {
    JobMedians.push_back(median(JobMs[J]));
    JobWallMedians.push_back(median(JobWallMs[J]));
    auto [Min, Max] = std::minmax_element(JobMs[J].begin(), JobMs[J].end());
    std::printf("job %-14s cpu ms median %10.3f min %10.3f max %10.3f, wall "
                "ms median %10.3f, %zu passes, cpl_ratio %.6f\n",
                Jobs[J].Spec->Name, JobMedians.back(), *Min, *Max,
                JobWallMedians.back(), JobMs[J].size(), Cpl[J]);
  }
  std::printf("memory probe median %.3f ms over %zu samples (nominal %.1f): "
              "normalized = cpu x %.4f\n",
              median(ProbeMs), ProbeMs.size(), ProbeNominalMs, Scale);
  std::printf("pass cpu s median %.6f", median(PassS));
  // The highest percentile with at least ten passes beyond it.
  if (PassS.size() > 10) {
    std::vector<double> Sorted = PassS;
    std::sort(Sorted.begin(), Sorted.end());
    size_t K = PassS.size() - 11;
    std::printf(", p%zu %.6f", 100 * (K + 1) / PassS.size(), Sorted[K]);
  }
  std::printf(" over %zu passes; job cpu ms geomean %.6f; wall: pass median "
              "%.6f s, job geomean %.6f ms\n",
              PassS.size(), geomean(JobMedians), median(PassWallS),
              geomean(JobWallMedians));

  Res.add("pass_norm_s", median(PassS) * Scale, "s");
  Res.add("job_norm_ms.geomean", geomean(JobMedians) * Scale, "ms");
  // The peak of the measured calls: per job the median over passes, then
  // the largest job. Without a resettable mark, the process's whole-run
  // peak (checks included).
  double PeakMb = 0;
  for (size_t J = 0; J != N; ++J)
    PeakMb = std::max(PeakMb, median(JobPeakMb[J]));
  if (PeakMb == 0)
    PeakMb = peakRssMb();
  Res.add("peak_rss_mb", PeakMb, "MB");
  Res.add("cpl_ratio.geomean", Res.Failed ? 0 : geomean(Cpl), "x");
}

/// Per-job layer measurements of the traced run, before aggregation.
using LayerMap = std::map<std::string, double>;

/// The names, units and aggregation of the per-layer metrics, in output
/// order. Sums add up over jobs; a ratio divides two summed raw fields.
struct LayerMetric {
  const char *Name;
  const char *Unit;
  const char *Num;          ///< raw field summed over jobs
  const char *Den = nullptr; ///< raw field of the ratio's base, if a ratio
  double Scale = 1;
};

const LayerMetric LayerMetrics[] = {
    {"frontend.parse_ms", "ms", "frontend.parse_ms"},
    {"sema.ms", "ms", "sema.ms"},
    {"interp.plain_ms", "ms", "interp.plain_ms"},
    {"interp.work_units", "count", "interp.work_units"},
    {"interp.monitor_ms", "ms", "interp.monitor_ms"},
    {"dpst.build_ms", "ms", "dpst.build_ms"},
    {"dpst.nodes", "count", "dpst.nodes"},
    {"dpst.bytes_per_node", "B/node", "dpst.bytes", "dpst.nodes"},
    {"trace.record_ms", "ms", "trace.record_ms"},
    {"trace.events", "count", "trace.events"},
    {"trace.bytes_per_event", "B/event", "trace.bytes", "trace.events"},
    {"trace.replay_ms", "ms", "trace.replay_ms"},
    {"race.detect_ms", "ms", "race.detect_ms"},
    {"race.over_plain", "x", "race.fresh_ms", "interp.plain_ms"},
    {"race.raw", "count", "race.raw"},
    {"race.pairs", "count", "race.pairs"},
    {"race.shadow_bytes", "B", "race.shadow_bytes"},
    {"repair.ms", "ms", "repair.ms"},
    {"repair.detect_ms", "ms", "repair.detect_ms"},
    {"repair.place_ms", "ms", "repair.place_ms"},
    {"repair.place_us_per_pair", "us/pair", "repair.place_ms",
     "repair.first_pairs", 1000},
    {"repair.group_ms", "ms", "repair.group_ms"},
    {"repair.dp_ms", "ms", "repair.dp_ms"},
    {"repair.choose_ms", "ms", "repair.choose_ms"},
    {"repair.iterations", "count", "repair.iterations"},
    {"repair.interpretations", "count", "repair.interpretations"},
    {"repair.replays", "count", "repair.replays"},
    {"repair.finishes", "count", "repair.finishes"},
    {"sched.tinf", "count", "sched.tinf"},
    {"sched.analyze_ms", "ms", "sched.analyze_ms"},
    {"traced.pass_norm_s", "s", "traced.op_norm_ms", nullptr, 1e-3},
};

double aggregate(const LayerMetric &M, const std::vector<LayerMap> &Jobs) {
  double Num = 0, Den = 0;
  for (const LayerMap &L : Jobs) {
    Num += L.count(M.Num) ? L.at(M.Num) : 0;
    Den += M.Den && L.count(M.Den) ? L.at(M.Den) : 0;
  }
  if (!M.Den)
    return Num * M.Scale;
  return Den > 0 ? Num * M.Scale / Den : 0;
}

/// One job of the traced run: the layer stack, each call in a span of
/// \p Spans and, as in the untraced run, started on a trimmed heap.
/// Returns the job's raw layer fields; \p Ok receives the check.
LayerMap traceJob(const Workload &W, const Job &Jb, const Reference &Ref,
                  int J, SpanLog &Spans, bool &Ok) {
  obs::Tracer &Tracer = obs::Tracer::global();
  LayerMap L;
  size_t First = Spans.Spans.size();
  {
    SpanScope JobSpan(&Spans, "job", J);
    Loaded B = load(Jb.Buggy, &Spans, J);
    ExecOptions X = Jb.Exec;

    ExecResult Plain;
    {
      malloc_trim(0);
      SpanScope S(&Spans, "interp.plain", J);
      Plain = runProgram(*B.Prog, X);
    }
    L["interp.work_units"] = static_cast<double>(Plain.TotalWork);
    {
      malloc_trim(0);
      ExecMonitor Noop;
      X.Monitor = &Noop;
      SpanScope S(&Spans, "interp.noop", J);
      runProgram(*B.Prog, X);
    }
    uint64_t JobTinf = 0;
    {
      malloc_trim(0);
      size_t Before = liveHeapBytes();
      auto Tree = std::make_unique<Dpst>();
      {
        DpstBuilder Builder(*Tree);
        X.Monitor = &Builder;
        SpanScope S(&Spans, "dpst.build", J);
        runProgram(*B.Prog, X);
      }
      L["dpst.bytes"] = static_cast<double>(liveHeapBytes() - Before);
      L["dpst.nodes"] = static_cast<double>(Tree->numNodes());
      if (W.Kind == Op::Detect) {
        SpanScope S(&Spans, "sched.analyze", J);
        JobTinf = analyzeDpst(*Tree, 12).Tinf;
      }
    }
    trace::InputTrace Recorded;
    {
      malloc_trim(0);
      trace::RecorderMonitor Rec(Recorded.Log);
      X.Monitor = &Rec;
      SpanScope S(&Spans, "trace.record", J);
      Recorded.Exec = runProgram(*B.Prog, X);
      Rec.flush();
    }
    X.Monitor = nullptr;
    L["trace.events"] = static_cast<double>(Recorded.Log.size());
    L["trace.bytes"] = static_cast<double>(Recorded.Log.bytesReserved());
    {
      std::optional<SpanScope> S;
      malloc_trim(0);
      S.emplace(&Spans, "race.detect", J);
      Stopwatch Clock;
      Detection D = detectRaces(*B.Prog, mrw(), X);
      Clock.stop();
      S.reset();
      if (W.Kind == Op::Detect)
        L["traced.op_cpu_ms"] = Clock.CpuMs;
      L["race.raw"] = static_cast<double>(D.Report.RawCount);
      L["race.pairs"] = static_cast<double>(D.Report.Pairs.size());
      L["race.shadow_bytes"] = static_cast<double>(D.ShadowBytesUsed);
      if (W.Kind == Op::Detect)
        Ok = checkDetection(D, Ref);
    }
    {
      malloc_trim(0);
      SpanScope S(&Spans, "trace.replay", J);
      detectRaces(*B.Prog, mrw(), Recorded, trace::ReplayPlan());
    }
    Recorded = trace::InputTrace();

    if (W.Kind == Op::Repair) {
      Tracer.clear();
      std::optional<SpanScope> S;
      malloc_trim(0);
      S.emplace(&Spans, "repair", J);
      Stopwatch Clock;
      RepairResult R =
          repairProgram(*B.Prog, *B.Ctx, repairOptions(Jb.Exec));
      Clock.stop();
      S.reset();
      L["traced.op_cpu_ms"] = Clock.CpuMs;
      std::map<std::string, double> Self = obsSelfMs();
      L["repair.group_ms"] = Self["dpst.group"];
      L["repair.dp_ms"] = Self["placement.dp"];
      L["repair.choose_ms"] = Self["placement.choose"];
      L["repair.detect_ms"] = R.Stats.totalDetectMs();
      L["repair.place_ms"] = R.Stats.totalRepairMs();
      L["repair.first_pairs"] = static_cast<double>(R.Stats.RacePairs);
      L["repair.iterations"] = R.Stats.Iterations;
      L["repair.interpretations"] = R.Stats.Interpretations;
      L["repair.replays"] = R.Stats.Replays;
      L["repair.finishes"] = R.Stats.FinishesInserted;
      Ok = checkRepair(R, *B.Prog, Jb.Exec, Ref).has_value();

      Dpst Tree;
      DpstBuilder Builder(Tree);
      X.Monitor = &Builder;
      runProgram(*B.Prog, X);
      X.Monitor = nullptr;
      SpanScope A(&Spans, "sched.analyze", J);
      JobTinf = analyzeDpst(Tree, 12).Tinf;
    }
    L["sched.tinf"] = static_cast<double>(JobTinf);

    Loaded Expert = load(Jb.Expert);
    Dpst Tree;
    DpstBuilder Builder(Tree);
    X.Monitor = &Builder;
    runProgram(*Expert.Prog, X);
    SpanScope A(&Spans, "sched.analyze", J);
    analyzeDpst(Tree, 12);
  }
  double Plain = Spans.ms("interp.plain", First);
  double Noop = Spans.ms("interp.noop", First);
  double Build = Spans.ms("dpst.build", First);
  double Fresh = Spans.ms("race.detect", First);
  L["frontend.parse_ms"] = Spans.ms("frontend.parse", First);
  L["sema.ms"] = Spans.ms("sema", First);
  L["interp.plain_ms"] = Plain;
  L["interp.monitor_ms"] = Noop - Plain;
  L["dpst.build_ms"] = Build - Noop;
  L["trace.record_ms"] = Spans.ms("trace.record", First) - Noop;
  L["trace.replay_ms"] = Spans.ms("trace.replay", First);
  L["race.fresh_ms"] = Fresh;
  L["race.detect_ms"] = Fresh - Build;
  L["repair.ms"] = Spans.ms("repair", First);
  L["sched.analyze_ms"] = Spans.ms("sched.analyze", First);
  L["job_ms"] = Spans.Spans[First].ms();
  return L;
}

/// The traced run: whole traced passes until their job spans reach
/// \p Seconds of wall time (at least one). Each job's layer fields are the
/// medians over passes.
void tracedRun(const Workload &W, std::vector<Job> &Jobs,
               const std::vector<Reference> &Refs,
               const std::vector<size_t> &Order, double Seconds,
               SpanLog &Spans, MemoryProbe &Probe, Result &Res) {
  obs::Tracer::global().enable();
  std::vector<std::vector<LayerMap>> Samples(Jobs.size());
  std::vector<double> ProbeMs;
  double TracedMs = 0;
  do {
    for (size_t Ji : Order) {
      ProbeMs.push_back(Probe.sampleMs());
      bool Ok = false;
      Samples[Ji].push_back(traceJob(W, Jobs[Ji], Refs[Ji],
                                     static_cast<int>(Ji), Spans, Ok));
      TracedMs += Samples[Ji].back()["job_ms"];
      malloc_trim(0);
      Res.note(Ok);
      if (!Ok)
        std::printf("FAILED check: %s\n", Jobs[Ji].Spec->Name);
    }
  } while (TracedMs < Seconds * 1000);
  obs::Tracer::global().disable();
  obs::Tracer::global().clear();

  double Scale = ProbeNominalMs / median(ProbeMs);
  std::vector<LayerMap> PerJob(Jobs.size());
  for (size_t Ji : Order) {
    LayerMap &L = PerJob[Ji];
    for (const auto &[Field, V] : Samples[Ji].front()) {
      std::vector<double> Vals;
      for (LayerMap &S : Samples[Ji])
        Vals.push_back(S[Field]);
      L[Field] = median(Vals);
    }
    L["traced.op_norm_ms"] = L["traced.op_cpu_ms"] * Scale;
    std::string Line = "{\"job\": " + jsonStr(Jobs[Ji].Spec->Name) +
                       ", \"passes\": " +
                       std::to_string(Samples[Ji].size()) +
                       ", \"metrics\": {";
    const char *Sep = "";
    std::vector<LayerMap> One = {L};
    for (const LayerMetric &M : LayerMetrics) {
      Line += Sep + jsonStr(M.Name) + ": " + fmtNum(aggregate(M, One));
      Sep = ", ";
    }
    std::printf("%s}}\n", Line.c_str());
  }
  for (const LayerMetric &M : LayerMetrics)
    Res.add(M.Name, aggregate(M, PerJob), M.Unit);
}

bool writeSpans(const std::string &Path, const SpanLog &Spans,
                const std::vector<Job> &Jobs) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "[\n");
  for (size_t I = 0; I != Spans.Spans.size(); ++I) {
    const Span &S = Spans.Spans[I];
    std::fprintf(F,
                 "  {\"name\": %s, \"job\": %s, \"parent\": %d, "
                 "\"start_ns\": %lu, \"end_ns\": %lu}%s\n",
                 jsonStr(S.Name).c_str(),
                 jsonStr(Jobs[static_cast<size_t>(S.Job)].Spec->Name).c_str(),
                 S.Parent, S.StartNs, S.EndNs,
                 I + 1 == Spans.Spans.size() ? "" : ",");
  }
  std::fprintf(F, "]\n");
  return std::fclose(F) == 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload races-perf|repair-table2 "
               "[--seed N] [--seconds S] [--trace 0|1]\n"
               "                 [--only PROGRAM[,PROGRAM...]] "
               "[--spans FILE] [--corrupt-reference]\n");
}

} // namespace

int main(int argc, char **argv) {
  for (const char *Var : RefusedEnv)
    if (std::getenv(Var))
      die(std::string(Var) +
          " is set; it would change what is measured. Unset it.");

  const Workload *W = nullptr;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false, CorruptReference = false;
  std::vector<std::string> Only;
  std::string SpansPath;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= argc) {
        usage();
        die(A + " expects a value");
      }
      return argv[++I];
    };
    try {
      if (A == "--workload") {
        std::string Name = Value();
        for (const Workload &Cand : Workloads)
          if (Name == Cand.Name)
            W = &Cand;
        if (!W)
          die("unknown workload '" + Name + "'");
      } else if (A == "--seed") {
        Seed = std::stoull(Value());
      } else if (A == "--seconds") {
        Seconds = std::stod(Value());
      } else if (A == "--trace") {
        std::string V = Value();
        if (V != "0" && V != "1")
          die("--trace expects 0 or 1");
        Trace = V == "1";
      } else if (A == "--only") {
        std::string V = Value();
        for (size_t Pos = 0; Pos <= V.size();) {
          size_t Comma = std::min(V.find(',', Pos), V.size());
          Only.push_back(V.substr(Pos, Comma - Pos));
          Pos = Comma + 1;
        }
      } else if (A == "--spans") {
        SpansPath = Value();
      } else if (A == "--corrupt-reference") {
        CorruptReference = true;
      } else {
        usage();
        die("unknown argument '" + A + "'");
      }
    } catch (const std::logic_error &) {
      die("bad value for " + A);
    }
  }
  if (!W) {
    usage();
    die("--workload is required");
  }
  if (!(Seconds > 0))
    die("--seconds must be positive");
  for (const std::string &Name : Only)
    if (!findBenchmark(Name))
      die("unknown program '" + Name + "' in --only");

  // Set-up: input generation plus parse, sema and strip of every job. Five
  // repetitions here; an untraced run adds one at every memory probe, so
  // the reported median spans the run rather than its first moments.
  std::vector<Job> Jobs;
  std::vector<Loaded> Progs;
  auto SetUp = [&](std::vector<Job> &JobsOut, std::vector<Loaded> &ProgsOut) {
    Stopwatch Clock;
    JobsOut = makeJobs(*W, Seed, Only);
    ProgsOut.clear();
    for (const Job &J : JobsOut)
      ProgsOut.push_back(load(J.Buggy));
    Clock.stop();
    return Clock.CpuMs / 1000.0;
  };
  std::vector<double> SetupS;
  for (int Rep = 0; Rep != 5; ++Rep)
    SetupS.push_back(SetUp(Jobs, Progs));
  std::vector<size_t> Order = jobOrder(Jobs.size(), Seed);

  uint64_t RefStart = Timer::nowNs();
  std::vector<Reference> Refs;
  std::vector<std::optional<Reference>> Computed =
      computeReferences(Jobs, W->Kind);
  for (size_t J = 0; J != Jobs.size(); ++J) {
    if (!Computed[J])
      die(std::string("reference computation failed for ") +
          Jobs[J].Spec->Name);
    Refs.push_back(std::move(*Computed[J]));
  }
  if (CorruptReference && !Refs.empty()) {
    Refs[0].Digest ^= 1;
    Refs[0].Elision += "corrupted\n";
  }

  std::printf("references %.3f s\n", msSince(RefStart) / 1000.0);
  std::printf("workload %s seed %lu jobs %zu order", W->Name, Seed,
              Jobs.size());
  for (size_t J : Order)
    std::printf(" %s", Jobs[J].Spec->Name);
  std::printf("\n");

  Result Res;
  if (Trace) {
    SpanLog Spans;
    Progs.clear();
    MemoryProbe Probe;
    tracedRun(*W, Jobs, Refs, Order, Seconds, Spans, Probe, Res);
    if (!SpansPath.empty() && !writeSpans(SpansPath, Spans, Jobs))
      die("cannot write " + SpansPath);
  } else {
    MemoryProbe Probe;
    auto SetUpAgain = [&] {
      std::vector<Job> J;
      std::vector<Loaded> P;
      SetupS.push_back(SetUp(J, P));
    };
    untracedRun(*W, Jobs, Progs, Refs, Order, Seconds, Probe, SetUpAgain,
                Res);
    Res.Metrics.insert(Res.Metrics.begin(),
                       {"setup_s", {median(SetupS), "s"}});
    std::printf("setup_s median over %zu repetitions\n", SetupS.size());
  }
  Res.Correct = Res.Failed == 0;
  std::printf("attempted %lu failed %lu failed_ratio %.6f\n", Res.Attempted,
              Res.Failed,
              static_cast<double>(Res.Failed) /
                  static_cast<double>(Res.Attempted));

  std::string Json = std::string("{\"correct\": ") +
                     (Res.Correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(Res.Attempted) +
                     ", \"failed\": " + std::to_string(Res.Failed) +
                     ", \"metrics\": {";
  const char *Sep = "";
  for (const auto &[Name, VU] : Res.Metrics) {
    Json += Sep + jsonStr(Name) + ": {\"value\": " + fmtNum(VU.first) +
            ", \"unit\": " + jsonStr(VU.second) + "}";
    Sep = ", ";
  }
  std::printf("%s}}\n", Json.c_str());
  return 0;
}
