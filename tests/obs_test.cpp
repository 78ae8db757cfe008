//===- obs_test.cpp - Tracer, metrics registry, and pipeline hooks --------===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
// The observability layer: span recording and nesting, Chrome trace / JSONL
// rendering, the metrics registry, end-to-end counter increments from a
// repairSource run, and the near-zero disabled path.
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "repair/RepairDriver.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

using namespace tdr;

namespace {

/// Minimal recursive-descent JSON validity checker (values, objects,
/// arrays, strings with escapes, numbers, true/false/null). Enough to
/// assert the emitters produce well-formed JSON without a dependency.
class JsonChecker {
public:
  explicit JsonChecker(const std::string &S) : S(S) {}

  bool valid() {
    skipWs();
    return value() && (skipWs(), Pos == S.size());
  }

private:
  bool value() {
    if (Pos >= S.size())
      return false;
    switch (S[Pos]) {
    case '{':
      return object();
    case '[':
      return array();
    case '"':
      return string();
    case 't':
      return literal("true");
    case 'f':
      return literal("false");
    case 'n':
      return literal("null");
    default:
      return number();
    }
  }

  bool object() {
    ++Pos; // '{'
    skipWs();
    if (peek() == '}')
      return ++Pos, true;
    while (true) {
      skipWs();
      if (!string())
        return false;
      skipWs();
      if (peek() != ':')
        return false;
      ++Pos;
      skipWs();
      if (!value())
        return false;
      skipWs();
      if (peek() == ',') {
        ++Pos;
        continue;
      }
      if (peek() == '}')
        return ++Pos, true;
      return false;
    }
  }

  bool array() {
    ++Pos; // '['
    skipWs();
    if (peek() == ']')
      return ++Pos, true;
    while (true) {
      skipWs();
      if (!value())
        return false;
      skipWs();
      if (peek() == ',') {
        ++Pos;
        continue;
      }
      if (peek() == ']')
        return ++Pos, true;
      return false;
    }
  }

  bool string() {
    if (peek() != '"')
      return false;
    ++Pos;
    while (Pos < S.size() && S[Pos] != '"') {
      if (S[Pos] == '\\') {
        ++Pos;
        if (Pos >= S.size())
          return false;
      }
      ++Pos;
    }
    if (Pos >= S.size())
      return false;
    ++Pos;
    return true;
  }

  bool number() {
    size_t Start = Pos;
    if (peek() == '-')
      ++Pos;
    while (Pos < S.size() &&
           (std::isdigit(static_cast<unsigned char>(S[Pos])) ||
            S[Pos] == '.' || S[Pos] == 'e' || S[Pos] == 'E' ||
            S[Pos] == '+' || S[Pos] == '-'))
      ++Pos;
    return Pos > Start;
  }

  bool literal(const char *L) {
    size_t Len = std::strlen(L);
    if (S.compare(Pos, Len, L) != 0)
      return false;
    Pos += Len;
    return true;
  }

  void skipWs() {
    while (Pos < S.size() &&
           std::isspace(static_cast<unsigned char>(S[Pos])))
      ++Pos;
  }

  char peek() const { return Pos < S.size() ? S[Pos] : '\0'; }

  const std::string &S;
  size_t Pos = 0;
};

/// A two-async racy accumulator; repairSource inserts at least one finish.
const char *RacySource = R"(
func main() {
  var a: int[] = new int[1];
  async a[0] = a[0] + 1;
  async a[0] = a[0] + 2;
  print(a[0]);
}
)";

/// RAII guard: enables tracing for one test and restores the disabled
/// state (and an empty buffer) afterwards so tests stay independent.
struct TracingOn {
  TracingOn() {
    obs::Tracer::global().clear();
    obs::Tracer::global().enable();
  }
  ~TracingOn() {
    obs::Tracer::global().disable();
    obs::Tracer::global().clear();
  }
};

TEST(Timer, NowNsMonotonic) {
  uint64_t A = Timer::nowNs();
  uint64_t B = Timer::nowNs();
  EXPECT_LE(A, B);
  Timer T;
  EXPECT_GE(T.elapsedMs(), 0.0);
}

TEST(Tracer, SpanNestingAndOrdering) {
  TracingOn Guard;
  {
    obs::ScopedSpan Outer("outer", "test");
    {
      obs::ScopedSpan Inner("inner", "test");
    }
    {
      obs::ScopedSpan Inner2("inner2", "test");
    }
  }
  std::vector<obs::TraceEvent> Events = obs::Tracer::global().snapshot();
  ASSERT_EQ(Events.size(), 3u);

  // Spans complete innermost-first.
  EXPECT_EQ(Events[0].Name, "inner");
  EXPECT_EQ(Events[1].Name, "inner2");
  EXPECT_EQ(Events[2].Name, "outer");

  const obs::TraceEvent &Inner = Events[0];
  const obs::TraceEvent &Inner2 = Events[1];
  const obs::TraceEvent &Outer = Events[2];
  // Nesting: both inner spans lie within the outer span's interval.
  EXPECT_GE(Inner.TsNs, Outer.TsNs);
  EXPECT_LE(Inner.TsNs + Inner.DurNs, Outer.TsNs + Outer.DurNs);
  EXPECT_GE(Inner2.TsNs, Outer.TsNs);
  EXPECT_LE(Inner2.TsNs + Inner2.DurNs, Outer.TsNs + Outer.DurNs);
  // Ordering: inner precedes inner2.
  EXPECT_LE(Inner.TsNs + Inner.DurNs, Inner2.TsNs);
  // All on the same thread.
  EXPECT_EQ(Inner.Tid, Outer.Tid);
  EXPECT_EQ(Inner2.Tid, Outer.Tid);
}

TEST(Tracer, DisabledSpansRecordNothing) {
  obs::Tracer::global().disable();
  obs::Tracer::global().clear();
  size_t Before = obs::Tracer::global().numEvents();
  {
    obs::ScopedSpan Span("ignored", "test");
    obs::Tracer::global().recordInstant("also-ignored");
  }
  EXPECT_EQ(obs::Tracer::global().numEvents(), Before);
  EXPECT_EQ(Before, 0u);
}

TEST(Tracer, ChromeTraceIsValidJsonWithRequiredFields) {
  TracingOn Guard;
  {
    obs::ScopedSpan Span("phase \"quoted\"\n", "test");
  }
  obs::Tracer::global().recordInstant("marker");
  std::string Json = obs::Tracer::global().renderChromeJson();
  EXPECT_TRUE(JsonChecker(Json).valid()) << Json;
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(Json.find("\\\"quoted\\\""), std::string::npos);

  // Every JSONL line is itself valid JSON.
  std::string Jsonl = obs::Tracer::global().renderJsonl();
  std::istringstream Lines(Jsonl);
  std::string Line;
  size_t NumLines = 0;
  while (std::getline(Lines, Line)) {
    EXPECT_TRUE(JsonChecker(Line).valid()) << Line;
    ++NumLines;
  }
  EXPECT_EQ(NumLines, 2u);
}

TEST(Tracer, WriteToDispatchesOnExtension) {
  TracingOn Guard;
  {
    obs::ScopedSpan Span("io", "test");
  }
  std::string Chrome = testing::TempDir() + "obs_test_trace.json";
  std::string Jsonl = testing::TempDir() + "obs_test_trace.jsonl";
  ASSERT_TRUE(obs::Tracer::global().writeTo(Chrome));
  ASSERT_TRUE(obs::Tracer::global().writeTo(Jsonl));

  auto Slurp = [](const std::string &Path) {
    std::ifstream In(Path);
    std::stringstream SS;
    SS << In.rdbuf();
    return SS.str();
  };
  std::string ChromeText = Slurp(Chrome);
  std::string JsonlText = Slurp(Jsonl);
  EXPECT_TRUE(JsonChecker(ChromeText).valid());
  EXPECT_NE(ChromeText.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(JsonlText.find("\"traceEvents\""), std::string::npos);
  std::remove(Chrome.c_str());
  std::remove(Jsonl.c_str());
}

TEST(Metrics, CountersGaugesHistograms) {
  obs::MetricsRegistry R;
  obs::Counter &C = R.counter("test.counter");
  C.inc();
  C.inc(4);
  EXPECT_EQ(C.value(), 5u);
  EXPECT_EQ(&R.counter("test.counter"), &C);
  EXPECT_EQ(R.counterValue("test.counter"), 5u);
  EXPECT_EQ(R.counterValue("test.missing"), 0u);

  obs::Gauge &G = R.gauge("test.gauge");
  G.set(-7);
  EXPECT_EQ(G.value(), -7);
  EXPECT_EQ(R.gaugeValue("test.gauge"), -7);

  obs::Histogram &H = R.histogram("test.hist");
  H.observe(2.0);
  H.observe(4.0);
  obs::Histogram::Snapshot S = H.snapshot();
  EXPECT_EQ(S.Count, 2u);
  EXPECT_DOUBLE_EQ(S.Sum, 6.0);
  EXPECT_DOUBLE_EQ(S.Min, 2.0);
  EXPECT_DOUBLE_EQ(S.Max, 4.0);
  EXPECT_DOUBLE_EQ(S.mean(), 3.0);

  EXPECT_EQ(R.size(), 3u);
  std::string Json = R.dumpJson();
  EXPECT_TRUE(JsonChecker(Json).valid()) << Json;
  EXPECT_NE(Json.find("\"test.counter\": 5"), std::string::npos);
  EXPECT_NE(Json.find("\"test.gauge\": -7"), std::string::npos);
  EXPECT_NE(Json.find("\"count\":2"), std::string::npos);

  R.reset();
  EXPECT_EQ(C.value(), 0u);
  EXPECT_EQ(G.value(), 0);
  EXPECT_EQ(H.snapshot().Count, 0u);
  EXPECT_EQ(R.size(), 3u); // registrations survive reset
}

TEST(Metrics, ScopedMetricsRedirectsAndNests) {
  EXPECT_EQ(&obs::MetricsRegistry::current(), &obs::MetricsRegistry::global());

  obs::MetricsRegistry Outer, Inner;
  {
    obs::ScopedMetrics OuterScope(Outer);
    EXPECT_EQ(&obs::MetricsRegistry::current(), &Outer);
    obs::counter("scoped.hits").inc();
    {
      obs::ScopedMetrics InnerScope(Inner);
      EXPECT_EQ(&obs::MetricsRegistry::current(), &Inner);
      obs::counter("scoped.hits").inc(10);
    }
    // Nesting restores the previous scope, not the global.
    EXPECT_EQ(&obs::MetricsRegistry::current(), &Outer);
    obs::counter("scoped.hits").inc();
  }
  EXPECT_EQ(&obs::MetricsRegistry::current(), &obs::MetricsRegistry::global());

  EXPECT_EQ(Outer.counterValue("scoped.hits"), 2u);
  EXPECT_EQ(Inner.counterValue("scoped.hits"), 10u);
  EXPECT_EQ(obs::MetricsRegistry::global().counterValue("scoped.hits"), 0u);
}

TEST(Metrics, ScopedMetricsIsPerThread) {
  obs::MetricsRegistry Mine;
  obs::ScopedMetrics Scope(Mine);
  obs::MetricsRegistry *SeenOnOtherThread = nullptr;
  std::thread T([&] { SeenOnOtherThread = &obs::MetricsRegistry::current(); });
  T.join();
  // The scope only covers the installing thread.
  EXPECT_EQ(SeenOnOtherThread, &obs::MetricsRegistry::global());
  EXPECT_EQ(&obs::MetricsRegistry::current(), &Mine);
}

TEST(Metrics, ScopedRepairLandsInScopedRegistryOnly) {
  obs::MetricsRegistry &Global = obs::MetricsRegistry::global();
  uint64_t GlobalDetectBefore = Global.counterValue("detect.runs");

  obs::MetricsRegistry JobRegistry;
  std::string Repaired;
  RepairResult R;
  {
    obs::ScopedMetrics Scope(JobRegistry);
    R = repairSource(RacySource, Repaired);
  }
  ASSERT_TRUE(R.Success) << R.Error;
  // The whole pipeline reported into the scoped registry...
  EXPECT_GT(JobRegistry.counterValue("detect.runs"), 0u);
  EXPECT_GT(JobRegistry.counterValue("espbags.checks"), 0u);
  EXPECT_GT(JobRegistry.counterValue("dpst.nodes"), 0u);
  EXPECT_EQ(JobRegistry.counterValue("repair.finishes_inserted"),
            R.Stats.FinishesInserted);
  // ...and the global registry did not move.
  EXPECT_EQ(Global.counterValue("detect.runs"), GlobalDetectBefore);
}

TEST(Metrics, HistogramMerge) {
  obs::Histogram A, B;
  A.observe(1.0);
  A.observe(3.0);
  B.observe(10.0);
  A.merge(B.snapshot());
  obs::Histogram::Snapshot S = A.snapshot();
  EXPECT_EQ(S.Count, 3u);
  EXPECT_DOUBLE_EQ(S.Min, 1.0);
  EXPECT_DOUBLE_EQ(S.Max, 10.0);
  EXPECT_DOUBLE_EQ(S.Sum, 14.0);

  // Merging an empty snapshot is a no-op; merging into empty copies.
  obs::Histogram Empty;
  A.merge(Empty.snapshot());
  EXPECT_EQ(A.snapshot().Count, 3u);
  Empty.merge(A.snapshot());
  EXPECT_EQ(Empty.snapshot().Count, 3u);
  EXPECT_DOUBLE_EQ(Empty.snapshot().Max, 10.0);
}

TEST(Metrics, HistogramPercentilesAreNearestRank) {
  obs::Histogram H;
  for (int I = 1; I <= 100; ++I)
    H.observe(static_cast<double>(I));
  obs::Histogram::Snapshot S = H.snapshot();
  ASSERT_EQ(S.Samples.size(), 100u);
  // Nearest-rank: ceil(P/100 * N)-th smallest sample.
  EXPECT_DOUBLE_EQ(S.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(S.percentile(95), 95.0);
  EXPECT_DOUBLE_EQ(S.percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(S.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(S.percentile(100), 100.0);

  // Insertion order does not matter: percentiles sort the reservoir.
  obs::Histogram Rev;
  for (int I = 100; I >= 1; --I)
    Rev.observe(static_cast<double>(I));
  EXPECT_DOUBLE_EQ(Rev.snapshot().percentile(95), 95.0);

  // The percentile fields show up in the JSON dump.
  obs::MetricsRegistry R;
  R.histogram("lat").observe(7.0);
  std::string Json = R.dumpJson();
  EXPECT_NE(Json.find("\"p50\":"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"p95\":"), std::string::npos);
  EXPECT_NE(Json.find("\"p99\":"), std::string::npos);

  // An empty histogram degrades to 0 instead of reading off the end.
  EXPECT_DOUBLE_EQ(obs::Histogram().snapshot().percentile(99), 0.0);
}

TEST(Metrics, ReservoirRetainsLateObservations) {
  // Regression: the reservoir used to stop admitting samples once full,
  // so a distribution shift after the cap was invisible to percentiles
  // (a detector that got slow late in a run still reported fast p99s).
  // Algorithm R keeps every observation equally likely to be retained:
  // after 1024 early 1.0s and 4096 late 2.0s, ~80% of the reservoir
  // should be late values, and the tail percentiles must see them.
  obs::Histogram H;
  for (size_t I = 0; I != obs::Histogram::MaxSamples; ++I)
    H.observe(1.0);
  for (size_t I = 0; I != 4 * obs::Histogram::MaxSamples; ++I)
    H.observe(2.0);

  obs::Histogram::Snapshot S = H.snapshot();
  EXPECT_EQ(S.Count, 5 * obs::Histogram::MaxSamples);
  ASSERT_EQ(S.Samples.size(), obs::Histogram::MaxSamples);
  size_t Late = 0;
  for (double X : S.Samples)
    Late += X == 2.0;
  // Expected ~4/5 of the reservoir; a wide band keeps the test robust to
  // reasonable changes of the (deterministic) sampling constants.
  EXPECT_GT(Late, obs::Histogram::MaxSamples / 2);
  EXPECT_LT(Late, obs::Histogram::MaxSamples);
  EXPECT_DOUBLE_EQ(S.percentile(50), 2.0);
  EXPECT_DOUBLE_EQ(S.percentile(99), 2.0);

  // Same sequence, same reservoir: sampling is deterministic, and
  // reset() restores the generator state too.
  obs::Histogram H2;
  for (size_t I = 0; I != obs::Histogram::MaxSamples; ++I)
    H2.observe(1.0);
  for (size_t I = 0; I != 4 * obs::Histogram::MaxSamples; ++I)
    H2.observe(2.0);
  EXPECT_EQ(H2.snapshot().Samples, S.Samples);
  H2.reset();
  for (size_t I = 0; I != obs::Histogram::MaxSamples; ++I)
    H2.observe(1.0);
  for (size_t I = 0; I != 4 * obs::Histogram::MaxSamples; ++I)
    H2.observe(2.0);
  EXPECT_EQ(H2.snapshot().Samples, S.Samples);
}

TEST(Metrics, MergePastCapIsCountProportional) {
  // When the combined reservoirs exceed the cap, each side contributes
  // samples proportionally to its OBSERVATION count, not its sample
  // count — a job with 3x the observations keeps 3x the slots.
  obs::Histogram A, B;
  for (size_t I = 0; I != 3 * obs::Histogram::MaxSamples; ++I)
    A.observe(1.0);
  for (size_t I = 0; I != obs::Histogram::MaxSamples; ++I)
    B.observe(3.0);
  A.merge(B.snapshot());

  obs::Histogram::Snapshot S = A.snapshot();
  EXPECT_EQ(S.Count, 4 * obs::Histogram::MaxSamples);
  ASSERT_EQ(S.Samples.size(), obs::Histogram::MaxSamples);
  size_t FromA = 0, FromB = 0;
  for (double X : S.Samples) {
    FromA += X == 1.0;
    FromB += X == 3.0;
  }
  EXPECT_EQ(FromA, 3 * obs::Histogram::MaxSamples / 4);
  EXPECT_EQ(FromB, obs::Histogram::MaxSamples / 4);
  EXPECT_DOUBLE_EQ(S.Sum, 3.0 * obs::Histogram::MaxSamples +
                              3.0 * obs::Histogram::MaxSamples);
  EXPECT_DOUBLE_EQ(S.percentile(50), 1.0);
  EXPECT_DOUBLE_EQ(S.percentile(95), 3.0);
}

TEST(Metrics, MergeCarriesHistogramSamplesAcrossRegistries) {
  // The batch pattern: each job observes latencies into its own
  // (per-thread) registry; the parent merges in submission order and
  // must end up with percentiles over the union of the samples.
  obs::MetricsRegistry Parent;
  obs::MetricsRegistry Jobs[2];
  std::thread Workers[2];
  for (int I = 0; I != 2; ++I)
    Workers[I] = std::thread([&Jobs, I] {
      obs::ScopedMetrics Scope(Jobs[I]);
      for (int S = 0; S != 5; ++S)
        obs::histogram("job_ms").observe(I * 10.0 + S);
    });
  for (std::thread &W : Workers)
    W.join();
  for (obs::MetricsRegistry &J : Jobs)
    Parent.mergeFrom(J);

  obs::Histogram::Snapshot S = Parent.histogram("job_ms").snapshot();
  EXPECT_EQ(S.Count, 10u);
  ASSERT_EQ(S.Samples.size(), 10u);
  // Samples 0..4 and 10..14: the median and tail straddle both jobs,
  // and are deterministic for the submission-order merge.
  EXPECT_DOUBLE_EQ(S.percentile(50), 4.0);
  EXPECT_DOUBLE_EQ(S.percentile(99), 14.0);
}

TEST(Metrics, MergeFromFoldsCountersGaugesHistograms) {
  obs::MetricsRegistry Parent, Job1, Job2;
  Parent.counter("c").inc(5);
  Job1.counter("c").inc(2);
  Job1.gauge("g").set(7);
  Job1.histogram("h").observe(1.0);
  Job2.counter("c").inc(3);
  Job2.counter("only2").inc(1);
  Job2.gauge("g").set(9);
  Job2.histogram("h").observe(5.0);

  Parent.mergeFrom(Job1);
  Parent.mergeFrom(Job2);

  // Counters add; gauges take the later (submission-order) value;
  // histograms fold their summaries; new instruments register.
  EXPECT_EQ(Parent.counterValue("c"), 10u);
  EXPECT_EQ(Parent.counterValue("only2"), 1u);
  EXPECT_EQ(Parent.gaugeValue("g"), 9);
  obs::Histogram::Snapshot S = Parent.histogram("h").snapshot();
  EXPECT_EQ(S.Count, 2u);
  EXPECT_DOUBLE_EQ(S.Sum, 6.0);

  // A zero gauge in a later job does not clobber the merged value.
  obs::MetricsRegistry Job3;
  Job3.gauge("g").set(0);
  Parent.mergeFrom(Job3);
  EXPECT_EQ(Parent.gaugeValue("g"), 9);

  // Self-merge is a no-op (no double counting, no deadlock).
  Parent.mergeFrom(Parent);
  EXPECT_EQ(Parent.counterValue("c"), 10u);
}

TEST(Metrics, EndToEndRepairIncrementsPipelineCounters) {
  obs::MetricsRegistry &Reg = obs::MetricsRegistry::global();
  const std::string PipelineCounters[] = {
      "frontend.parses",  "sema.runs",
      "interp.runs",      "interp.asyncs",
      "dpst.nodes",       "espbags.checks",
      "espbags.writes",
      "race.reports_raw", "race.pairs",
      "detect.runs",      "repair.iterations",
      "repair.finishes_inserted",
      "repair.groups",    "dp.runs",
      "dp.subproblems",
  };
  std::map<std::string, uint64_t> Before;
  for (const std::string &Name : PipelineCounters)
    Before[Name] = Reg.counterValue(Name);

  std::string Repaired;
  RepairResult R = repairSource(RacySource, Repaired);
  ASSERT_TRUE(R.Success) << R.Error;
  ASSERT_GT(R.Stats.FinishesInserted, 0u);

  for (const std::string &Name : PipelineCounters)
    EXPECT_GT(Reg.counterValue(Name), Before[Name])
        << Name << " did not move over an end-to-end repair";

  // RepairStats is derived from the registry: the driver's numbers and the
  // counter deltas must agree.
  EXPECT_EQ(Reg.counterValue("repair.iterations") -
                Before["repair.iterations"],
            R.Stats.Iterations);
  EXPECT_EQ(Reg.counterValue("repair.finishes_inserted") -
                Before["repair.finishes_inserted"],
            R.Stats.FinishesInserted);
  // The last detection run of a successful repair is race free, and its
  // gauges describe it.
  EXPECT_EQ(Reg.gaugeValue("detect.race_pairs"), 0);
  EXPECT_GT(Reg.gaugeValue("detect.dpst_nodes"), 0);

  // The global dump stays valid JSON with the whole pipeline registered.
  EXPECT_TRUE(JsonChecker(Reg.dumpJson()).valid());
  EXPECT_GE(Reg.size(), 15u);
}

TEST(Metrics, DisabledTracerStillCountsButBuffersNoEvents) {
  obs::Tracer::global().disable();
  obs::Tracer::global().clear();
  obs::MetricsRegistry &Reg = obs::MetricsRegistry::global();
  uint64_t DetectBefore = Reg.counterValue("detect.runs");

  std::string Repaired;
  RepairResult R = repairSource(RacySource, Repaired);
  ASSERT_TRUE(R.Success) << R.Error;

  // Counters moved (metrics are always on)...
  EXPECT_GT(Reg.counterValue("detect.runs"), DetectBefore);
  // ...but the disabled tracer recorded nothing.
  EXPECT_EQ(obs::Tracer::global().numEvents(), 0u);
}

TEST(Tracer, EndToEndRepairEmitsPhaseSpans) {
  TracingOn Guard;
  std::string Repaired;
  RepairResult R = repairSource(RacySource, Repaired);
  ASSERT_TRUE(R.Success) << R.Error;

  std::vector<obs::TraceEvent> Events = obs::Tracer::global().snapshot();
  auto Has = [&](const char *Name) {
    return std::any_of(Events.begin(), Events.end(),
                       [&](const obs::TraceEvent &E) { return E.Name == Name; });
  };
  EXPECT_TRUE(Has("parse"));
  EXPECT_TRUE(Has("sema"));
  EXPECT_TRUE(Has("detect"));
  EXPECT_TRUE(Has("interp.run"));
  EXPECT_TRUE(Has("repair"));
  EXPECT_TRUE(Has("placement"));
  EXPECT_TRUE(Has("dpst.group"));

  // Nesting: every detect span lies inside the repair span.
  auto RepairIt =
      std::find_if(Events.begin(), Events.end(),
                   [](const obs::TraceEvent &E) { return E.Name == "repair"; });
  ASSERT_NE(RepairIt, Events.end());
  for (const obs::TraceEvent &E : Events)
    if (E.Name == "detect") {
      EXPECT_GE(E.TsNs, RepairIt->TsNs);
      EXPECT_LE(E.TsNs + E.DurNs, RepairIt->TsNs + RepairIt->DurNs);
    }
}

} // namespace
