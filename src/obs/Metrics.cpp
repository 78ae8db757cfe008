//===- Metrics.cpp --------------------------------------------------------===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

using namespace tdr;
using namespace tdr::obs;

double Histogram::Snapshot::percentile(double P) const {
  if (Samples.empty())
    return 0;
  std::vector<double> Sorted(Samples);
  std::sort(Sorted.begin(), Sorted.end());
  P = std::min(std::max(P, 0.0), 100.0);
  // Nearest rank: ceil(P/100 * N), 1-based; P=0 maps to the minimum.
  size_t Rank = static_cast<size_t>(
      std::ceil(P / 100.0 * static_cast<double>(Sorted.size())));
  if (Rank == 0)
    Rank = 1;
  return Sorted[Rank - 1];
}

namespace {

/// Knuth's MMIX LCG; the high bits are the usable ones.
uint64_t lcgNext(uint64_t &State) {
  State = State * 6364136223846793005ull + 1442695040888963407ull;
  return State >> 33;
}

/// Keeps \p Keep evenly-spaced elements of \p In (deterministic thinning
/// for count-proportional merges).
void appendSpaced(std::vector<double> &Out, const std::vector<double> &In,
                  size_t Keep) {
  if (Keep >= In.size()) {
    Out.insert(Out.end(), In.begin(), In.end());
    return;
  }
  for (size_t I = 0; I != Keep; ++I)
    Out.push_back(In[I * In.size() / Keep]);
}

} // namespace

void Histogram::observe(double X) {
  std::lock_guard<std::mutex> Lock(M);
  if (S.Count == 0) {
    S.Min = S.Max = X;
  } else {
    S.Min = std::min(S.Min, X);
    S.Max = std::max(S.Max, X);
  }
  ++S.Count;
  S.Sum += X;
  // Algorithm R: the i-th observation replaces a random reservoir slot
  // with probability MaxSamples/i, so every observation so far is equally
  // likely to be retained. The LCG advances once per overflowing
  // observation, making the kept set a pure function of the sequence.
  if (S.Samples.size() < MaxSamples) {
    S.Samples.push_back(X);
  } else {
    uint64_t J = lcgNext(Rng) % S.Count;
    if (J < MaxSamples)
      S.Samples[J] = X;
  }
}

void Histogram::merge(const Snapshot &Other) {
  if (Other.Count == 0)
    return;
  std::lock_guard<std::mutex> Lock(M);
  if (S.Count == 0) {
    S = Other;
    if (S.Samples.size() > MaxSamples)
      S.Samples.resize(MaxSamples);
    return;
  }
  S.Min = std::min(S.Min, Other.Min);
  S.Max = std::max(S.Max, Other.Max);
  uint64_t SelfCount = S.Count;
  S.Count += Other.Count;
  S.Sum += Other.Sum;
  if (S.Samples.size() + Other.Samples.size() <= MaxSamples) {
    // Everything fits: keep plain append-in-call-order determinism.
    S.Samples.insert(S.Samples.end(), Other.Samples.begin(),
                     Other.Samples.end());
    return;
  }
  // Over the cap: each side contributes samples proportionally to its
  // observation count (not its sample count), so a long-running job is
  // not drowned out by whichever snapshot merged first.
  size_t KeepSelf = static_cast<size_t>(
      static_cast<double>(MaxSamples) * static_cast<double>(SelfCount) /
      static_cast<double>(S.Count));
  if (KeepSelf > S.Samples.size())
    KeepSelf = S.Samples.size();
  size_t KeepOther = MaxSamples - KeepSelf;
  if (KeepOther > Other.Samples.size()) {
    KeepOther = Other.Samples.size();
    KeepSelf = std::min(S.Samples.size(), MaxSamples - KeepOther);
  }
  std::vector<double> Merged;
  Merged.reserve(KeepSelf + KeepOther);
  appendSpaced(Merged, S.Samples, KeepSelf);
  appendSpaced(Merged, Other.Samples, KeepOther);
  S.Samples = std::move(Merged);
}

Histogram::Snapshot Histogram::snapshot() const {
  std::lock_guard<std::mutex> Lock(M);
  return S;
}

void Histogram::reset() {
  std::lock_guard<std::mutex> Lock(M);
  S = Snapshot();
  Rng = 0x9e3779b97f4a7c15ull;
}

MetricsRegistry &MetricsRegistry::global() {
  // Leaked on purpose: hook sites cache references and atexit-registered
  // trace flushes may dump metrics after static destruction began.
  static MetricsRegistry *R = new MetricsRegistry();
  return *R;
}

namespace {
/// The innermost ScopedMetrics registry of this thread (null = global()).
thread_local MetricsRegistry *CurrentRegistry = nullptr;
} // namespace

MetricsRegistry &MetricsRegistry::current() {
  return CurrentRegistry ? *CurrentRegistry : global();
}

MetricsRegistry *MetricsRegistry::exchangeCurrent(MetricsRegistry *R) {
  MetricsRegistry *Prev = CurrentRegistry;
  CurrentRegistry = R;
  return Prev;
}

Counter &MetricsRegistry::counter(std::string_view Name) {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Counters.find(Name);
  if (It == Counters.end())
    It = Counters.emplace(std::string(Name), std::make_unique<Counter>())
             .first;
  return *It->second;
}

Gauge &MetricsRegistry::gauge(std::string_view Name) {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Gauges.find(Name);
  if (It == Gauges.end())
    It = Gauges.emplace(std::string(Name), std::make_unique<Gauge>()).first;
  return *It->second;
}

Histogram &MetricsRegistry::histogram(std::string_view Name) {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Histograms.find(Name);
  if (It == Histograms.end())
    It = Histograms.emplace(std::string(Name), std::make_unique<Histogram>())
             .first;
  return *It->second;
}

uint64_t MetricsRegistry::counterValue(std::string_view Name) const {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Counters.find(Name);
  return It == Counters.end() ? 0 : It->second->value();
}

int64_t MetricsRegistry::gaugeValue(std::string_view Name) const {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Gauges.find(Name);
  return It == Gauges.end() ? 0 : It->second->value();
}

size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> Lock(M);
  return Counters.size() + Gauges.size() + Histograms.size();
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> Lock(M);
  for (auto &[Name, C] : Counters)
    C->reset();
  for (auto &[Name, G] : Gauges)
    G->reset();
  for (auto &[Name, H] : Histograms)
    H->reset();
}

void MetricsRegistry::mergeFrom(const MetricsRegistry &Other) {
  if (&Other == this)
    return;
  // counter()/gauge()/histogram() lock this->M per lookup, so only hold
  // Other's mutex here (consistent order: the source registry is a
  // completed job no hook site touches anymore).
  std::lock_guard<std::mutex> Lock(Other.M);
  for (const auto &[Name, C] : Other.Counters)
    if (uint64_t V = C->value())
      counter(Name).inc(V);
  for (const auto &[Name, G] : Other.Gauges)
    if (int64_t V = G->value())
      gauge(Name).set(V);
  for (const auto &[Name, H] : Other.Histograms)
    histogram(Name).merge(H->snapshot());
}

namespace {

void appendJsonString(std::string &Out, std::string_view S) {
  Out += '"';
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  Out += '"';
}

void appendJsonDouble(std::string &Out, double X) {
  if (!std::isfinite(X)) {
    Out += "0";
    return;
  }
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6g", X);
  Out += Buf;
}

} // namespace

std::string MetricsRegistry::dumpJson() const {
  std::lock_guard<std::mutex> Lock(M);
  // Merge all kinds into one sorted key space (names are disjoint by
  // convention: counters/gauges/histograms never share a name).
  std::map<std::string_view, std::string> Entries;
  for (const auto &[Name, C] : Counters)
    Entries[Name] = std::to_string(C->value());
  for (const auto &[Name, G] : Gauges)
    Entries[Name] = std::to_string(G->value());
  for (const auto &[Name, H] : Histograms) {
    Histogram::Snapshot S = H->snapshot();
    std::string V = "{\"count\":" + std::to_string(S.Count) + ",\"sum\":";
    appendJsonDouble(V, S.Sum);
    V += ",\"min\":";
    appendJsonDouble(V, S.Min);
    V += ",\"max\":";
    appendJsonDouble(V, S.Max);
    V += ",\"mean\":";
    appendJsonDouble(V, S.mean());
    V += ",\"p50\":";
    appendJsonDouble(V, S.percentile(50));
    V += ",\"p95\":";
    appendJsonDouble(V, S.percentile(95));
    V += ",\"p99\":";
    appendJsonDouble(V, S.percentile(99));
    V += "}";
    Entries[Name] = std::move(V);
  }

  std::string Out = "{";
  bool First = true;
  for (const auto &[Name, Value] : Entries) {
    if (!First)
      Out += ",";
    First = false;
    Out += "\n  ";
    appendJsonString(Out, Name);
    Out += ": ";
    Out += Value;
  }
  Out += "\n}\n";
  return Out;
}

int64_t obs::peakRssBytes() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtoll(Line.c_str() + 6, nullptr, 10) * 1024; // kB
  return 0;
}

bool MetricsRegistry::writeJson(const std::string &Path) const {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << dumpJson();
  return static_cast<bool>(Out);
}
