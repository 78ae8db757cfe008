//===- Metrics.h - Named counters, gauges, and histograms --------*- C++ -*-===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The metrics registry: named counters, gauges, and histograms the
/// pipeline increments at its hook points (S-DPST nodes built, ESP-bags
/// shadow checks, DP subproblems solved, batch jobs run, ...) and dumps as
/// one JSON object (`tdr ... --metrics-json m.json`).
///
/// Scoping contract: hook sites resolve instruments against the *current*
/// registry — a thread-local override installed by ScopedMetrics, falling
/// back to the process-wide global() instance. This is what makes the
/// pipeline re-entrant: a batch worker installs its own registry, runs a
/// full parse/detect/repair, and every metric of that run lands in the
/// job's registry instead of racing with the other workers' runs on
/// process-global counters. When no ScopedMetrics is active, everything
/// lands in global(), preserving the one-process-one-run behavior.
///
/// Because the current registry can change between runs, hook sites must
/// NOT cache instrument references in function-local statics. Cheap sites
/// look the instrument up per call:
///
/// \code
///   obs::counter("detect.runs").inc();
/// \endcode
///
/// Per-event hot paths (shadow checks, node creation) bind instruments
/// once per *object* at construction time and then touch a single relaxed
/// atomic per event — the object lives within one run, so the binding
/// inherits the right registry:
///
/// \code
///   Detector::Detector() : CChecks(&obs::counter("espbags.checks")) {}
///   ... CChecks->inc(); ...
/// \endcode
///
/// Counters and gauges are safe to update from any thread. Histograms take
/// a mutex and are meant for per-phase observations, not per-event hot
/// paths.
///
//===----------------------------------------------------------------------===//

#ifndef TDR_OBS_METRICS_H
#define TDR_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace tdr {
namespace obs {

/// Monotonically increasing event count.
class Counter {
public:
  void inc(uint64_t N = 1) { V.fetch_add(N, std::memory_order_relaxed); }
  uint64_t value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> V{0};
};

/// Last-written value (e.g. S-DPST nodes of the most recent detection run).
class Gauge {
public:
  void set(int64_t X) { V.store(X, std::memory_order_relaxed); }
  int64_t value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }

private:
  std::atomic<int64_t> V{0};
};

/// Count/sum/min/max summary of a stream of observations (per-phase wall
/// times and the like), plus a bounded sample reservoir for percentiles.
class Histogram {
public:
  /// Samples kept per histogram for percentile estimation. Past the cap,
  /// reservoir sampling (Vitter's Algorithm R) keeps every observation
  /// equally likely to be retained, driven by a deterministic LCG seeded
  /// from a fixed constant — no rand()/time seeding — so a given
  /// observation sequence always yields the same percentiles.
  static constexpr size_t MaxSamples = 1024;

  struct Snapshot {
    uint64_t Count = 0;
    double Sum = 0;
    double Min = 0;
    double Max = 0;
    std::vector<double> Samples;
    double mean() const { return Count ? Sum / static_cast<double>(Count) : 0; }
    /// Nearest-rank percentile over the retained samples (P in [0, 100]).
    /// Returns 0 when no samples were retained.
    double percentile(double P) const;
  };

  void observe(double X);
  /// Folds another histogram's summary into this one. While the combined
  /// sample sets fit the cap they append in call order; past the cap each
  /// side keeps an evenly-spaced subset sized proportionally to its
  /// observation count, so merging job registries in submission order
  /// keeps percentiles deterministic and representative of both sides.
  void merge(const Snapshot &Other);
  Snapshot snapshot() const;
  void reset();

private:
  mutable std::mutex M;
  Snapshot S;
  uint64_t Rng = 0x9e3779b97f4a7c15ull; ///< reservoir LCG state
};

/// Owns a set of named instruments. The process-wide global() instance is
/// the default sink; per-run instances are installed with ScopedMetrics
/// (batch repair gives every job its own) and folded back into a parent
/// with mergeFrom().
class MetricsRegistry {
public:
  /// The process-wide registry. Never destroyed.
  static MetricsRegistry &global();

  /// The registry hook sites resolve against: the innermost ScopedMetrics
  /// registry of the calling thread, or global() when none is active.
  static MetricsRegistry &current();

  /// Finds or registers an instrument. References stay valid for the
  /// lifetime of the registry.
  Counter &counter(std::string_view Name);
  Gauge &gauge(std::string_view Name);
  Histogram &histogram(std::string_view Name);

  /// Current value of a counter, or 0 when it was never registered.
  uint64_t counterValue(std::string_view Name) const;
  /// Current value of a gauge, or 0 when it was never registered.
  int64_t gaugeValue(std::string_view Name) const;

  /// Number of registered instruments (all kinds).
  size_t size() const;

  /// Zeroes every instrument, keeping registrations.
  void reset();

  /// Folds \p Other into this registry: counter values add, gauges take
  /// Other's value when it is nonzero (so merging in submission order
  /// keeps "last run" semantics deterministic), histograms merge their
  /// summaries. Instruments missing here are registered.
  void mergeFrom(const MetricsRegistry &Other);

  /// One JSON object, keys sorted: counters and gauges map to integers,
  /// histograms to {"count","sum","min","max","mean","p50","p95","p99"}
  /// objects.
  std::string dumpJson() const;
  /// Writes dumpJson() to \p Path. Returns false on I/O failure.
  bool writeJson(const std::string &Path) const;

private:
  friend class ScopedMetrics;

  /// The thread's override stack top (null = use global()). Returned so
  /// ScopedMetrics can restore the previous registry on destruction.
  static MetricsRegistry *exchangeCurrent(MetricsRegistry *R);

  mutable std::mutex M;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> Counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> Gauges;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> Histograms;
};

/// RAII: makes \p R the calling thread's current registry for the guard's
/// lifetime (nests; the previous registry is restored on destruction).
/// Other threads are unaffected — a registry is only "current" on threads
/// that installed it, so every batch worker scopes its own job.
class ScopedMetrics {
public:
  explicit ScopedMetrics(MetricsRegistry &R)
      : Prev(MetricsRegistry::exchangeCurrent(&R)) {}
  ~ScopedMetrics() { MetricsRegistry::exchangeCurrent(Prev); }

  ScopedMetrics(const ScopedMetrics &) = delete;
  ScopedMetrics &operator=(const ScopedMetrics &) = delete;

private:
  MetricsRegistry *Prev;
};

/// The process's peak resident set size in bytes (VmHWM in
/// /proc/self/status), or 0 where that file is unreadable.
int64_t peakRssBytes();

/// Shorthands against the current registry, for hook sites.
inline Counter &counter(std::string_view Name) {
  return MetricsRegistry::current().counter(Name);
}
inline Gauge &gauge(std::string_view Name) {
  return MetricsRegistry::current().gauge(Name);
}
inline Histogram &histogram(std::string_view Name) {
  return MetricsRegistry::current().histogram(Name);
}

} // namespace obs
} // namespace tdr

#endif // TDR_OBS_METRICS_H
