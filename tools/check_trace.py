#!/usr/bin/env python3
"""Validate the tdr CLI's --trace / --metrics-json output.

Runs `tdr races <racy program> --trace ... --metrics-json ...` and checks
that the emitted trace is well-formed Chrome trace_event JSON (loadable in
chrome://tracing / Perfetto) and that the metrics dump is a flat JSON
object covering the pipeline, the runtime ledger (S-DPST bytes, array
heap, peak RSS) and the compact S-DPST's shape gauges. Span names are validated against
src/obs/Phases.def — the same registry the C++ hook points compile their
phase constants from — so the vocabulary lives in exactly one place. Also runs `tdr batch --jobs 2 --trace` and
checks the async ('b'/'e') per-job lane events: every begin has a matching
end with the same (name, cat, id), timestamps are ordered, and the merged
metrics carry a batch.job_ms histogram with percentile fields and a
non-zero repair.oracle_steps placement work counter. Invoked
from CTest (see tools/CMakeLists.txt) but also usable standalone:

    python3 tools/check_trace.py build/tools/tdr
"""

import json
import os
import re
import subprocess
import sys
import tempfile

RACY_PROGRAM = """\
func work(a: int[], i: int) {
  a[i] = a[i] + 1;
  a[0] = a[0] + i;
}

func main() {
  var n: int = arg(0);
  var a: int[] = new int[n + 1];
  for (var i: int = 1; i <= n; i = i + 1) {
    async work(a, i);
  }
  print(a[0]);
}
"""

# Every phase code the tracer is allowed to emit: complete spans,
# instants, and async begin/end pairs. Anything else is a schema break.
KNOWN_PHASES = {"X", "i", "b", "e"}

# src/obs/Phases.def is the single source of truth for span names: the
# C++ hook points compile their obs::phase:: constants from it and this
# checker parses the same file, so a new pipeline phase is one TDR_PHASE
# line — never a matching edit here.
PHASES_DEF = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "src", "obs",
    "Phases.def")
PHASE_RE = re.compile(
    r'TDR_PHASE\(\s*\w+\s*,\s*"([^"]+)"\s*,\s*"([^"]+)"\s*,\s*([01])\s*\)')


def load_phases():
    """Returns ({span name: category}, {required span names})."""
    spans, required = {}, set()
    with open(PHASES_DEF) as f:
        for line in f:
            m = PHASE_RE.search(line)
            if not m:
                continue
            spans[m.group(1)] = m.group(2)
            if m.group(3) == "1":
                required.add(m.group(1))
    return spans, required


# Span-name vocabulary and the spans every detection run must emit.
SPAN_CATS, REQUIRED_SPANS = load_phases()

# Histogram snapshots in metrics dumps carry these summary fields.
HISTOGRAM_FIELDS = {"count", "sum", "min", "max", "mean", "p50", "p95", "p99"}

MIN_METRICS = 8

FAILURES = []


def check(cond, msg):
    if not cond:
        FAILURES.append(msg)
    return cond


def validate_trace(path, min_async_lanes=0):
    """Returns the loaded trace events (or []) after schema checks."""
    with open(path) as f:
        doc = json.load(f)  # raises on malformed JSON -> test failure
    check(isinstance(doc, dict), "trace root must be a JSON object")
    events = doc.get("traceEvents")
    check(isinstance(events, list), "trace must have a traceEvents array")
    if not isinstance(events, list):
        return []
    check(len(events) > 0, "traceEvents must not be empty")
    names = set()
    open_async = {}  # (name, cat, id) -> begin ts
    lane_ids = set()
    for i, ev in enumerate(events):
        for field in ("name", "ph", "ts", "pid", "tid"):
            check(field in ev, f"event {i} missing required field '{field}'")
        ph = ev.get("ph")
        check(ph in KNOWN_PHASES,
              f"event {i} has unknown phase code {ph!r}")
        if ph == "X":
            check("dur" in ev, f"complete event {i} missing 'dur'")
            check(ev.get("dur", -1) >= 0, f"event {i} has negative dur")
            # Phase spans must come from the Phases.def registry, with the
            # category declared there (async lanes carry dynamic names,
            # e.g. batch's per-job "job:<file>", and are exempt).
            name = ev.get("name")
            if check(name in SPAN_CATS,
                     f"event {i}: span name {name!r} is not registered in "
                     f"src/obs/Phases.def"):
                check(ev.get("cat") == SPAN_CATS[name],
                      f"event {i}: span {name!r} has category "
                      f"{ev.get('cat')!r}, Phases.def says "
                      f"{SPAN_CATS[name]!r}")
        check(ev.get("ts", -1) >= 0, f"event {i} has negative ts")
        check(isinstance(ev.get("cat", ""), str), f"event {i} cat not a string")
        if ph in ("b", "e"):
            check("id" in ev, f"async event {i} missing 'id'")
            key = (ev.get("name"), ev.get("cat"), ev.get("id"))
            if ph == "b":
                check(key not in open_async,
                      f"event {i}: async lane {key} begun twice")
                open_async[key] = ev.get("ts", 0)
                lane_ids.add(ev.get("id"))
            else:
                begin_ts = open_async.pop(key, None)
                if check(begin_ts is not None,
                         f"event {i}: async end {key} without begin"):
                    check(ev.get("ts", -1) >= begin_ts,
                          f"event {i}: async end before its begin")
        names.add(ev.get("name"))
    check(not open_async,
          f"async begins without ends: {sorted(open_async)}")
    check(len(lane_ids) >= min_async_lanes,
          f"expected >= {min_async_lanes} distinct async lanes, "
          f"got {len(lane_ids)}")
    missing = REQUIRED_SPANS - names
    check(not missing, f"trace missing phase spans: {sorted(missing)}")
    return events


def validate_metrics(path):
    with open(path) as f:
        doc = json.load(f)
    check(isinstance(doc, dict), "metrics dump must be a JSON object")
    if not isinstance(doc, dict):
        return
    check(
        len(doc) >= MIN_METRICS,
        f"expected >= {MIN_METRICS} metrics, got {len(doc)}",
    )
    for key, value in doc.items():
        check(isinstance(key, str) and key, "metric names must be strings")
        ok = isinstance(value, (int, float)) or (
            isinstance(value, dict) and HISTOGRAM_FIELDS <= set(value)
        )
        check(ok, f"metric '{key}' is neither a number nor a histogram object")
    for name in ("dpst.nodes", "espbags.checks", "detect.runs"):
        check(name in doc, f"metrics dump missing '{name}'")
    # The runtime ledger: bytes the S-DPST of the last detection held, the
    # interpreter's array heap and the process's peak RSS.
    for name in ("dpst.bytes_used", "interp.heap_bytes", "proc.peak_rss_bytes"):
        check(doc.get(name, 0) > 0, f"metrics dump missing a non-zero '{name}'")
    # The compact S-DPST's shape. The racy program's asyncs are too small
    # to fold (a task folds only when that frees a whole node chunk), so
    # every node is kept.
    for name in ("dpst.nodes_kept", "dpst.tasks_collapsed"):
        check(name in doc, f"metrics dump missing '{name}'")
    check(0 < doc.get("dpst.nodes_kept", 0) <= doc.get("detect.dpst_nodes", 0),
          "'dpst.nodes_kept' must be in (0, detect.dpst_nodes]")


def main():
    if len(sys.argv) != 2:
        print(f"usage: {sys.argv[0]} <path-to-tdr-binary>", file=sys.stderr)
        return 2
    tdr = sys.argv[1]

    with tempfile.TemporaryDirectory(prefix="tdr-check-trace-") as tmp:
        prog = os.path.join(tmp, "racy.hj")
        trace = os.path.join(tmp, "trace.json")
        metrics = os.path.join(tmp, "metrics.json")
        with open(prog, "w") as f:
            f.write(RACY_PROGRAM)

        cmd = [
            tdr, "races", prog, "--arg", "6",
            "--trace", trace, "--metrics-json", metrics,
        ]
        result = subprocess.run(cmd, capture_output=True, text=True)
        # `tdr races` exits 1 when races are found -- that is the expected
        # outcome on a racy input; anything else is a tool failure.
        check(
            result.returncode in (0, 1),
            f"tdr races exited {result.returncode}: {result.stderr.strip()}",
        )
        check(os.path.exists(trace), "--trace produced no file")
        check(os.path.exists(metrics), "--metrics-json produced no file")

        if os.path.exists(trace):
            validate_trace(trace)
        if os.path.exists(metrics):
            validate_metrics(metrics)

        # Batch run: the per-job async lanes ('b'/'e' keyed by job index)
        # and the merged batch.job_ms latency histogram.
        manifest = os.path.join(tmp, "manifest.txt")
        with open(manifest, "w") as f:
            f.write(f"{prog} 4\n{prog} 6\n")
        btrace = os.path.join(tmp, "batch-trace.json")
        bmetrics = os.path.join(tmp, "batch-metrics.json")
        result = subprocess.run(
            [tdr, "batch", manifest, "--jobs", "2",
             "--trace", btrace, "--metrics-json", bmetrics, "-o", tmp],
            capture_output=True, text=True)
        check(
            result.returncode == 0,
            f"tdr batch exited {result.returncode}: {result.stderr.strip()}",
        )
        check(os.path.exists(btrace), "batch --trace produced no file")
        check(os.path.exists(bmetrics), "batch --metrics-json produced no file")
        if os.path.exists(btrace):
            events = validate_trace(btrace, min_async_lanes=2)
            job_lanes = [ev for ev in events
                         if ev.get("ph") == "b" and ev.get("cat") == "batch"]
            check(len(job_lanes) == 2,
                  f"expected one 'b' lane per batch job, got {len(job_lanes)}")
        if os.path.exists(bmetrics):
            with open(bmetrics) as f:
                bdoc = json.load(f)
            # The batch repairs, so the placement work counter (children
            # and races the validity oracle and liveness scan visit) is set.
            check(bdoc.get("repair.oracle_steps", 0) > 0,
                  "batch metrics missing a non-zero 'repair.oracle_steps'")
            hist = bdoc.get("batch.job_ms")
            if check(isinstance(hist, dict),
                     "batch metrics missing batch.job_ms histogram"):
                missing = HISTOGRAM_FIELDS - set(hist)
                check(not missing,
                      f"batch.job_ms missing fields: {sorted(missing)}")
                check(hist.get("count") == 2,
                      f"batch.job_ms count: expected 2, got "
                      f"{hist.get('count')}")

    if FAILURES:
        for msg in FAILURES:
            print(f"check_trace: FAIL: {msg}", file=sys.stderr)
        return 1
    print("check_trace: OK (trace schema and metrics dump are valid)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
