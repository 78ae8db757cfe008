#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale (two small programs per run).

    python3 perfbench/selftest.py

Checks that:
  * every end-to-end metric (untraced) and every per-layer metric (traced)
    of BENCHMARK.json appears with its unit, and the traced run reports
    every per-layer metric for every job;
  * layers.json maps every per-layer metric onto existing end-to-end
    metrics and workloads;
  * an injected wrong reference is counted as a failed job, not passed;
  * traced spans nest, and each job's span self-times sum to no more than
    the job's traced wall time;
  * an inherited TDR_* variable and a bad argument make the benchmark exit
    non-zero without a result line.
Exits non-zero on the first failed check.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

TINY = ["--only", "Sparse,Quicksort", "--seconds", "0.2"]
SPANS = os.path.join(ROOT, ".bench_build", "selftest-spans.json")


def fail(msg):
    sys.exit("selftest: FAILED: " + msg)


def bench(args, env=None):
    proc = subprocess.run([run.BINARY] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=env)
    return proc.returncode, proc.stdout.strip().splitlines()


def result(args):
    code, lines = bench(args)
    if code != 0 or not lines:
        fail("%s exited %d" % (" ".join(args), code))
    return json.loads(lines[-1]), lines


def check_metrics(res, wanted, what):
    got = res["metrics"]
    if set(got) != {m["name"] for m in wanted}:
        fail("%s metrics %s, want %s" % (what, sorted(got),
                                          sorted(m["name"] for m in wanted)))
    for m in wanted:
        if got[m["name"]]["unit"] != m["unit"]:
            fail("%s: %s has unit %s, want %s" % (
                what, m["name"], got[m["name"]]["unit"], m["unit"]))


def check_spans(path):
    spans = json.load(open(path))
    children = {}
    for i, s in enumerate(spans):
        if s["end_ns"] < s["start_ns"]:
            fail("span %d ends before it starts" % i)
        p = s["parent"]
        if p < 0:
            if s["name"] != "job":
                fail("top-level span %d is %s, not a job" % (i, s["name"]))
            continue
        parent = spans[p]
        if parent["job"] != s["job"] or not (
                parent["start_ns"] <= s["start_ns"] and
                s["end_ns"] <= parent["end_ns"]):
            fail("span %d (%s) is not inside its parent %d" % (
                i, s["name"], p))
        children.setdefault(p, []).append(i)

    def dur(i):
        return spans[i]["end_ns"] - spans[i]["start_ns"]

    def self_sum(i):  # self times of i's descendants
        total = 0
        for c in children.get(i, []):
            total += dur(c) - sum(dur(g) for g in children.get(c, []))
            total += self_sum(c)
        return total

    jobs = [i for i, s in enumerate(spans) if s["parent"] < 0]
    if not jobs:
        fail("no job spans")
    for j in jobs:
        if self_sum(j) > dur(j):
            fail("job %s: layer self-times exceed its wall time" %
                 spans[j]["job"])
    return len(jobs)


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    run.build()
    e2e, per_layer = spec["end_to_end"], spec["per_layer"]
    layer_names = {m["name"] for m in per_layer}

    layers = json.load(open(os.path.join(HERE, "layers.json")))["layers"]
    if [l["metric"] for l in layers] != [m["name"] for m in per_layer]:
        fail("layers.json does not list the per-layer metrics in order")
    workloads = {w["name"] for w in spec["workloads"]}
    for l in layers:
        for mv in l["moves"]:
            if mv["metric"] not in {m["name"] for m in e2e} or \
                    mv["workload"] not in workloads:
                fail("layers.json: %s moves unknown %s" % (l["metric"], mv))
        if l["bypass"] is not None and l["bypass"] not in workloads:
            fail("layers.json: %s bypasses unknown %s" % (l["metric"],
                                                          l["bypass"]))

    for w in sorted(workloads):
        args = ["--workload", w, "--seed", "3"] + TINY
        res, _ = result(args + ["--trace", "0"])
        if not res["correct"] or res["failed"] or res["attempted"] < 2:
            fail("%s: untraced run not correct: %s" % (w, res))
        check_metrics(res, e2e, w + " untraced")
        for name, m in res["metrics"].items():
            if not m["value"] > 0:
                fail("%s: %s is %r" % (w, name, m["value"]))

        res, lines = result(args + ["--trace", "1", "--spans", SPANS])
        if not res["correct"]:
            fail("%s: traced run not correct" % w)
        check_metrics(res, per_layer, w + " traced")
        per_job = [json.loads(l) for l in lines if l.startswith('{"job"')]
        if len(per_job) != 2:
            fail("%s: %d per-job lines, want 2" % (w, len(per_job)))
        for job in per_job:
            if set(job["metrics"]) != layer_names:
                fail("%s: job %s lacks per-layer metrics" % (w, job["job"]))
        jobs = check_spans(SPANS)
        if jobs < 2 or jobs % 2:
            fail("%s: %d job spans, want whole passes of 2" % (w, jobs))

        for trace in ("0", "1"):
            res, _ = result(args + ["--trace", trace, "--corrupt-reference"])
            if res["correct"] or res["failed"] < 1:
                fail("%s trace %s: a wrong reference passed" % (w, trace))

    for var in ("TDR_BACKEND", "TDR_TRACE"):
        env = dict(os.environ, **{var: "x"})
        code, lines = bench(["--workload", "races-perf"] + TINY, env)
        if code == 0 or any(l.startswith("{") for l in lines):
            fail("ran with %s set" % var)
    for bad in (["--workload", "nope"], ["--workload", "races-perf",
                                         "--trace", "2"], []):
        code, lines = bench(bad)
        if code == 0 or lines:
            fail("accepted bad arguments %s" % bad)
    os.remove(SPANS)
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
