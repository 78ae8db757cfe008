#!/usr/bin/env python3
"""Runs the benchmark over several seeds and stores every result line.

    python3 perfbench/sweep.py --out results/parent --runs 10 --first-seed 1
    python3 perfbench/sweep.py --out results/parent --runs 2 --trace 1

Each run is one `perfbench/run.py` process. Its JSON result line is appended
to <out>/results.jsonl together with the workload, seed and trace flag, so
perfbench/compare.py can read one or two such directories; its whole output
goes to <out>/<workload>-seed<seed>-trace<flag>.txt. Workloads default
to every workload in BENCHMARK.json; run seconds come from BENCHMARK.json.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    os.makedirs(args.out, exist_ok=True)
    sink = os.path.join(args.out, "results.jsonl")
    for workload in args.workloads.split(","):
        if workload not in names:
            sys.exit("sweep: unknown workload " + workload)
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]),
                   "--trace", args.trace]
            start = time.time()
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  cwd=ROOT)
            log = "%s-seed%d-trace%s.txt" % (workload, seed, args.trace)
            with open(os.path.join(args.out, log), "w") as f:
                f.write(proc.stdout)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit("sweep: run failed: " + " ".join(cmd))
            result = json.loads(lines[-1])
            record = {"workload": workload, "seed": seed,
                      "trace": int(args.trace), "result": result}
            with open(sink, "a") as f:
                f.write(json.dumps(record) + "\n")
            print("%s seed %d trace %s: %.1f s, correct %s" %
                  (workload, seed, args.trace, time.time() - start,
                   result["correct"]), file=sys.stderr)


if __name__ == "__main__":
    main()
