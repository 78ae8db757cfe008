#!/usr/bin/env python3
"""Validate `tdr fuzz` output against the tdr-fuzz-summary schema.

Runs a small seeded fuzz batch and checks the emitted summary JSON:
schema/version header, run accounting (requested = run + skipped),
differential-run counters, the findings array shape, the embedded obs
counter registry, and the trophy files written for findings. Also checks
the CLI contract: exit 0 on a clean run, exit 2 on malformed flags, and
determinism of the accounting across --jobs. Invoked from CTest (see
tools/CMakeLists.txt) but also usable standalone:

    python3 tools/check_fuzz.py build/tools/tdr
"""

import json
import os
import subprocess
import sys
import tempfile

SCHEMA = "tdr-fuzz-summary"
VERSION = 1
KINDS = {"parse-error", "exec-error", "backend-mismatch", "replay-divergence",
         "repair-disagree", "repair-not-converged"}
PROFILES = {"default", "constructs", "sparse"}

FAILURES = []


def check(cond, msg):
    if not cond:
        FAILURES.append(msg)
    return cond


def run(cmd):
    env = dict(os.environ)
    # The oracle picks its detection legs itself; a leaking differential
    # env var must not change what it runs.
    env.pop("TDR_BACKEND_CHECK", None)
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def load_summary(path, label):
    if not check(os.path.exists(path), f"{label}: no summary file written"):
        return None
    with open(path) as f:
        doc = json.load(f)  # raises on malformed JSON -> test failure
    check(doc.get("schema") == SCHEMA, f"{label}: bad schema name")
    check(doc.get("version") == VERSION, f"{label}: bad schema version")
    for key in ("seed", "jobs", "programs_requested", "programs_run",
                "programs_skipped", "detect_runs", "replay_runs",
                "repair_runs"):
        check(isinstance(doc.get(key), int) and doc[key] >= 0,
              f"{label}: {key} must be a non-negative int")
    for key in ("reduce", "check_repair"):
        check(doc.get(key) in (True, False), f"{label}: {key} must be a bool")
    check(isinstance(doc.get("wall_sec"), (int, float))
          and doc["wall_sec"] >= 0, f"{label}: wall_sec")
    check(isinstance(doc.get("trophy_dir"), str) and doc["trophy_dir"],
          f"{label}: trophy_dir")
    check(doc.get("programs_requested")
          == doc.get("programs_run") + doc.get("programs_skipped"),
          f"{label}: requested != run + skipped")
    check(doc.get("detect_runs", 0) > 0,
          f"{label}: a non-empty run must perform detections")
    check(doc.get("replay_runs", 0) > 0,
          f"{label}: a non-empty run must perform replays")

    findings = doc.get("findings")
    if check(isinstance(findings, list), f"{label}: findings must be a list"):
        for i, f_ in enumerate(findings):
            flabel = f"{label}: findings[{i}]"
            check(isinstance(f_.get("program"), int), f"{flabel}: program")
            check(isinstance(f_.get("seed"), int), f"{flabel}: seed")
            check(f_.get("profile") in PROFILES,
                  f"{flabel}: profile {f_.get('profile')!r}")
            check(f_.get("kind") in KINDS, f"{flabel}: kind {f_.get('kind')!r}")
            check(isinstance(f_.get("config"), str), f"{flabel}: config")
            check(isinstance(f_.get("detail"), str), f"{flabel}: detail")
            check(isinstance(f_.get("finding_count"), int)
                  and f_["finding_count"] >= 1, f"{flabel}: finding_count")
            for key in ("reduced", "minimal"):
                check(f_.get(key) in (True, False), f"{flabel}: {key}")
            for key in ("reduce_tests", "source_lines"):
                check(isinstance(f_.get(key), int) and f_[key] >= 0,
                      f"{flabel}: {key}")
            check(isinstance(f_.get("trophy"), str), f"{flabel}: trophy")

    counters = doc.get("counters")
    if check(isinstance(counters, dict), f"{label}: counters must be an "
                                         "object"):
        check(counters.get("fuzz.programs") == doc.get("programs_run"),
              f"{label}: counters[fuzz.programs] != programs_run")
        check(counters.get("detect.runs", 0) > 0,
              f"{label}: counters missing detect.runs")
    return doc


def main():
    if len(sys.argv) != 2:
        print(f"usage: {sys.argv[0]} <path-to-tdr-binary>", file=sys.stderr)
        return 2
    tdr = sys.argv[1]

    with tempfile.TemporaryDirectory(prefix="tdr-check-fuzz-") as tmp:
        summary = os.path.join(tmp, "fuzz-summary.json")
        trophies = os.path.join(tmp, "trophies")

        # -- clean seeded run --------------------------------------------
        res = run([tdr, "fuzz", "--programs", "24", "--jobs", "2",
                   "--seed", "7", "--summary", summary,
                   "--trophy-dir", trophies])
        check(res.returncode == 0,
              f"fuzz: expected exit 0 (clean), got {res.returncode}: "
              f"{res.stderr.strip()}")
        doc = load_summary(summary, "fuzz")
        if doc is not None:
            check(doc["programs_requested"] == 24, "fuzz: programs_requested")
            check(doc["programs_run"] == 24, "fuzz: programs_run")
            check(doc["seed"] == 7, "fuzz: seed echo")
            check(doc["jobs"] == 2, "fuzz: jobs echo")
            check(doc["findings"] == [],
                  f"fuzz: expected a clean tree, got {doc['findings']}")
            check(not os.path.isdir(trophies) or not os.listdir(trophies),
                  "fuzz: clean run wrote trophies")

        # -- determinism: accounting is --jobs-independent ----------------
        summary1 = os.path.join(tmp, "fuzz-j1.json")
        res = run([tdr, "fuzz", "--programs", "24", "--jobs", "1",
                   "--seed", "7", "--summary", summary1,
                   "--trophy-dir", trophies])
        check(res.returncode == 0, "fuzz -j1: expected exit 0")
        doc1 = load_summary(summary1, "fuzz -j1")
        if doc is not None and doc1 is not None:
            for key in ("programs_run", "detect_runs", "replay_runs",
                        "repair_runs", "findings"):
                check(doc[key] == doc1[key],
                      f"fuzz: {key} differs between --jobs 1 and --jobs 2")

        # -- summary to stdout when --summary is omitted ------------------
        res = run([tdr, "fuzz", "--programs", "4", "--seed", "3",
                   "--trophy-dir", trophies])
        check(res.returncode == 0, "fuzz stdout: expected exit 0")
        try:
            doc = json.loads(res.stdout)
            check(doc.get("schema") == SCHEMA, "fuzz stdout: bad schema")
        except json.JSONDecodeError as e:
            check(False, f"fuzz stdout: not JSON: {e}")

        # -- flag validation: exit 2 on garbage ---------------------------
        for flags in (["--programs", "0"], ["--programs", "nope"],
                      ["--seed", "-3"], ["--time-budget", "0"],
                      ["--jobs", "zero"], ["extra-operand"]):
            res = run([tdr, "fuzz"] + flags)
            check(res.returncode == 2,
                  f"fuzz {' '.join(flags)}: expected exit 2, "
                  f"got {res.returncode}")

    if FAILURES:
        for msg in FAILURES:
            print(f"check_fuzz: FAIL: {msg}", file=sys.stderr)
        return 1
    print("check_fuzz: OK (fuzz-summary schema valid, clean seeded run, "
          "accounting --jobs-independent)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
