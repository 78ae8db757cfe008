#!/usr/bin/env python3
"""Validate the BENCH_*.json benchmark report schema and gate speedups.

Runs `<bench-binary> --quick --out ...` and checks the emitted report
follows the shared machine-readable layout (see bench/BenchUtil.h):

    { "bench": "<name>", "schema_version": 1, "results": [ {...}, ... ] }

with every result row carrying the fields perf tooling diffs across runs.
The expected report name and row schema are selected by the binary's
basename (bench_detector -> "detector", bench_shadow -> "shadow").
Invoked from CTest (see tools/CMakeLists.txt) but also usable standalone:

    python3 tools/check_bench.py build/bench/bench_detector
    python3 tools/check_bench.py build/bench/bench_shadow

Regression gates: each `--min-speedup KEY:X` requires the BEST speedup
among result rows whose name contains KEY to be at least X (best-of so a
single noisy window cannot flake CI; a real regression drags every row
down). The speedup field is per-bench: detector rows carry
`speedup_vs_map`, shadow rows `speedup_vs_base`. CI uses this to fail
perf regressions outright:

    python3 tools/check_bench.py build/bench/bench_detector \\
        --min-speedup racy:1.25

Footprint gates mirror the speedup gates on the memory axis: each
`--max-bytes-ratio KEY:X` requires the BEST (smallest) bytes ratio among
matching rows to be at most X. Only benches whose rows carry a bytes
ratio field support it (shadow rows: `bytes_ratio_vs_base`, the peak
footprint relative to the family's baseline implementation):

    python3 tools/check_bench.py build/bench/bench_shadow \\
        --min-speedup hot-dense:0.9 \\
        --max-bytes-ratio sparse-giant:0.1
"""

import json
import os
import subprocess
import sys
import tempfile

FAILURES = []


def check(cond, msg):
    if not cond:
        FAILURES.append(msg)


def validate_detector_rows(results):
    impls = set()
    modes = set()
    for i, row in enumerate(results):
        impls.add(row["impl"])
        modes.add(row["mode"])
        check(row["accesses_per_sec"] > 0, f"result {i} has non-positive rate")
        check(row["seconds"] > 0, f"result {i} has non-positive duration")
        check(row["total_accesses"] > 0, f"result {i} recorded no accesses")
        if row["impl"] != "map":
            check(
                row.get("speedup_vs_map", 0) > 0,
                f"result {i} ({row['name']}) missing speedup_vs_map",
            )
        # Racy rows: every sink step (readers) records one pair per
        # parallel writer (write_steps), and the writers race pairwise;
        # each pair is seen once per location. The main sweep is race-free.
        racy = "/racy/" in row["name"]
        w = row["write_steps"]
        want_pairs = row["readers"] * w + w * (w - 1) // 2 if racy else 0
        check(
            row["race_pairs"] == want_pairs,
            f"result {i} ({row['name']}) has {row['race_pairs']} race pairs, "
            f"expected {want_pairs}",
        )
        check(
            row["race_reports"] == want_pairs * row["locs"],
            f"result {i} ({row['name']}) has {row['race_reports']} race "
            f"reports, expected {want_pairs * row['locs']}",
        )

    # The report's whole point is the before/after comparison: both the
    # frozen map baseline and the flat fast path must be present, for both
    # detector variants.
    check("map" in impls, "no 'map' baseline rows in report")
    check("flat" in impls, "no 'flat' fast-path rows in report")
    check({"SRW", "MRW"} <= modes, f"expected SRW and MRW rows, got {sorted(modes)}")


def validate_constructs_rows(results):
    programs = set()
    masks = set()
    for i, row in enumerate(results):
        programs.add(row["program"])
        masks.add(row["constructs"])
        inserted = row["finishes"] + row["forces"] + row["isolated"]
        check(inserted > 0, f"result {i} ({row['name']}) inserted no repairs")
        check(row["cost_chosen"] > 0, f"result {i} has no modeled cost")
        # The chooser only deviates from finish when strictly cheaper, so
        # the chosen plan can never model worse than the pure-finish plan.
        check(
            row["cost_chosen"] <= row["cost_all_finish"],
            f"result {i} ({row['name']}) chose a costlier-than-finish plan",
        )
        check(
            row["cost_gain_vs_finish"] > 0,
            f"result {i} ({row['name']}) missing cost_gain_vs_finish",
        )
        if row["constructs"] == "finish":
            check(
                row["forces"] == 0 and row["isolated"] == 0,
                f"result {i} ({row['name']}) used a construct the finish-only "
                "allowlist forbids",
            )
        if row["constructs"] != "all":
            check(
                row["isolated"] == 0,
                f"result {i} ({row['name']}) inserted isolated without opt-in",
            )

    # The comparison needs every suite program under every allowlist.
    expected_masks = {"finish", "default", "all"}
    check(
        expected_masks <= masks,
        f"expected allowlists {sorted(expected_masks)}, got {sorted(masks)}",
    )
    expected_programs = {"FuturePipeline", "IsolatedAccum", "ForasyncStencil"}
    check(
        expected_programs <= programs,
        f"expected programs {sorted(expected_programs)}, got {sorted(programs)}",
    )


def validate_shadow_rows(results):
    impls = set()
    families = set()
    for i, row in enumerate(results):
        impls.add(row["impl"])
        families.add(row["family"])
        check(row["accesses_per_sec"] > 0, f"result {i} has non-positive rate")
        check(row["seconds"] > 0, f"result {i} has non-positive duration")
        check(row["total_accesses"] > 0, f"result {i} recorded no accesses")
        check(row["bytes_peak"] > 0, f"result {i} recorded no footprint")
        if row["impl"] != "dense":
            check(
                row.get("speedup_vs_base", 0) > 0,
                f"result {i} ({row['name']}) missing speedup_vs_base",
            )
            check(
                row.get("bytes_ratio_vs_base", 0) > 0,
                f"result {i} ({row['name']}) missing bytes_ratio_vs_base",
            )

    # The report's point is the two-level-vs-dense comparison over every
    # access shape.
    check("dense" in impls, "no 'dense' baseline rows in report")
    check("sparse" in impls, "no 'sparse' rows in report")
    expected = {"sparse-giant", "hot-dense", "random-stride"}
    check(
        expected <= families,
        f"expected families {sorted(expected)}, got {sorted(families)}",
    )


def validate_fuzz_rows(results):
    families = set()
    profiles = set()
    farm_jobs = set()
    for i, row in enumerate(results):
        families.add(row["family"])
        check(row["programs"] > 0, f"result {i} checked no programs")
        check(row["seconds"] > 0, f"result {i} has non-positive duration")
        check(
            row["programs_per_sec"] > 0, f"result {i} has non-positive rate"
        )
        check(row["detect_runs"] > 0, f"result {i} performed no detections")
        check(row["findings"] >= 0, f"result {i} has negative findings")
        check(row["jobs"] >= 1, f"result {i} ran with no workers")
        if row["family"] == "oracle":
            profiles.add(row["profile"])
        elif row["family"] == "farm":
            farm_jobs.add(row["jobs"])
            check(
                row.get("speedup_vs_1job", 0) > 0,
                f"result {i} ({row['name']}) missing speedup_vs_1job",
            )

    # The report's point is the per-profile oracle cost plus the farm's
    # worker scaling off the 1-job baseline.
    check("oracle" in families, "no 'oracle' rows in report")
    check("farm" in families, "no 'farm' rows in report")
    expected = {"default", "constructs", "sparse"}
    check(
        expected <= profiles,
        f"expected oracle profiles {sorted(expected)}, got {sorted(profiles)}",
    )
    check(1 in farm_jobs, "no 1-job farm baseline row in report")


# Per-report row schema, semantic checks, the field --min-speedup gates
# on, and the field --max-bytes-ratio gates on (None when the bench
# reports no footprint ratio), keyed by the report name the bench binary
# declares (and its basename implies).
BENCHES = {
    "detector": (
        {
            "name",
            "mode",
            "impl",
            "locs",
            "readers",
            "write_steps",
            "total_accesses",
            "seconds",
            "accesses_per_sec",
            "race_reports",
            "race_pairs",
        },
        validate_detector_rows,
        "speedup_vs_map",
        None,
    ),
    "constructs": (
        {
            "name",
            "program",
            "constructs",
            "mode",
            "finishes",
            "forces",
            "isolated",
            "iterations",
            "cost_before",
            "cost_chosen",
            "cost_all_finish",
            "cost_gain_vs_finish",
            "repair_ms",
        },
        validate_constructs_rows,
        "cost_gain_vs_finish",
        None,
    ),
    "shadow": (
        {
            "name",
            "family",
            "impl",
            "locs",
            "total_accesses",
            "seconds",
            "accesses_per_sec",
            "bytes_peak",
        },
        validate_shadow_rows,
        "speedup_vs_base",
        "bytes_ratio_vs_base",
    ),
    "fuzz": (
        {
            "name",
            "family",
            "profile",
            "jobs",
            "programs",
            "seconds",
            "programs_per_sec",
            "detect_runs",
            "findings",
            "speedup_vs_1job",
        },
        validate_fuzz_rows,
        "speedup_vs_1job",
        None,
    ),
}


def validate_report(path, bench_name):
    """Validates the report and returns its complete rows (or [])."""
    required, validate_rows, _, _ = BENCHES[bench_name]
    with open(path) as f:
        doc = json.load(f)  # raises on malformed JSON -> test failure
    check(isinstance(doc, dict), "report root must be a JSON object")
    if not isinstance(doc, dict):
        return []
    check(
        doc.get("bench") == bench_name,
        f"report 'bench' must be '{bench_name}', got {doc.get('bench')!r}",
    )
    check(doc.get("schema_version") == 1, "schema_version must be 1")
    results = doc.get("results")
    check(isinstance(results, list), "report must have a results array")
    if not isinstance(results, list):
        return []
    check(len(results) > 0, "results must not be empty")

    complete = []
    for i, row in enumerate(results):
        check(isinstance(row, dict), f"result {i} is not an object")
        if not isinstance(row, dict):
            continue
        missing = required - set(row)
        check(not missing, f"result {i} missing fields: {sorted(missing)}")
        if not missing:
            complete.append(row)
    if len(complete) == len(results):
        validate_rows(complete)
    return complete


def apply_speedup_gates(rows, bench_name, gates):
    field = BENCHES[bench_name][2]
    for key, floor in gates:
        speedups = [
            row[field]
            for row in rows
            if key in row.get("name", "") and field in row
        ]
        if not speedups:
            check(False, f"--min-speedup {key}:{floor}: no rows match '{key}'")
            continue
        best = max(speedups)
        check(
            best >= floor,
            f"--min-speedup {key}:{floor}: best {field} among "
            f"{len(speedups)} matching row(s) is {best:.2f}x (< {floor}x)",
        )


def apply_bytes_gates(rows, bench_name, gates):
    field = BENCHES[bench_name][3]
    for key, ceiling in gates:
        if field is None:
            check(
                False,
                f"--max-bytes-ratio {key}:{ceiling}: bench '{bench_name}' "
                "reports no bytes ratio",
            )
            continue
        ratios = [
            row[field]
            for row in rows
            if key in row.get("name", "") and field in row
        ]
        if not ratios:
            check(
                False, f"--max-bytes-ratio {key}:{ceiling}: no rows match '{key}'"
            )
            continue
        best = min(ratios)
        check(
            best <= ceiling,
            f"--max-bytes-ratio {key}:{ceiling}: best {field} among "
            f"{len(ratios)} matching row(s) is {best:.4f}x (> {ceiling}x)",
        )


def usage():
    print(
        f"usage: {sys.argv[0]} <path-to-bench-binary> "
        "[--min-speedup KEY:X]... [--max-bytes-ratio KEY:X]...",
        file=sys.stderr,
    )
    return 2


def main():
    args = sys.argv[1:]
    bench = None
    gates = []
    bytes_gates = []
    i = 0
    while i < len(args):
        if args[i] in ("--min-speedup", "--max-bytes-ratio"):
            flag = args[i]
            if i + 1 == len(args):
                return usage()
            spec = args[i + 1]
            key, sep, bound = spec.partition(":")
            try:
                bound = float(bound)
            except ValueError:
                sep = ""
            if not key or not sep:
                print(
                    f"check_bench: bad {flag} '{spec}' (want KEY:X)",
                    file=sys.stderr,
                )
                return 2
            (gates if flag == "--min-speedup" else bytes_gates).append(
                (key, bound)
            )
            i += 2
        elif bench is None:
            bench = args[i]
            i += 1
        else:
            return usage()
    if bench is None:
        return usage()

    base = os.path.basename(bench)
    name = base[len("bench_"):] if base.startswith("bench_") else base
    if name not in BENCHES:
        print(
            f"check_bench: unknown bench '{name}' (known: {sorted(BENCHES)})",
            file=sys.stderr,
        )
        return 2

    with tempfile.TemporaryDirectory(prefix="tdr-check-bench-") as tmp:
        out = os.path.join(tmp, f"BENCH_{name}.json")
        cmd = [bench, "--quick", "--out", out]
        result = subprocess.run(cmd, capture_output=True, text=True)
        check(
            result.returncode == 0,
            f"{base} exited {result.returncode}: {result.stderr.strip()}",
        )
        check(os.path.exists(out), "--out produced no file")
        rows = []
        if os.path.exists(out):
            rows = validate_report(out, name)
        if rows:
            apply_speedup_gates(rows, name, gates)
            apply_bytes_gates(rows, name, bytes_gates)

    if FAILURES:
        for msg in FAILURES:
            print(f"check_bench: FAIL: {msg}", file=sys.stderr)
        return 1
    gated = ""
    if gates or bytes_gates:
        gated = f", {len(gates) + len(bytes_gates)} gate(s) passed"
    print(f"check_bench: OK ({name} report schema is valid{gated})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
