"""Benchmark of `eqtor verify` on the workloads in perfbench/workloads.json.

Usage, from the repository root:

    python3 perfbench/run.py --workload fock|heisenberg|level1 \
        [--seed N] [--seconds S] [--trace 0|1]

Every repetition runs the workload's CLI argument lists, each with
``--json`` and, unless the list pins its own, ``--seed N``, through
eqtor.cli.main in a fresh single-threaded interpreter (perfbench/worker.py,
EQTOR_THREADS=1), so module caches start cold as they do for every
`eqtor verify` user, and one worker runs at a time.  A repetition counts as
failed, and not as a timing, if a CLI call exits non-zero, the report count
differs from the workload's, or a report is not "pass"; if no repetition
passes, the benchmark exits with code 1 and prints no result.

--trace 0 repeats the workload at least twice and then until the next
repetition would overrun --seconds.  It prints the end-to-end metrics of
BENCHMARK.json: medians over repetitions of wall_s, cpu_s and peak_rss_mb of
the verification pass and of setup_s (interpreter start to built Params and
representation objects); residual_headroom, log10(tol / max_residual) of the
worst report, capped at 16; pass_frac, the share of expected reports that
passed; evaluated_frac, the share of samples not skipped.  --trace 1 runs
one untraced and one traced repetition and prints the per-layer metrics of
BENCHMARK.json, including the tracing overhead, and checks the count
predictions of workloads.json; a gating prediction that fails makes the
result "correct": false.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
line before it records provenance.  The program is taken from src/ beside
this directory; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import TRACER_ERROR

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPS = 2
TIME_LIMIT_S = 170.0
HEADROOM_CAP = 16.0


def fail(message: str, code: int = 1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def spawn(argvs: list[list[str]], mode: str, deadline: float) -> dict | None:
    """Run one worker; its result, or None if it crashed or timed out."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), EQTOR_THREADS="1",
               PYTHONHASHSEED="0")
    spec = {"argv": argvs, "mode": mode, "t0": time.monotonic()}
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                              stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"perfbench: {mode} worker timed out", file=sys.stderr)
        return None
    if proc.returncode == TRACER_ERROR:
        fail("tracer could not be installed (see above)")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: {mode} worker exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def failures(result: dict | None, expected: int) -> int:
    """Reports of one repetition that are missing or not "pass"."""
    if result is None:
        return expected
    reports = [r for run in result["runs"] for r in run["reports"] or []]
    bad = sum(r["status"] != "pass" for r in reports) + abs(expected - len(reports))
    if bad == 0 and any(run["code"] != 0 for run in result["runs"]):
        bad = 1
    return min(bad, expected)


def end_to_end(reps: list[dict | None], expected: int) -> dict:
    """Timings from the repetitions that passed; report figures from all that ran."""
    done = [r for r in reps if r is not None]
    timed = [r for r in done if failures(r, expected) == 0]
    reports = [rep for r in done for run in r["runs"] for rep in run["reports"] or []]
    ratios = (r["max_residual"] / r["tol"] for r in reports)
    worst = max((x if math.isfinite(x) else math.inf for x in ratios), default=math.inf)
    samples = sum(r["samples"] for r in reports)
    attempted = expected * len(reps)
    median = statistics.median
    return {
        "wall_s": median(r["wall_s"] for r in timed),
        "cpu_s": median(r["cpu_s"] for r in timed),
        "setup_s": median(r["setup_s"] for r in timed),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in timed),
        "residual_headroom": (HEADROOM_CAP if worst == 0 else
                              max(-HEADROOM_CAP, min(HEADROOM_CAP, -math.log10(worst)))),
        "pass_frac": 1 - sum(failures(r, expected) for r in reps) / attempted,
        "evaluated_frac": (1 - sum(r["skipped"] for r in reports) / samples
                           if samples else 0.0),
    }


def check_predictions(checks: list[dict], workload: str, layers: dict) -> list[str]:
    """Print every count check of the workload; return the gating ones that fail."""
    violated = []
    for c in checks:
        if c["workload"] != workload:
            continue
        value = layers[c["metric"]]
        if "per" in c:
            value = value / layers[c["per"]] if layers[c["per"]] else 0.0
        ok = value == c["value"] if c["op"] == "==" else value >= c["value"]
        label = c["metric"] + (f" / {c['per']}" if "per" in c else "")
        print(f"perfbench: prediction {label} {c['op']} {c['value']}: "
              f"{'holds' if ok else 'VIOLATED'} ({value:.6g})"
              f"{'' if c['gate'] else ', reported only'}", file=sys.stderr)
        if c["gate"] and not ok:
            violated.append(label)
    return violated


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "eqtor" / "cli.py").is_file():
        fail(f"no eqtor sources under {ROOT / 'src'}", 2)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    plan = json.loads((HERE / "workloads.json").read_text())
    if args.workload not in plan["workloads"]:
        fail(f"unknown workload {args.workload!r}", 2)
    workload = plan["workloads"][args.workload]
    seed = plan["default_seed"] if args.seed is None else args.seed
    # an argument list that pins its own --seed keeps it (see workloads.json)
    argvs = [a + ["--json"] + ([] if "--seed" in a else ["--seed", str(seed)])
             for a in workload["argv"]]
    argv_seeds = [int(a[a.index("--seed") + 1]) for a in argvs]
    expected = workload["reports"]
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S

    if args.trace:
        reps = [spawn(argvs, "run", deadline), spawn(argvs, "trace", deadline)]
        if None in reps:
            fail("a repetition did not complete")
        untraced, traced = reps
        layers = dict(traced["layers"], **{"trace.overhead_s": traced["wall_s"]
                                           - untraced["wall_s"]})
        print(f"perfbench: tracing overhead {layers['trace.overhead_s']:.3f} s "
              f"({traced['wall_s']:.3f} s traced, {untraced['wall_s']:.3f} s untraced)",
              file=sys.stderr)
        violated = check_predictions(plan["checks"], args.workload, layers)
        wanted, values = bench["per_layer"], layers
    else:
        reps, took = [], []
        measure_start = time.monotonic()
        while True:
            t0 = time.monotonic()
            reps.append(spawn(argvs, "run", deadline))
            took.append(time.monotonic() - t0)
            ahead = time.monotonic() + statistics.median(took)
            if ahead > deadline or (len(reps) >= MIN_REPS
                                    and ahead > measure_start + args.seconds):
                break
        if all(failures(r, expected) for r in reps):
            fail("no repetition passed its correctness gate")
        wanted, values = bench["end_to_end"], end_to_end(reps, expected)
        violated = []
        times = ", ".join(f"{r['wall_s']:.3f}/{r['setup_s']:.4f}" for r in reps if r is not None)
        print(f"perfbench: wall_s/setup_s of {len(reps)} repetition(s): {times}",
              file=sys.stderr)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"metrics not produced: {', '.join(missing)}")
    failed = sum(failures(r, expected) for r in reps)
    provenance = {
        "workload": args.workload, "argv": argvs, "seed": seed, "argv_seeds": argv_seeds,
        "mode": "traced" if args.trace else "untraced", "repetitions": len(reps),
        "git_revision": git_revision(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "eqtor_threads": 1,
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": failed == 0 and not violated,
        "attempted": expected * len(reps),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
