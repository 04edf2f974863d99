"""Fast self-test of the benchmark harness at the smallest CLI sizes.

Usage, from the repository root:

    python3 perfbench/selftest.py

Runs the "smoke" workload of workloads.json through run.py, untraced and
traced, and checks that every end-to-end and per-layer metric named in
BENCHMARK.json is printed with its unit, that the per-layer self times sum to
no more than the root span, that a missing trace target fails loudly, that
a violated gating prediction makes the traced result "correct": false, and
that run.py exits non-zero without printing a result when the eqtor sources
are absent.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

outcomes: list[bool] = []


def check(ok: bool, what: str) -> None:
    outcomes.append(ok)
    if not ok:
        print(f"FAIL {what}")


def bench(cwd: Path, workload: str, trace: int) -> tuple[subprocess.CompletedProcess, dict]:
    """Run run.py from cwd; its process and its result line."""
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", workload,
                           "--seed", "7", "--seconds", "0", "--trace", str(trace)],
                          capture_output=True, text=True, cwd=cwd, timeout=180)
    lines = proc.stdout.splitlines()
    return proc, (json.loads(lines[-1]) if lines else {})


def copy_harness(dest: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))


def run_bench(trace: int) -> dict:
    proc, result = bench(ROOT, "smoke", trace)
    check(proc.returncode == 0, f"run.py --trace {trace} exits 0 ({proc.stderr.strip()[-300:]})")
    lines = proc.stdout.splitlines()
    check(set(result) == RESULT_KEYS, f"--trace {trace} result has exactly {sorted(RESULT_KEYS)}")
    check(len(lines) >= 2 and "provenance" in json.loads(lines[-2]),
          f"--trace {trace} prints provenance before the result")
    check(result.get("correct") is True and result.get("failed") == 0,
          f"--trace {trace} smoke workload passes its correctness gate")
    return result.get("metrics", {})


def check_metrics(metrics: dict, declared: list[dict], kind: str) -> None:
    names = [m["name"] for m in declared]
    check(sorted(metrics) == sorted(names), f"{kind} metrics are exactly those of BENCHMARK.json")
    for m in declared:
        got = metrics.get(m["name"], {})
        check(got.get("unit") == m["unit"] and isinstance(got.get("value"), (int, float)),
              f"{kind} metric {m['name']} printed with unit {m['unit']}")


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    check_metrics(run_bench(0), declared["end_to_end"], "end-to-end")

    layers = run_bench(1)
    check_metrics(layers, declared["per_layer"], "per-layer")
    value = {k: v["value"] for k, v in layers.items()}
    self_sum = sum(v for k, v in value.items() if k.endswith(".self_s"))
    check(0 < self_sum <= value.get("trace.root_s", 0.0),
          f"per-layer self times ({self_sum:.4f} s) sum to no more than the root span "
          f"({value.get('trace.root_s', 0.0):.4f} s)")
    ratio = value.get("ellcore.Params.theta_lat.hit_ratio", -1)
    check(0 < ratio < 1, f"theta_lat hit ratio ({ratio}) lies strictly between 0 and 1")
    for name in ("ellcore.theta.calls", "fock01.FockRep.x.calls", "fock01.VectorRep.x.calls",
                 "boson.check_exchange.calls", "level1.Level1Module.current_apply.calls"):
        check(value.get(name, 0) > 0, f"traced smoke run reaches {name}")

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from tracer import Tracer, TracerError

    try:
        Tracer()._install_one("ellcore.no_such_function", False, None)
        check(False, "a missing trace target raises TracerError")
    except TracerError:
        check(True, "a missing trace target raises TracerError")

    with tempfile.TemporaryDirectory() as tmp:
        tampered = Path(tmp)
        copy_harness(tampered)
        (tampered / "src").symlink_to(ROOT / "src")
        plan_file = tampered / HERE.name / "workloads.json"
        plan = json.loads(plan_file.read_text())
        # false at every size: the smoke workload evaluates theta
        plan["checks"].append({"workload": "smoke", "metric": "ellcore.theta.calls",
                               "op": "==", "value": 0, "gate": True})
        plan_file.write_text(json.dumps(plan))
        proc, result = bench(tampered, "smoke", 1)
        check(proc.returncode == 0 and result.get("correct") is False
              and "VIOLATED" in proc.stderr,
              "a violated gating prediction makes the traced result incorrect")

    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        copy_harness(bare)
        proc, _ = bench(bare, "fock", 0)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              "without src/ run.py exits non-zero and prints no result")

    print(f"{len(outcomes)} checks, {outcomes.count(False)} failed")
    return 0 if all(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
