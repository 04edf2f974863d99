"""One repetition of a benchmark workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py SPEC

SPEC is a JSON object {"argv": [[cli args], ...], "mode": "run" | "trace",
"t0": time.monotonic() of the parent just before it started this process}.
The worker imports eqtor and builds the Params and representation object of
every argument list; setup_s runs from t0 to that point.  It then passes each
argument list to eqtor.cli.main in turn (in "trace" mode under
perfbench/tracer.py) and times the pass.  The last
line of stdout is one JSON object with the results.  Exit code 3 means the
tracer could not be installed.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

TRACER_ERROR = 3


def build_objects(cli, argv: list[str]):
    """The Params and representation object `eqtor verify argv` constructs.

    This mirrors eqtor.cli.cmd_verify and the suites of eqtor.relcheck it
    calls; it has to change when they change how they build these objects.
    """
    from eqtor.boson import BosonAlgebra
    from eqtor.cartan import cartan_data
    from eqtor.fock01 import FockRep, VectorRep
    from eqtor.level1 import Level1Module

    args = cli.build_parser().parse_args(argv)
    params = cli.build_params(args)
    if args.suite == "fock":
        return FockRep(params, args.N, args.k)
    if args.suite == "vector":
        return VectorRep(params, args.N, args.k)
    if args.suite == "heisenberg":
        return BosonAlgebra(cartan_data(args.type), params.with_level(1), level=1)
    if args.suite == "level1":
        return Level1Module.make(args.type, args.a, params)
    raise ValueError(f"no set-up for suite {args.suite!r}")


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def summarize(text: str) -> list[dict] | None:
    """The fields of each CLI report that the benchmark checks."""
    try:
        reports = json.loads(text)
    except ValueError:
        return None
    keys = ("relation_id", "status", "samples", "skipped", "max_residual")
    return [{k: r[k] for k in keys} | {"tol": r["params"]["tol"]} for r in reports]


def main() -> int:
    spec = json.loads(sys.argv[1])
    from eqtor import cli

    for argv in spec["argv"]:
        build_objects(cli, argv)
    result: dict = {"setup_s": time.monotonic() - spec["t0"]}

    tracer = None
    if spec["mode"] == "trace":
        from tracer import Tracer, TracerError

        tracer = Tracer()
        try:
            tracer.install()
        except TracerError as exc:
            print(f"tracer: {exc}", file=sys.stderr)
            return TRACER_ERROR

    outputs: list[tuple[int, str]] = []

    def run_pass() -> None:
        for argv in spec["argv"]:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            outputs.append((code, buf.getvalue()))

    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    if tracer is None:
        run_pass()
    else:
        tracer.run_root(run_pass)
    result["wall_s"] = time.perf_counter() - t0
    result["cpu_s"] = cpu_seconds() - cpu0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["runs"] = [{"code": code, "reports": summarize(text)} for code, text in outputs]
    if tracer is not None:
        from eqtor.relcheck import FOCK_RELATION_IDS

        result["layers"] = tracer.layers(FOCK_RELATION_IDS)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
