"""Command-line front end: verify suites, print generator actions, expand functions.

Exit codes: 0 all checks pass, 1 a relation check failed, 2 usage or
parameter error.  Complex values are given as ``re,im`` pairs (a bare float
is accepted); a JSON config file may supply the parameter point as an
object with the keys CONFIG_KEYS, with flags taking precedence.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import functools
import io
import json
import math
import random
import sys

from .ellcore import (Params, PoleProximityError, TruncationError, check_pochhammer_tail,
                      gkernel_branches, pf_expand, pochratio_series, qpoch, theta)
from .fock01 import (FockBasisVector, VectorBasis, apply_xminus, apply_xplus, phi_action,
                     vector_rep_apply)
from .partitions import ColoredPartition
from .relcheck import (LEVEL1_MAX_DEGREE, RelationReport, fock_suite, heisenberg_suite,
                       level1_suite, reports_to_json, vector_suite)

USAGE_ERROR = 2
RELATION_ERROR = 1

COMPLEX_KEYS = ("q", "kappa", "p", "u")
CONFIG_KEYS = COMPLEX_KEYS + ("trunc_M", "tol", "seed")


def parse_complex(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected 're' or 're,im', got {text!r}")


def fmt_complex(z: complex) -> str:
    return f"{z.real:+.12g}{z.imag:+.12g}j"


def _is_real(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def read_config(path: str) -> dict:
    """Params fields from a JSON config file; a ValueError says what is wrong with it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc.strerror}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"config {path} must hold a JSON object, not {type(raw).__name__}")
    unknown = sorted(set(raw) - set(CONFIG_KEYS))
    if unknown:
        raise ValueError(f"unknown config key(s) {', '.join(unknown)}; "
                         f"accepted: {', '.join(CONFIG_KEYS)}")
    fields = {}
    for name, val in raw.items():
        if name in COMPLEX_KEYS:
            if isinstance(val, list) and len(val) == 2 and all(map(_is_real, val)):
                val = complex(val[0], val[1])
            elif not _is_real(val):
                raise ValueError(f"config key {name} must be a number or [re, im], got {val!r}")
            fields[name] = complex(val)
        elif _is_real(val) and (name == "tol" or isinstance(val, int)):
            fields[name] = val
        else:
            kind = "a number" if name == "tol" else "an integer"
            raise ValueError(f"config key {name} must be {kind}, got {val!r}")
    return fields


def point_fields(args) -> dict:
    """The Params fields the config file and the parameter flags set; flags win."""
    fields = read_config(args.config) if args.config else {}
    flags = {"q": args.q, "kappa": args.kappa, "p": args.p, "u": args.u,
             "trunc_M": args.terms, "tol": args.tol, "seed": args.seed}
    fields.update((name, v) for name, v in flags.items() if v is not None)
    return fields


def build_params(args) -> Params:
    return Params(**point_fields(args))


def param_parser() -> argparse.ArgumentParser:
    """The parameter-point flags, a parent of every subcommand parser but ``report``'s."""
    sub = argparse.ArgumentParser(add_help=False)
    sub.add_argument("--q", type=parse_complex, help="deformation parameter (re,im)")
    sub.add_argument("--kappa", type=parse_complex, help="cyclic twist parameter (re,im)")
    sub.add_argument("--p", type=parse_complex, help="elliptic nome (re,im)")
    sub.add_argument("--u", type=parse_complex, help="spectral parameter (re,im)")
    sub.add_argument("--terms", type=int, help="truncation of every Pochhammer, theta and kernel")
    sub.add_argument("--tol", type=float, help="pass/fail tolerance")
    sub.add_argument("--seed", type=int, help="sampling seed")
    sub.add_argument("--config", help="JSON object with the keys " + ", ".join(CONFIG_KEYS)
                     + "; flags win")
    return sub


def _write_output(path: str, text: str) -> bool:
    """Write text and a newline to path; on failure print one line naming it and return False."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def emit_reports(reports: list[RelationReport], args) -> int:
    if args.json:
        text = reports_to_json(reports)
    else:
        lines = []
        for r in reports:
            lines.append(f"{r.status.upper():4s} {r.relation_id:16s} rep={r.rep} "
                         f"samples={r.samples} skipped={r.skipped} "
                         f"max_residual={r.max_residual:.3e} worst={r.worst_case}")
        text = "\n".join(lines)
    if args.output and not _write_output(args.output, text):
        return USAGE_ERROR
    print(text)
    return 0 if all(r.status == "pass" for r in reports) else RELATION_ERROR


def cmd_verify(args) -> int:
    try:
        params = build_params(args)
    except ValueError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        if args.suite == "fock":
            reports = fock_suite(params, args.N, args.k, args.max_size)
        elif args.suite == "vector":
            reports = vector_suite(params, args.N, args.k)
        elif args.suite == "heisenberg":
            reports = heisenberg_suite(params, args.type, degree=args.degree,
                                       window=args.window)
        else:
            reports = level1_suite(params, args.type, args.a, degree=args.degree,
                                   window=args.window)
    except ValueError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return emit_reports(reports, args)


def _pair(z) -> list[float]:
    return [z.real, z.imag]


def cmd_act(args) -> int:
    try:
        params = build_params(args)
        lam = ColoredPartition.from_string(args.partition, args.N, args.k)
        if not 0 <= args.color < args.N:
            raise ValueError(f"--color {args.color} outside 0..{args.N - 1}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if args.rep == "fock":
        v = FockBasisVector(lam, FockBasisVector.vacuum(args.N, args.k).weight)
        if args.gen in ("x+", "x-"):
            out = (apply_xplus if args.gen == "x+" else apply_xminus)(args.color, v, params)
            rows = [{"support": _pair(t.support.value(params)), "coeff": _pair(t.coeff),
                     "result": str(t.payload.partition),
                     "weight_shift": {"root": t.payload.weight.root, "rq": t.payload.weight.rq}}
                    for t in out]
        else:
            act = phi_action(args.color, v, params)
            spec, shift = act.spec, act.weight_shift
            rows = [{"theta_numer": _pair(n.value(params)), "theta_denom": _pair(d.value(params))}
                    for n, d in zip(spec.numer_shifts, spec.denom_shifts)]
            rows.append({"scalar": _pair(spec.scalar_prefactor),
                         "weight_shift": {"root": shift.root, "rq": shift.rq}})
    else:
        basis = VectorBasis(args.index, args.N, args.k)
        out = vector_rep_apply(args.gen, args.color, basis, params)
        if args.gen == "phi":
            rows = [{"scalar": _pair(out.spec.scalar_prefactor),
                     "factors": len(out.spec.numer_shifts)}]
        else:
            rows = [{"support": _pair(t.support.value(params)), "coeff": _pair(t.coeff),
                     "result": t.payload.index} for t in out]
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
    elif not rows:
        print("(empty)")
    else:
        for row in rows:
            print("  ".join(f"{k}={v}" for k, v in row.items()))
    return 0


def cmd_expand(args) -> int:
    """Evaluate one function at the parameter point.

    Every function checks the whole point as every command does, but the
    truncation bound reads the nome the function's product reads.  theta and
    pf are products in p.  qpoch, gkernel and ratio take their nome s from
    --s, or p without it, which must be finite with |s| < 1; qpoch and
    gkernel check the truncation bound on s, and ratio, an exact series, has
    none.
    """
    try:
        point = point_fields(args)
        try:
            params = Params(**point)
        except TruncationError:
            if args.func in ("theta", "pf"):
                raise
        if args.func not in ("theta", "pf"):
            terms = point.get("trunc_M", Params.trunc_M)
            name, s = ("s", args.s) if args.s is not None else ("p", point.get("p", Params.p))
            if not (cmath.isfinite(s) and abs(s) < 1):
                raise ValueError(f"--{name} must be finite with |{name}| < 1")
            if args.func != "ratio":
                check_pochhammer_tail(name, s, terms)
    except ValueError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        if args.func == "theta":
            print(fmt_complex(theta(args.z, params.p, params.trunc_M)))
        elif args.func == "qpoch":
            print(fmt_complex(qpoch(args.z, s, terms)))
        elif args.func == "gkernel":
            series, poch = gkernel_branches(args.z, s, args.b, point.get("q", Params.q), terms)
            if args.check:
                print(f"series     = {fmt_complex(series)}")
                print(f"pochhammer = {fmt_complex(poch)}")
                print(f"|diff|     = {abs(series - poch):.3e}")
            else:
                print(fmt_complex(poch))
        elif args.func == "ratio":
            coeffs = pochratio_series(args.a, args.b2, s, args.order)
            for n, c in enumerate(coeffs):
                print(f"c[{n}] = {fmt_complex(c)}")
        else:
            if args.n < 1 or args.samples < 1:
                raise ValueError("--n and --samples must be >= 1")
            rng = random.Random(params.seed)
            report = RelationReport("pf", "theta partial fractions", params)
            for _ in range(args.samples):
                a = [cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(0, 2 * cmath.pi))
                     for _ in range(args.n)]
                b = [cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(0, 2 * cmath.pi))
                     for _ in range(args.n)]
                for _ in range(10):
                    t = cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(0, 2 * cmath.pi))
                    try:
                        lhs, rhs = pf_expand(a, b + [math.prod(a, start=t)
                                                     / math.prod(b, start=1.0 + 0j)], t, params)
                    except PoleProximityError:
                        report.skip()
                        continue
                    report.record(abs(lhs - rhs) / (1 + abs(lhs)), "")
            if report.samples == report.skipped:
                print("error: every instance fell near a pole; nothing was compared",
                      file=sys.stderr)
                return RELATION_ERROR
            print(f"{report.samples - report.skipped} balanced instances compared, "
                  f"{report.skipped} skipped near a pole; max residual: {report.max_residual:.3e}")
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return 0


def cmd_report(args) -> int:
    """Render a JSON report file as delimited text (CSV) and a summary table."""
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if not isinstance(data, list) or not all(isinstance(row, dict) for row in data):
        print(f"error: {args.input} must hold a JSON list of report objects", file=sys.stderr)
        return USAGE_ERROR
    cols = ["relation_id", "rep", "samples", "skipped", "max_residual", "status"]
    buf = io.StringIO()
    # a field such as rep "heisenberg(A2, k=1)" holds a comma; the writer quotes it
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    writer.writerows([str(row.get(c, "")) for c in cols] for row in data)
    text = buf.getvalue().rstrip("\n")
    if args.output and not _write_output(args.output, text):
        return USAGE_ERROR
    print(text)
    failed = [row for row in data if row.get("status") != "pass"]
    print(f"# {len(data) - len(failed)}/{len(data)} relations pass")
    # a report with no relations checked nothing, as a relation with no samples
    return 0 if data and not failed else RELATION_ERROR


# built once per process: its sixteen parsers take milliseconds to build, every
# CLI call parses with it, and parse_args leaves it unchanged
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="eqtor",
                                 description="elliptic toroidal-algebra relation checker")
    sub = ap.add_subparsers(dest="command", required=True)
    # parents share one copy of the common flags, far cheaper than adding them per parser
    params = param_parser()
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--json", action="store_true", help="emit a JSON report")
    output.add_argument("--output", help="also write the report to this path")

    v = sub.add_parser("verify", help="run a relation-verification suite")
    suites = v.add_subparsers(dest="suite", required=True)
    sv = {}
    for name, text in (("fock", "level-(0,1) Fock representation"),
                       ("vector", "vector representation"),
                       ("heisenberg", "dressing-exchange relations on the boson module"),
                       ("level1", "level-(1,l) vertex-operator module")):
        # no abbreviations: "--k" or "--s" must not reach --kappa or --seed where
        # the suite or function has no --k or --s of its own
        sv[name] = suites.add_parser(name, help=text, parents=[params, output],
                                     allow_abbrev=False)
        sv[name].set_defaults(handler=cmd_verify)
    for name in ("fock", "vector"):
        sv[name].add_argument("--N", type=int, default=3, help="number of colors")
        sv[name].add_argument("--k", type=int, default=0, help="root color")
    sv["fock"].add_argument("--max-size", dest="max_size", type=int, default=6,
                            help="largest partition size of the basis states")
    for name, degree in (("heisenberg", 4), ("level1", LEVEL1_MAX_DEGREE)):
        sv[name].add_argument("--type", default="A2", help="affine type tag")
        sv[name].add_argument("--degree", type=int, default=degree, help="largest boson degree")
        sv[name].add_argument("--window", type=int, default=6,
                              help="largest |z-exponent| compared")
    sv["level1"].add_argument("--a", type=int, default=0, help="fundamental index")

    a = sub.add_parser("act", help="print a generator action on a basis vector",
                       parents=[params])
    a.add_argument("--rep", default="fock", choices=("fock", "vector"))
    a.add_argument("--gen", required=True, choices=("x+", "x-", "phi"))
    a.add_argument("--color", type=int, default=0)
    a.add_argument("--partition", default="", help="comma-separated parts, e.g. 3,1,1")
    a.add_argument("--index", type=int, default=0, help="basis index (vector rep)")
    a.add_argument("--N", type=int, default=3)
    a.add_argument("--k", type=int, default=0)
    a.add_argument("--json", action="store_true", help="print the terms as JSON")
    a.set_defaults(handler=cmd_act)

    e = sub.add_parser("expand", help="evaluate special functions")
    funcs = e.add_subparsers(dest="func", required=True)
    fe = {}
    for name, text in (("theta", "theta(z; p)"),
                       ("qpoch", "(z; s)_oo"),
                       ("gkernel", "structure kernel g_b(z; s)"),
                       ("ratio", "series coefficients of (a x; s)_oo / (b2 x; s)_oo"),
                       ("pf", "balanced theta partial-fraction expansion at random points")):
        fe[name] = funcs.add_parser(name, help=text, parents=[params], allow_abbrev=False)
        fe[name].set_defaults(handler=cmd_expand)
    for name in ("theta", "qpoch", "gkernel"):
        fe[name].add_argument("--z", type=parse_complex, default=complex(0.5, 0.1))
    for name in ("qpoch", "gkernel", "ratio"):
        fe[name].add_argument("--s", type=parse_complex, default=None, help="nome (default p)")
    fe["gkernel"].add_argument("--b", type=int, default=2)
    fe["gkernel"].add_argument("--check", action="store_true",
                               help="print both branches and their gap")
    fe["ratio"].add_argument("--a", dest="a", type=parse_complex, default=complex(0.2, 0.0))
    fe["ratio"].add_argument("--b2", type=parse_complex, default=complex(0.5, 0.0))
    fe["ratio"].add_argument("--order", type=int, default=8)
    fe["pf"].add_argument("--n", type=int, default=3)
    fe["pf"].add_argument("--samples", type=int, default=10)

    r = sub.add_parser("report", help="render a JSON report as CSV")
    r.add_argument("input", help="JSON report file")
    r.add_argument("--output", help="write the CSV here")
    r.set_defaults(handler=cmd_report)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
