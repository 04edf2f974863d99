"""Per-layer spans for eqtor, recorded by wrapping its functions from outside.

Each wrapper records one span (name, parent span, start, end) in flat arrays
that stay in memory until the run ends; ``layers`` then derives calls, self
time (duration minus the time covered by child spans), inclusive time,
output terms and the ``theta_lat`` cache hit ratio.  A wrapper is installed
wherever callers look the name up: on the class for methods, and in every
loaded ``eqtor`` module that bound the function by name.  A target that no
longer exists raises ``TracerError``, so a rewrite of a layer shows up as an
error and not as a silent zero.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# (module.qualified_name, extra metrics besides calls and self_s)
TARGETS = (
    ("ellcore.theta", ()),
    ("ellcore.qpoch", ()),
    ("ellcore.theta_zero_distance", ()),
    ("ellcore.theta_coefficient", ()),
    ("ellcore.poch_pairs_series", ()),
    ("ellcore.ThetaRatioSpec.evaluate", ()),
    # hit_ratio: see CACHE_LOOKUP
    ("ellcore.Params.theta_lat", ("hit_ratio",)),
    ("partitions.coeff_plus", ()),
    ("partitions.coeff_minus", ()),
    ("fock01.FockRep.x", ("terms_out",)),
    ("fock01.FockRep.phi", ()),
    ("fock01.VectorRep.x", ("terms_out",)),
    ("boson.BosonAlgebra.apply_current_boson", ("terms_out",)),
    ("boson.BosonAlgebra.apply_E", ("terms_out",)),
    ("boson.BosonAlgebra.apply_mode", ()),
    ("boson.check_exchange", ("total_s",)),
    ("level1.Level1Module.current_apply", ("terms_out",)),
    ("level1.Level1Module.z_apply", ()),
    ("level1.check_zalgebra", ("total_s",)),
    ("level1.check_mode_current_bracket", ("total_s",)),
    ("level1.check_xx_quadratic_level1", ("total_s",)),
    ("level1.check_highest_weight", ("total_s",)),
    ("level1.check_phi_phi_level1", ("total_s",)),
    # cli.main self time is the untraced remainder of each CLI call: argparse,
    # JSON emission, the suite functions, sampling and representation construction
    ("cli.main", ()),
)
# For a cached function, which calls look the cache up; the hit ratio is the
# share of those that return without a child span (no theta evaluated).
# theta_lat returns 0 for the unit lattice point before it reaches the cache.
CACHE_LOOKUP = {
    "ellcore.Params.theta_lat": lambda args: not args[1].is_unit,
}
# run_relation(rep, rel_id, cfg) gets one span name per relation id
BY_RELATION = "relcheck.run_relation"
ROOT = "trace.root"


class TracerError(RuntimeError):
    pass


def count_terms(out) -> int:
    """Entries of a DeltaVector, or of a {z-exponent: vector} map."""
    if isinstance(out, dict):
        return sum(len(v) for v in out.values())
    return len(out)


class Tracer:
    def __init__(self):
        self._ids: dict[str, int] = {}
        self.terms: list[int] = []
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.lookup = array("b")
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self._ids)
            self.terms.append(0)
        return nid

    def wrap(self, fn, name: str, terms: bool = False, by_arg: int | None = None):
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack, name_id, clock = self._stack, self._name_id, time.perf_counter
        lookup, is_lookup = self.lookup, CACHE_LOOKUP.get(name)
        fixed = name_id(name) if by_arg is None else -1

        def traced(*args, **kwargs):
            nid = fixed if by_arg is None else name_id(f"{name}.{args[by_arg]}")
            sid = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            lookup.append(is_lookup is not None and is_lookup(args))
            stack.append(sid)
            start[sid] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if terms:
                self.terms[nid] += count_terms(out)
            return out

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Wrap every target; raise TracerError if one is missing."""
        for name, extras in TARGETS + ((BY_RELATION, ()),):
            self._install_one(name, "terms_out" in extras, 1 if name == BY_RELATION else None)

    def _install_one(self, name: str, terms: bool, by_arg: int | None) -> None:
        modname, qual = name.split(".", 1)
        try:
            module = importlib.import_module(f"eqtor.{modname}")
        except ImportError as exc:
            raise TracerError(f"cannot trace eqtor.{name}: {exc}") from exc
        *path, attr = qual.split(".")
        owner = module
        for part in path:
            owner = getattr(owner, part, None)
        original = vars(owner).get(attr) if owner is not None else None
        if not callable(original):
            raise TracerError(f"cannot trace eqtor.{name}: no such function")
        traced = self.wrap(original, name, terms, by_arg)
        if owner is not module:
            setattr(owner, attr, traced)
            return
        for mod in [m for k, m in sys.modules.items() if k == "eqtor" or k.startswith("eqtor.")]:
            for key in [k for k, v in vars(mod).items() if v is original]:
                setattr(mod, key, traced)

    def run_root(self, fn):
        """Call fn() under the root span that every other span nests in."""
        return self.wrap(fn, ROOT)()

    def layers(self, relation_ids=()) -> dict[str, float]:
        """Per-layer metrics from the recorded spans."""
        size = len(self._ids)
        calls, self_s, total_s = [0] * size, [0.0] * size, [0.0] * size
        lookups, hits = [0] * size, [0] * size
        n = len(self.start)
        child_s = array("d", bytes(8 * n))
        children = array("i", bytes(4 * n))
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        for sid in range(n):
            up = parent[sid]
            if up >= 0:
                child_s[up] += end[sid] - start[sid]
                children[up] += 1
        for sid in range(n):
            nid = span_name[sid]
            dur = end[sid] - start[sid]
            calls[nid] += 1
            total_s[nid] += dur
            self_s[nid] += dur - child_s[sid]
            if self.lookup[sid]:
                lookups[nid] += 1
                hits[nid] += children[sid] == 0
        ids = self._ids

        def pick(values, name, default=0):
            nid = ids.get(name)
            return default if nid is None else values[nid]

        out: dict[str, float] = {}
        for name, extras in TARGETS:
            out[f"{name}.calls"] = pick(calls, name)
            out[f"{name}.self_s"] = pick(self_s, name, 0.0)
            if "total_s" in extras:
                out[f"{name}.total_s"] = pick(total_s, name, 0.0)
            if "terms_out" in extras:
                out[f"{name}.terms_out"] = pick(self.terms, name)
            if "hit_ratio" in extras:
                nlookups = pick(lookups, name)
                out[f"{name}.hit_ratio"] = pick(hits, name) / nlookups if nlookups else 0.0
        seen = {name[len(BY_RELATION) + 1:] for name in ids if name.startswith(BY_RELATION + ".")}
        for rid in sorted(set(relation_ids) | seen):
            out[f"{BY_RELATION}.{rid}.total_s"] = pick(total_s, f"{BY_RELATION}.{rid}", 0.0)
        out["trace.root_s"] = pick(total_s, ROOT, 0.0)
        out["trace.spans"] = n
        return out
