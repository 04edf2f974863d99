"""Reports for calling a relation check or a suite directly, for tests only."""

from __future__ import annotations

import re

from eqtor.ellcore import Params
from eqtor.relcheck import SUITES, RelationReport, run_suite


class Collecting(RelationReport):
    """A report that also keeps every sample it records, as label -> residual."""

    def __init__(self):
        super().__init__("", "", Params())
        self.by_label: dict[str, float] = {}

    def record(self, residual: float, label) -> None:
        text = label() if callable(label) else label
        if text in self.by_label:
            raise AssertionError(f"two samples labelled {text!r}")
        self.by_label[text] = residual
        super().record(residual, text)


def checked(check, *args, rel_id: str = "", **kwargs) -> RelationReport:
    """The report, under ``rel_id``, that ``check(report, *args, **kwargs)`` records into."""
    report = RelationReport(rel_id, "", Params())
    check(report, *args, **kwargs)
    return report


def suite_reports(name: str, params: Params, options: tuple, size: tuple) -> list[RelationReport]:
    """The reports of suite ``name`` on the handle SUITES builds from the option values."""
    return run_suite(SUITES[name].build(params, *options), size)


class PairMax:
    """The report ``check(report, *args, **kwargs)`` records into, as the max residual per
    color pair, read from each label's i=.. j=.."""

    def __init__(self, check, *args, **kwargs):
        self.pairs: dict[tuple[int, int], float] = {}
        check(self, *args, **kwargs)

    def record(self, residual: float, label) -> None:
        text = label() if callable(label) else label
        pair = tuple(map(int, re.search(r"\bi=(\d+) j=(\d+)", text).groups()))
        if residual > self.pairs.setdefault(pair, 0.0) or residual != residual:
            self.pairs[pair] = residual
