"""Correctness gate for one finished `gaborlab` command.

A command passes only if it exits 0 with `"passed": true` in a report that
parses (or, for an expected error, exits 3 naming that GaborLabError), its
CSV has the rows its shape fixes, and on build-frame every certificate
assertion is true.  Determinism across passes is checked by the caller on
the metric block returned here: the report without `wall_time_s`.
"""

from __future__ import annotations

import json
from typing import List, Optional, Tuple

from workloads import Command

CERTIFICATE_ASSERTIONS = (
    "q_below_one",
    "difference_sets_disjoint",
    "difference_sets_clear_of_base",
    "window_summands_disjoint",
    "window_norm_identity",
)


def _read_json(path) -> object:
    with open(path) as fh:
        return json.load(fh)


def check(cmd: Command, code: int, stderr: str) -> Tuple[List[str], Optional[str]]:
    """Return (failure reasons, metric block) for one finished command."""
    if cmd.expect_error:
        marker = f"error: {cmd.expect_error}:"
        if code != 3 or marker not in stderr:
            return [f"expected exit 3 with {cmd.expect_error}, got exit {code}: "
                    f"{stderr.strip()[-200:]}"], None
        return [], f"exit 3 {cmd.expect_error}"
    if code != 0:
        return [f"exit {code}: {stderr.strip()[-200:]}"], None
    try:
        report = _read_json(cmd.out)
    except (OSError, ValueError) as exc:
        return [f"report {cmd.out.name} unreadable: {exc}"], None
    if not isinstance(report, dict):
        return [f"report {cmd.out.name} is not a JSON object"], None
    failures = []
    if report.get("passed") is not True:
        failures.append("report does not say passed: true")
    if cmd.argv[0] == "build-frame":
        assertions = report.get("assertions", {})
        failures += [f"certificate assertion {k} is not true"
                     for k in CERTIFICATE_ASSERTIONS if assertions.get(k) is not True]
    if cmd.frame_out is not None:
        try:
            _read_json(cmd.frame_out)
        except (OSError, ValueError) as exc:
            failures.append(f"frame {cmd.frame_out.name} unreadable: {exc}")
    if cmd.csv is not None:
        try:
            with open(cmd.csv) as fh:
                rows = sum(1 for _ in fh) - 1
        except OSError as exc:
            failures.append(f"csv {cmd.csv.name} unreadable: {exc}")
        else:
            if rows < 1 or (cmd.csv_rows is not None and rows != cmd.csv_rows):
                failures.append(f"csv {cmd.csv.name} has {rows} rows, "
                                f"expected {cmd.csv_rows or 'at least 1'}")
    report.pop("wall_time_s", None)
    return failures, json.dumps(report, sort_keys=True)
