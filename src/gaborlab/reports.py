"""Structured run reports with byte-stable metric blocks.

A report carries the command, the echoed configuration, named metrics,
per-assertion pass flags and the calibration constants in force.  The metric
block serializes with sorted keys and repr-exact floats, so reruns with the
same configuration and seed produce byte-identical blocks; wall time lives
outside the block.  A report's values are Python scalars, in dicts and lists,
which json writes as they are; json refuses numpy's integers and bools, so
a caller converts them.  The rows of write_csv may hold numpy scalars: csv
writes each as the Python value it holds.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Iterable


@dataclass
class Report:
    command: str
    config: Dict[str, object]
    metrics: Dict[str, object] = field(default_factory=dict)
    assertions: Dict[str, bool] = field(default_factory=dict)
    calibration: Dict[str, object] = field(default_factory=dict)
    wall_time_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(self.assertions.values())

    def metric_block(self) -> bytes:
        payload = {
            "command": self.command,
            "config": self.config,
            "metrics": self.metrics,
            "assertions": self.assertions,
            "calibration": self.calibration,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()

    def to_json(self) -> dict:
        out = json.loads(self.metric_block())
        out["passed"] = self.passed
        out["wall_time_s"] = self.wall_time_s
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")


class Stopwatch:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def write_csv(path: str, rows: Iterable[dict]) -> None:
    """One CSV line per row under a header of the first row's keys.  Every
    row must have exactly those keys; a row with other keys raises.  rows is
    read once, so it may make each row as it is written."""
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        with open(path, "w"):
            pass
        return
    keys = list(first)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(keys)
        for row in chain([first], rows):
            if len(row) != len(keys):
                raise ValueError(f"CSV row keys {sorted(row)} differ from the header {keys}")
            writer.writerow([row[k] for k in keys])
