"""Structured run reports with byte-stable metric blocks.

A report carries the command, the echoed configuration, named metrics,
per-assertion pass flags and the calibration constants in force.  The metric
block serializes with sorted keys and repr-exact floats, so reruns with the
same configuration and seed produce byte-identical blocks; wall time lives
outside the block.
"""

from __future__ import annotations

import csv
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List


# the types json and csv write as they are, whatever their value
_PLAIN = (float, int, bool, str, type(None))


def _jsonable(value):
    """value with each numpy scalar in it, at any depth of dicts, lists and
    tuples, made the Python scalar it holds."""
    if type(value) in _PLAIN:
        return value
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    np = sys.modules.get("numpy")  # a numpy scalar exists only once numpy is loaded
    if np is None:
        return value
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return value


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
            "config": _jsonable(self.config),
            "metrics": _jsonable(self.metrics),
            "assertions": _jsonable(self.assertions),
            "calibration": _jsonable(self.calibration),
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


def write_csv(path: str, rows: List[dict]) -> None:
    """One CSV line per row under a header of the first row's keys.  Every
    row must have exactly those keys; a row with other keys raises."""
    if not rows:
        with open(path, "w"):
            pass
        return
    keys = list(rows[0])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(keys)
        for row in rows:
            if len(row) != len(keys):
                raise ValueError(f"CSV row keys {sorted(row)} differ from the header {keys}")
            writer.writerow(_jsonable([row[k] for k in keys]))
