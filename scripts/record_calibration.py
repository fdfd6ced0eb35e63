#!/usr/bin/env python3
"""Recompute the recorded calibration constants from the fixed seeded runs.

Prints a CALIBRATION dict ready to paste into gaborlab/calibration.py.
Run after any intentional change to the seeded corpora.
"""

import json
import sys

from gaborlab import calibration, suites


def record() -> dict:
    """The CALIBRATION dict observed on the recorded runs, each run as
    suite(seed, **RECORDED_CONFIG[name])."""
    cfg = calibration.RECORDED_CONFIG

    def metrics(name: str) -> dict:
        suite = getattr(suites, f"{name}_suite")
        return suite(cfg["seed"], **cfg[name])[0].metrics

    m = metrics("squarefunc")
    out = {"squarefunc": {
        "1.5": m["ratio_max_p1.5"],
        "1.5_lo": m["ratio_min_p1.5"],
        "2.0": m["ratio_max_p2.0"],
        "2.0_lo": m["ratio_min_p2.0"],
        "3.0": m["ratio_max_p3.0"],
        "4.0": m["ratio_max_p4.0"],
    }}
    out["type_cotype"] = {
        k.removesuffix("_max"): v for k, v in metrics("type_cotype").items()
    }
    m = metrics("lacunary")
    out["lacunary"] = {"p4.0": {"lo": m["ratio_min"], "hi": m["ratio_max"]}}
    m = metrics("rdf")
    out["rdf"] = {"p3.0": m["c_observed_p3.0"], "p4.0": m["c_observed_p4.0"]}
    m = metrics("peaks")
    out["peaks"] = {
        "ratio": [m["ratio_min"], m["ratio_max"]],
        "local": [m["local_ratio_min"], m["local_ratio_max"]],
    }
    m = metrics("cells")
    out["cells"] = {"ratio": [m["ratio_min"], m["ratio_max"]]}
    return out


def main() -> None:
    json.dump(record(), sys.stdout, indent=2)
    print()


if __name__ == "__main__":
    main()
