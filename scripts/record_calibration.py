#!/usr/bin/env python3
"""Recompute the recorded calibration constants from the fixed seeded runs.

Prints a CALIBRATION dict ready to paste into gaborlab/calibration.py.
Run after any intentional change to the seeded corpora.
"""

import json
import sys

from gaborlab import calibration
from gaborlab.suites import (
    cells_suite,
    lacunary_suite,
    peaks_suite,
    rdf_suite,
    squarefunc_suite,
    type_cotype_suite,
)


def record() -> dict:
    """The CALIBRATION dict observed on the recorded runs."""
    cfg = calibration.RECORDED_CONFIG
    seed = cfg["seed"]
    out = {}

    rep, _ = squarefunc_suite(seed, families=cfg["squarefunc"]["families"])
    out["squarefunc"] = {
        "1.5": rep.metrics["ratio_max_p1.5"],
        "1.5_lo": rep.metrics["ratio_min_p1.5"],
        "2.0": rep.metrics["ratio_max_p2.0"],
        "2.0_lo": rep.metrics["ratio_min_p2.0"],
        "3.0": rep.metrics["ratio_max_p3.0"],
        "4.0": rep.metrics["ratio_max_p4.0"],
    }

    rep, _ = type_cotype_suite(seed, families=cfg["type_cotype"]["families"])
    out["type_cotype"] = {
        k.removesuffix("_max"): v for k, v in rep.metrics.items()
    }

    rep, _ = lacunary_suite(seed, trials=cfg["lacunary"]["trials"])
    out["lacunary"] = {
        "p4.0": {"lo": rep.metrics["ratio_min"], "hi": rep.metrics["ratio_max"]}
    }

    rep, _ = rdf_suite(seed, corpus=cfg["rdf"]["corpus"])
    out["rdf"] = {
        "p3.0": rep.metrics["c_observed_p3.0"],
        "p4.0": rep.metrics["c_observed_p4.0"],
    }

    pk = cfg["peaks"]
    rep, _ = peaks_suite(seed, pk["trials"], pk["p"], pk["J"], pk["K"], pk["alpha"])
    out["peaks"] = {
        "ratio": [rep.metrics["ratio_min"], rep.metrics["ratio_max"]],
        "local": [rep.metrics["local_ratio_min"], rep.metrics["local_ratio_max"]],
    }

    cl = cfg["cells"]
    rep, _ = cells_suite(seed, cl["trials"], cl["p"], cl["K"], cl["n_max"])
    out["cells"] = {"ratio": [rep.metrics["ratio_min"], rep.metrics["ratio_max"]]}
    return out


def main() -> None:
    json.dump(record(), sys.stdout, indent=2)
    print()


if __name__ == "__main__":
    main()
