"""Recorded calibration constants for the qualitative equivalences.

The comparability constants in the norm equivalences checked by this package
are existential: no closed-form values are available.  The protocol is to
record the observed constants from a fixed seeded first run (the values
below, produced by scripts/record_calibration.py) and to regression-test
later runs against them, asserting that observed windows have not expanded.
Hard inequality sides with constant 1 are asserted exactly and never live
here.
"""

CALIBRATION = {
    # max (and, below 2, min) of exact Rademacher mean / square function
    "squarefunc": {
        "1.5": 1.0,
        "1.5_lo": 0.8908987181403393,
        "2.0": 1.0000000000000002,
        "2.0_lo": 0.9999999999999998,
        "3.0": 1.122462048309373,
        "4.0": 1.1892071150027212,
    },
    # corpus maxima of the cotype-2 / type-2 ratios
    "type_cotype": {
        "cotype_p1.5": 1.0470462772943352,
        "cotype_p2.0": 1.03529557908913,
        "type_p2.0": 1.0000000000000002,
        "type_p3.0": 1.076475857035066,
        "type_p4.0": 1.1420268758457843,
    },
    # observed window of lacunary p-norm / l2-norm ratios
    "lacunary": {"p4.0": {"lo": 1.1341147947167853, "hi": 1.1696624512942448}},
    # observed maxima of band square-function norm / ||f||_p
    "rdf": {"p3.0": 0.9350780690451802, "p4.0": 0.8879505984841907},
    # observed computed/predicted windows for the explicit window families
    "peaks": {
        "ratio": [0.6022589783858535, 0.7497727582543653],
        "local": [0.7839329719721064, 1.1263118420183942],
    },
    "cells": {"ratio": [1.378890791332187, 1.7854494232464777]},
}

# The seed and each suite's keyword arguments of the recorded runs:
# suite(seed, **RECORDED_CONFIG[name]) re-runs one.
RECORDED_CONFIG = {
    "seed": 20260810,
    "squarefunc": {"families": 50},
    "type_cotype": {"families": 50},
    "lacunary": {"trials": 100},
    "rdf": {"corpus": 100, "grid_log2": -6, "span": 8},
    "peaks": {"trials": 200, "p": 1.5, "J": 8, "K": 8, "alpha": 0.1},
    "cells": {"trials": 200, "p": 4.0, "K": 6, "n_max": 8},
}
