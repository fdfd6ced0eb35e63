"""The package's value classes.

The frozen ones are plans._Frozen subclasses: a field cannot be assigned or
deleted, and ==, hash and repr read the fields that _compared names, which
leave out what a value derives or is handed (a selection's growth-rule
verdict, a Gabor system's hull and atom matrix).  A function compares and
hashes by its grid and the bytes of its values.  Every construction check
runs in __init__, and defaults are made fresh for each value.
"""

from fractions import Fraction

import numpy as np
import pytest

from gaborlab.basic_sequences import WeightSequence
from gaborlab.fourier import FrequencyInterval
from gaborlab.frames import TranslateSelection
from gaborlab.gabor import GaborSystem, TimeFreqPoint
from gaborlab.grids import Grid, SampledFunction
from gaborlab.haar import HaarIndex
from gaborlab.plans import BlockPlan, Exponent
from gaborlab.reports import Report

GRID = Grid(0, -2, 4)
# |t| strictly increasing, but 2 < 4 * 1 + 4: off the growth rule
OFF_RULE = (TimeFreqPoint(1, 0), TimeFreqPoint(2, Fraction(1, 2)))

FROZEN = {
    "Exponent": lambda: Exponent(3.0),
    "BlockPlan": lambda: BlockPlan(Exponent(4.0), (37,)),
    "Grid": lambda: Grid(0, -2, 4),
    "SampledFunction": lambda: SampledFunction(GRID, [1, 2, 3, 4]),
    "TimeFreqPoint": lambda: TimeFreqPoint(1, Fraction(1, 2)),
    "GaborSystem": lambda: GaborSystem(SampledFunction.indicator(0, 1, GRID), OFF_RULE),
    "HaarIndex": lambda: HaarIndex(0, 1, 1),
    "TranslateSelection": lambda: TranslateSelection(OFF_RULE),
    "WeightSequence": lambda: WeightSequence((1 + 0j,), (1.0,)),
    "FrequencyInterval": lambda: FrequencyInterval(-1.0, 1.0),
}


@pytest.mark.parametrize("make", FROZEN.values(), ids=FROZEN)
def test_fields_refuse_assignment_and_deletion(make):
    value = make()
    fields = dict(vars(value))
    for name in [*fields, "unknown"]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert vars(value) == fields


@pytest.mark.parametrize("name", FROZEN)
def test_equal_values_compare_hash_and_print_alike(name):
    a, b = FROZEN[name](), FROZEN[name]()
    assert a is not b
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert a.__eq__(object()) is NotImplemented and a != object()


def test_a_selection_compares_hashes_and_prints_by_its_points_alone():
    found, handed = TranslateSelection(OFF_RULE), TranslateSelection(OFF_RULE, True)
    assert (found.follows_growth_rule, handed.follows_growth_rule) == (False, True)
    assert found == handed and hash(found) == hash(handed)
    assert repr(found) == repr(handed) == f"TranslateSelection(points={OFF_RULE!r})"
    assert found != TranslateSelection(OFF_RULE[:1])


def test_a_gabor_system_compares_and_prints_by_window_and_points_alone():
    window = SampledFunction.indicator(0, 1, GRID)
    a, b = GaborSystem(window, OFF_RULE), GaborSystem(window, OFF_RULE)
    vars(b)["hull"] = Grid(-8, -2, 40)
    vars(b)["atom_matrix"] = np.zeros((2, 40))
    # comparing the atom matrices, numpy arrays of several entries, would raise
    assert a == b
    assert a != GaborSystem(window, OFF_RULE[:1])
    assert repr(a) == repr(b) == f"GaborSystem(window={window!r}, points={OFF_RULE!r})"


def test_functions_compare_bitwise():
    f = SampledFunction(GRID, [1, 2, 3, 4])
    assert f != SampledFunction(GRID, [1, 2, 3, 5])
    assert f != SampledFunction(GRID.shifted(1), [1, 2, 3, 4])
    # 0.0 and -0.0 are equal floats but differ in their bits
    assert SampledFunction(GRID, [0.0] * 4) != SampledFunction(GRID, [-0.0] * 4)
    assert GaborSystem(f, OFF_RULE) != GaborSystem(f * 2, OFF_RULE)


def test_a_plan_compares_and_prints_by_p_and_sizes_alone():
    strict, loose = BlockPlan(Exponent(4.0), (37,)), BlockPlan(Exponent(4.0), (37,), False)
    assert strict == loose and hash(strict) == hash(loose)
    assert repr(loose) == "BlockPlan(p=Exponent(p=4.0), sizes=(37,))"


def test_defaults():
    assert (HaarIndex(0).scale, HaarIndex(0).position) == (-1, 0)
    assert TranslateSelection(OFF_RULE).follows_growth_rule is False
    a, b = Report("a", {}), Report("b", {})
    for field in ("metrics", "assertions", "calibration"):
        assert getattr(a, field) == {} and getattr(a, field) is not getattr(b, field)
    assert a.wall_time_s == 0.0
    a.metrics["x"] = 1
    assert b.metrics == {}


@pytest.mark.parametrize("make", [
    lambda: Grid(0, 1, 4),
    lambda: Grid(0, 0, 0),
    lambda: FrequencyInterval(1, 1),
    lambda: HaarIndex(0, -2),
    lambda: HaarIndex(0, -1, 1),
    lambda: HaarIndex(0, 1, 2),
    lambda: SampledFunction(GRID, [1, 2, 3]),
    lambda: SampledFunction(GRID, np.ones((2, 2))),
    lambda: TranslateSelection(OFF_RULE[::-1]),
    lambda: TranslateSelection((TimeFreqPoint(1, 0), TimeFreqPoint(-1, 0))),
], ids=["positive step", "no cells", "empty band", "scale below -1", "father off 0",
        "position past the scale", "short values", "values not a vector", "decreasing |t|",
        "equal |t|"])
def test_construction_checks_refuse(make):
    with pytest.raises(ValueError):
        make()
