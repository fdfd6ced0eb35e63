"""Command-line front door: exit codes, determinism, config handling."""

import ast
import contextlib
import gc
import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaborlab import cli
from gaborlab.cli import MAX_TRIALS, main
from gaborlab.frames import build_frame, frame_from_json, select_translates, spread_candidates
from gaborlab.gabor import TimeFreqPoint
from gaborlab.grids import CHUNK_CELLS, Exponent, row_chunks
from gaborlab.operators import reconstruct_rows, span_corpus
from gaborlab.plans import plan_from_sizes
from gaborlab.reports import Report, write_csv


# Python's limit on the decimal digits of an int written as text (0: none,
# before 3.10.7)
DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def run(args):
    return main(args)


FRAME_WITHOUT_SIZES = json.dumps({"plan": {"p": 4.0}, "selection": [], "step_log2": -3})
_PLAN_37 = plan_from_sizes(Exponent(4.0), (37,))
FRAME_37 = json.dumps(
    build_frame(_PLAN_37, select_translates(spread_candidates(37), _PLAN_37)).to_json()
)


def _frame_37_with_step(step_log2):
    """FRAME_37 with a stored window step its plan and selection do not give."""
    return {"frame.json": json.dumps({**json.loads(FRAME_37), "step_log2": step_log2})}


def _frame_37_with_sizes(sizes):
    """FRAME_37 with its block sizes written as the JSON text sizes."""
    return {"frame.json": FRAME_37.replace('"sizes": [37]', f'"sizes": {sizes}')}


def _points_37_modulated(e):
    """FRAME_37's points with every modulation s = 2^e, as JSON."""
    return [[t, [2**e, 1]] for t, _ in json.loads(FRAME_37)["selection"]]


def _frame_37_modulated(e):
    """FRAME_37 with every modulation s = 2^e and the window step that gives."""
    return {"frame.json": json.dumps({**json.loads(FRAME_37), "step_log2": -(e + 3),
                                      "selection": _points_37_modulated(e)})}


def _verify(*flags):
    """Files and argv of a verify-frame run on a real 37-point frame."""
    return ({"frame.json": FRAME_37},
            ["verify-frame", "--seed", "1", "--frame", "frame.json", *flags])


def _configured(config, *argv):
    """Files and argv of a run whose --config file holds config."""
    return {"cfg.json": json.dumps(config)}, [*argv, "--config", "cfg.json"]


PEAKS = ["counterexample", "--family", "peaks", "--seed", "1"]
CELLS = ["counterexample", "--family", "cells", "--seed", "1"]


# (id, files written to the test directory, argv; *.json names live there)
MALFORMED_INPUTS = [
    ("lambda_zero_denominator", {"lam.json": "[[[4, 0], [0, 1]]]"},
     ["build-frame", "--sizes", "37", "--lambda-file", "lam.json"]),
    ("lambda_missing", {},
     ["build-frame", "--sizes", "37", "--lambda-file", "absent.json"]),
    ("lambda_unparsable", {"lam.json": "[[[4, 1], [0"},
     ["build-frame", "--sizes", "37", "--lambda-file", "lam.json"]),
    ("frame_missing", {}, ["verify-frame", "--seed", "1", "--frame", "absent.json"]),
    ("frame_unparsable", {"frame.json": "{"},
     ["verify-frame", "--seed", "1", "--frame", "frame.json"]),
    ("frame_without_sizes", {"frame.json": FRAME_WITHOUT_SIZES},
     ["verify-frame", "--seed", "1", "--frame", "frame.json"]),
    *((f"frame_step_{step}", _frame_37_with_step(step),
       ["verify-frame", "--seed", "1", "--frame", "frame.json"])
      for step in (-40, 3)),
    # block sizes that are not JSON integers: one overflows a float, one
    # would be truncated to the frame's true size
    *((f"frame_sizes_{sizes}", _frame_37_with_sizes(f"[{sizes}]"),
       ["verify-frame", "--seed", "1", "--frame", "frame.json"])
      for sizes in ("1e400", "37.9")),
    ("sizes_not_integers", {}, ["build-frame", "--sizes", "37,x"]),
    # an empty --sizes is a plan of no integers, not the default plan
    ("sizes_empty", {}, ["build-frame", "--sizes", ""]),
    ("sizes_empty_in_config", *_configured({"sizes": ""}, "build-frame")),
    ("p_one", {}, ["build-frame", "--p", "1"]),
    ("p_below_one", {},
     ["counterexample", "--family", "cells", "--p", "0.5", "--seed", "1"]),
    ("p_nan", {}, ["build-frame", "--p", "nan"]),
    ("p_inf", {}, ["build-frame", "--p", "inf"]),
    ("zero_blocks", {}, ["build-frame", "--blocks", "0"]),
    ("candidates_zero", {}, ["build-frame", "--candidates", "0"]),
    ("candidates_negative", {}, ["build-frame", "--candidates", "-3"]),
    # plans whose float sizes overflow, and plans whose generated candidates
    # would not fit in memory
    ("growth_inf", {}, ["build-frame", "--growth", "inf"]),
    ("growth_1e308", {}, ["build-frame", "--growth", "1e308"]),
    ("blocks_2000", {}, ["build-frame", "--blocks", "2000"]),
    ("blocks_70", {}, ["build-frame", "--blocks", "70"]),
    ("sizes_1e22", {}, ["build-frame", "--sizes", str(10**22)]),
    ("base_not_integer_in_config", {"cfg.json": '{"base": "x"}'},
     ["build-frame", "--sizes", "37", "--config", "cfg.json"]),
    ("flag_not_for_family", {},
     ["counterexample", "--family", "cells", "--alpha", "0.1", "--seed", "1"]),
    ("flag_not_for_suite", {},
     ["inequalities", "--suite", "khintchine", "--grid-log2", "-6", "--seed", "1"]),
    *((f"trials_{trials}_{suite}", {},
       ["inequalities", "--suite", suite, "--trials", trials, "--seed", "1"])
      for suite in ("khintchine", "squarefunc", "type-cotype", "lacunary", "rdf",
                    "isometry")
      for trials in ("0", "-1")),
    *((f"trials_{trials}_{family}", {},
       ["counterexample", "--family", family, "--trials", trials, "--seed", "1"])
      for family in ("peaks", "cells") for trials in ("0", "-1")),
    ("trials_zero_in_config", {"cfg.json": '{"trials": 0}'},
     ["inequalities", "--suite", "isometry", "--config", "cfg.json", "--seed", "1"]),
    # trial counts past MAX_TRIALS are refused before any work
    *((f"trials_above_cap_{suite}", {},
       ["inequalities", "--suite", suite, "--trials", str(MAX_TRIALS + 1), "--seed", "1"])
      for suite in ("khintchine", "squarefunc", "type-cotype", "lacunary", "rdf",
                    "isometry")),
    *((f"trials_above_cap_{family}", {},
       ["counterexample", "--family", family, "--trials", str(MAX_TRIALS + 1), "--seed", "1"])
      for family in ("peaks", "cells")),
    ("corpus_above_cap", *_verify("--corpus", str(MAX_TRIALS + 1))),
    # span grids past grids.MAX_CELLS cells and corpus matrices past
    # MAX_CORPUS_ENTRIES entries are refused before either is made
    ("frame_s_2^30", _frame_37_modulated(30),
     ["verify-frame", "--seed", "1", "--frame", "frame.json"]),
    ("lambda_s_2^30", {"lam.json": json.dumps(_points_37_modulated(30))},
     ["build-frame", "--sizes", "37", "--lambda-file", "lam.json"]),
    ("frame_s_2^10_corpus_10000", _frame_37_modulated(10),
     ["verify-frame", "--seed", "1", "--frame", "frame.json", "--corpus", "10000"]),
    ("corpus_zero", *_verify("--corpus", "0")),
    ("corpus_negative", *_verify("--corpus", "-3")),
    ("tol_zero", *_verify("--tol", "0")),
    ("tol_negative", *_verify("--tol", "-0.5")),
    ("tol_nan", *_verify("--tol", "nan")),
    ("tol_inf", *_verify("--tol", "inf")),
    ("out_unwritable", {},
     ["build-frame", "--sizes", "37", "--out", "/nonexistent/r.json"]),
    ("frame_out_unwritable", {},
     ["build-frame", "--sizes", "37", "--frame-out", "/nonexistent/f.json"]),
    ("csv_unwritable", {},
     ["inequalities", "--suite", "khintchine", "--seed", "1",
      "--csv", "/nonexistent/x.csv"]),
    # translates past Python's int-to-text digit limit cannot be saved
    ("frame_out_digit_limit", {},
     ["build-frame", "--p", "6", "--blocks", "2", "--ratio", str(10**100),
      "--frame-out", "f.json"]),
    ("unknown_suite", {}, ["inequalities", "--suite", "nope", "--seed", "1"]),
    # config values: each is read as its flag, and a path takes only a string
    ("seed_not_integer_in_config", *_configured({"seed": "x"}, *PEAKS[:3])),
    ("seed_fraction_in_config", *_configured({"seed": 1.7}, *PEAKS[:3])),
    ("seed_bool_in_config", *_configured({"seed": True}, *PEAKS[:3])),
    ("suite_list_in_config", *_configured({"suite": ["a"]}, "inequalities", "--seed", "1")),
    ("family_list_in_config", *_configured({"family": ["peaks"]}, "counterexample",
                                           "--seed", "1")),
    ("out_list_in_config", *_configured({"out": ["x"]}, *PEAKS)),
    ("out_number_in_config", *_configured({"out": 1}, *PEAKS)),
    ("csv_number_in_config", *_configured({"csv": 2}, *PEAKS)),
    ("frame_number_in_config", *_configured({"frame": 5}, "verify-frame", "--seed", "1")),
    ("unknown_key_in_config", *_configured({"trails": 5}, *PEAKS)),
    ("abbreviated_key_in_config", *_configured({"tri": 5}, *PEAKS)),
    ("key_of_other_command_in_config", *_configured({"span": 4}, *PEAKS)),
    # single-flag ranges
    ("seed_negative", {}, [*PEAKS[:3], "--seed", "-1"]),
    ("J_zero", {}, [*PEAKS, "--J", "0"]),
    ("K_zero", {}, [*CELLS, "--K", "0"]),
    ("n_max_zero", {}, [*CELLS, "--n-max", "0"]),
    ("alpha_nan", {}, [*PEAKS, "--alpha", "nan"]),
    ("alpha_negative", {}, [*PEAKS, "--alpha", "-1"]),
    # every tail weight (j + 1)^-alpha rounds to 1.0, so the window is 0
    ("alpha_zero", {}, [*PEAKS, "--alpha", "0"]),
    ("alpha_1e-17", {}, [*PEAKS, "--alpha", "1e-17"]),
    ("span_zero", {}, ["inequalities", "--suite", "rdf", "--seed", "1", "--span", "0"]),
    ("grid_log2_positive", {},
     ["inequalities", "--suite", "rdf", "--seed", "1", "--grid-log2", "5"]),
    # parameters outside the family or suite's domain
    ("peaks_J_above_K", {}, [*PEAKS, "--J", "12"]),
    # peaks is the family for 1 < p < 2: at p near 2000 and above, the local
    # predictions overflow
    ("peaks_p_2", {}, [*PEAKS, "--p", "2"]),
    ("peaks_p_1e300", {}, [*PEAKS, "--p", "1e300"]),
    # peaks needs rising growth ratios over WEIGHT_HORIZON, about p <= 2(1 - alpha)
    *((f"peaks_p{p}_alpha{alpha}", {}, [*PEAKS, "--p", p, "--alpha", alpha])
      for p, alpha in (("1.85", "0.1"), ("1.9", "0.1"), ("1.5", "0.3"), ("1.5", "0.9"))),
    ("cells_K_1", {}, [*CELLS, "--K", "1"]),
    ("cells_p_below_2", {}, [*CELLS, "--p", "1.5"]),
    ("isometry_grid_log2_0", {},
     ["inequalities", "--suite", "isometry", "--seed", "1", "--grid-log2", "0"]),
    # lacunary's top frequency 2^8 needs grid_log2 <= -10 to stay below Nyquist
    *((f"lacunary_grid_log2_{grid_log2}", {},
       ["inequalities", "--suite", "lacunary", "--seed", "1", "--grid-log2", grid_log2])
      for grid_log2 in ("0", "-1", "-9")),
    # cells' p-th powers overflow a float: at p = 400 in the trials, from
    # p = 1000 in the growth scan too
    *((f"cells_p_{p}", {}, [*CELLS, "--trials", "2", "--p", p])
      for p in ("400", "1000", "1e30")),
    # grids past grids.MAX_CELLS are refused before any is made
    *((f"{suite}_grid_log2_-40", {},
       ["inequalities", "--suite", suite, "--seed", "1", "--grid-log2", "-40"])
      for suite in ("rdf", "isometry", "lacunary")),
    ("peaks_K_40", {}, [*PEAKS, "--J", "40", "--K", "40"]),
    ("cells_K_40", {}, [*CELLS, "--K", "40"]),
    ("cells_n_max_1e11", {}, [*CELLS, "--n-max", str(10**11)]),
]


class TestExitCodes:
    def test_inequalities_pass(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = run(
            ["inequalities", "--suite", "khintchine", "--seed", "11", "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] is True

    def test_missing_seed_is_config_error(self, capsys):
        code = run(["inequalities", "--suite", "khintchine"])
        err = capsys.readouterr().err
        assert code == 2
        assert "seed" in err

    @pytest.mark.parametrize(
        "files,argv",
        [case[1:] for case in MALFORMED_INPUTS],
        ids=[case[0] for case in MALFORMED_INPUTS],
    )
    def test_malformed_input_is_config_error(self, tmp_path, monkeypatch, capsys,
                                             files, argv):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        code = run([str(tmp_path / a) if a.endswith(".json") else a for a in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("config error: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)

    def test_peaks_growth_is_decided_on_the_horizon(self, capsys):
        # 1.21 > 2(1 - 0.4), yet the ratios still rise over n <= WEIGHT_HORIZON
        assert run([*PEAKS, "--p", "1.21", "--alpha", "0.4", "--trials", "5"]) == 0
        assert json.loads(capsys.readouterr().out)["assertions"]["growth_monotone"]

    def test_digit_limit_writes_no_frame_file(self, tmp_path, capsys):
        frame_path = tmp_path / "f.json"
        code = run(["build-frame", "--p", "6", "--blocks", "2", "--ratio",
                    str(10**100), "--frame-out", str(frame_path)])
        assert code == 2
        assert "more than" in capsys.readouterr().err
        assert not frame_path.exists()

    @pytest.mark.parametrize("t,s,refused", [
        (10**DIGITS - 1, 0, False),
        (-(10**DIGITS - 1), Fraction(1, 10**DIGITS - 1), False),
        (2 ** (DIGITS * 3321928 // 10**6), 0, False),  # the bit screen's bound
        (10**DIGITS, 0, True),
        (-(10**DIGITS), 0, True),
        (Fraction(1, 10**DIGITS), 0, True),
        (4, Fraction(-(10**DIGITS), 3), True),
        (4, Fraction(1, 10**DIGITS), True),
    ], ids=["limit", "limit-negative-and-s", "bit-bound", "numerator", "negative",
            "denominator", "s-numerator", "s-denominator"])
    @pytest.mark.skipif(not DIGITS, reason="this Python writes ints of any length")
    def test_digit_limit_is_exact(self, t, s, refused):
        selection = SimpleNamespace(points=[TimeFreqPoint(4, 0), TimeFreqPoint(t, s)])
        with contextlib.nullcontext() if not refused else pytest.raises(
                cli.ConfigError, match="^--frame-out: point 1 of the selection has more "
                                       f"than {DIGITS} decimal digits"):
            cli._check_int_digits(selection)

    def test_span_corpus_never_converges_but_fails(self, tmp_path, capsys):
        # below 1e-15 a converged loop used to miss tol against f (exit 1);
        # now each function meets tol or the run raises NoConvergence (exit 3)
        plan = plan_from_sizes(Exponent(4.0), (72, 144, 288))
        frame = build_frame(plan, select_translates(spread_candidates(504), plan))
        frame_path = tmp_path / "frame.json"
        frame_path.write_text(json.dumps(frame.to_json()))
        out = tmp_path / "r.json"
        argv = ["verify-frame", "--frame", str(frame_path), "--corpus", "300",
                "--seed", "11", "--out", str(out)]
        assert run([*argv, "--tol", "3e-16"]) == 0
        assert json.loads(out.read_text())["metrics"]["max_iterations"] == 2
        capsys.readouterr()
        assert run([*argv, "--tol", "1e-17"]) == 3
        assert "NoConvergence" in capsys.readouterr().err

    def test_modulated_frame_within_the_caps_verifies(self, tmp_path, monkeypatch, capsys):
        # s = 2^10 takes a span grid of 2^13 cells: 3 functions pass, and a
        # corpus fills MAX_CORPUS_ENTRIES exactly before it is refused
        path = tmp_path / "frame.json"
        path.write_text(_frame_37_modulated(10)["frame.json"])
        argv = ["verify-frame", "--seed", "1", "--frame", str(path), "--corpus"]
        assert run([*argv, "3"]) == 0
        monkeypatch.setattr(cli, "MAX_CORPUS_ENTRIES", 4 * 2**13)
        assert run([*argv, "4"]) == 0
        capsys.readouterr()
        assert run([*argv, "5"]) == 2
        assert capsys.readouterr().err.startswith("config error: --corpus 5 ")

    @pytest.mark.parametrize("last,code,err", [
        # 4 t_35 breaks the growth rule, yet the n^2 enumeration certifies it
        (lambda t34, t35: 4 * t35, 0, ""),
        # t_36 - t_35 = t_35 - t_34: the refusal names both pairs
        (lambda t34, t35: 2 * t35 - t34, 3,
         "error: InsufficientSpread: selection lacks the disjointness/clearance "
         "certificates the operator's mass accounting relies on: overlap between the "
         "difference sets of (i, j) = (35, 34) [blocks 0, 0] and (36, 35) [blocks 0, 0]\n"),
    ], ids=["certified", "overlapping"])
    def test_frame_off_the_growth_rule(self, tmp_path, capsys, last, code, err):
        frame = json.loads(FRAME_37)
        (t34, _), (t35, _), (_, s) = frame["selection"][-3:]
        frame["selection"][-1] = [[last(t34[0], t35[0]), 1], s]
        path = tmp_path / "frame.json"
        path.write_text(json.dumps(frame))
        assert run(["verify-frame", "--frame", str(path), "--corpus", "5", "--seed", "1"]) == code
        assert capsys.readouterr().err == err

    def test_infeasible_plan_exit(self, capsys):
        code = run(["build-frame", "--p", "2.0", "--blocks", "1"])
        err = capsys.readouterr().err
        assert code == 3
        assert "InfeasiblePlan" in err


ROOT = Path(__file__).resolve().parent.parent
SUITE_MODULES = ["basic_sequences", "fourier", "stochastic", "suites"]
# modules a command loads only once it does array work (numpy imports inspect),
# each with the module that is in sys.modules once it has executed: numpy's
# compiled core, which numpy's own run imports, so that a numpy bound lazily
# and not yet run does not count as loaded
HEAVY = {"numpy": "numpy._core._multiarray_umath", "inspect": "inspect"}
NUMPY_RAN = HEAVY["numpy"]
# run the commands given as JSON in argv[1] through main in this interpreter
# (the exit code of --help is SystemExit's), then print their exit codes, the
# gaborlab modules in sys.modules, those not yet executed and the HEAVY ones
# executed
IMPORT_SCOPE = """
import contextlib, io, json, sys, types
import gaborlab.cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(gaborlab.cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
modules = {name.removeprefix("gaborlab."): module for name, module in sys.modules.items()
           if name.startswith("gaborlab.")}
print(json.dumps([codes, list(modules),
                  [name for name, module in modules.items() if type(module) is not types.ModuleType],
                  [name for name, ran in %r.items() if ran in sys.modules]]))
""" % HEAVY
# run the commands given as JSON in argv[1] and print, for each Stopwatch a
# command starts, whether numpy had executed when it started and when it stopped
STOPWATCH_SCOPE = """
import contextlib, io, json, sys
import gaborlab.cli, gaborlab.reports
watch, seen = gaborlab.reports.Stopwatch, []
enter, leave = watch.__enter__, watch.__exit__
def entered(self):
    seen.append([%(ran)r in sys.modules])
    return enter(self)
def left(self, *exc):
    seen[-1].append(%(ran)r in sys.modules)
    return leave(self, *exc)
watch.__enter__, watch.__exit__ = entered, left
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(gaborlab.cli.main(argv))
print(json.dumps([codes, seen]))
""" % {"ran": NUMPY_RAN}


def _lambda_file(path, s):
    """Write the 37 candidates (4 * 5^n, s) in points_to_json form, with every
    other translate negated; return the path as text."""
    path.write_text(json.dumps([[[(-1) ** n * 4 * 5**n, 1], [s.numerator, s.denominator]]
                                for n in range(37)]))
    return str(path)


def _bench_constant(module, name):
    """The literal value of a module-level name of bench/<module>.py."""
    tree = ast.parse((ROOT / "bench" / f"{module}.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign) and node.targets[0].id == name)


def _bench_layers():
    """The LAYERS tuple of bench/spans.py, which reads each from sys.modules."""
    return _bench_constant("spans", "LAYERS")


def _spawn(cwd, script, *argv, timeout=None, stdout=subprocess.PIPE):
    """script run with argv in a fresh interpreter in cwd, on this tree's src."""
    path = os.pathsep.join([str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, "-c", script, *argv], cwd=cwd, timeout=timeout,
                          env=dict(os.environ, PYTHONPATH=path), stdout=stdout,
                          stderr=subprocess.PIPE, text=True)


def _run_script(tmp_path, script, commands):
    """The JSON that script prints in a fresh interpreter run on commands."""
    done = _spawn(tmp_path, script, json.dumps(commands))
    done.check_returncode()
    return json.loads(done.stdout)


def _modules_after(tmp_path, *commands):
    """(exit codes, gaborlab modules in sys.modules, those still unexecuted,
    HEAVY modules loaded) of a fresh interpreter after import gaborlab.cli and
    the commands."""
    codes, loaded, unexecuted, heavy = _run_script(tmp_path, IMPORT_SCOPE, commands)
    return codes, set(loaded), set(unexecuted), heavy


# config errors found while parsing: argparse's, a converter's, a --config
# file's and an output path's
PARSE_ERRORS = [
    ["inequalities", "--suite", "khintchine", "--seed", "-1"],
    ["inequalities", "--suite", "khintchine", "--trials", "0", "--seed", "1"],
    ["inequalities", "--suite", "khintchine"],
    ["inequalities", "--suite", "nope", "--seed", "1"],
    ["counterexample", "--family", "peaks", "--seed", "1", "--alpha", "nan"],
    ["verify-frame", "--frame", "f.json", "--seed", "1", "--tol", "0"],
    ["build-frame", "--blocks", "x"],
    ["build-frame", "--config", "absent.json"],
    ["build-frame", "--out", "/nonexistent/r.json"],
    ["build-frame", "--p", "1"],
    ["counterexample", "--family", "peaks", "--seed", "1", "--p", "nan"],
    ["frobnicate"],
]


class TestImportScope:
    """A command executes only the modules it uses; every module stays in
    sys.modules for the benchmark's tracer."""

    def test_import_registers_every_layer_and_executes_none_of_the_work(self, tmp_path):
        _, loaded, unexecuted, heavy = _modules_after(tmp_path)
        assert set(_bench_layers()) <= loaded
        assert {"frames", "grids", "gabor", "haar", *SUITE_MODULES} <= unexecuted
        assert heavy == []

    def test_help_loads_neither_numpy_nor_inspect(self, tmp_path):
        from gaborlab.cli import COMMANDS

        codes, _, _, heavy = _modules_after(
            tmp_path, ["--help"], *([command, "--help"] for command in COMMANDS))
        assert codes == [0] * (len(COMMANDS) + 1)
        assert heavy == []

    def test_parse_errors_load_neither_numpy_nor_inspect(self, tmp_path):
        codes, _, _, heavy = _modules_after(tmp_path, *PARSE_ERRORS)
        assert codes == [2] * len(PARSE_ERRORS)
        assert heavy == []

    def test_re_exports_are_the_owning_modules_names(self):
        import gaborlab

        assert gaborlab.Exponent is gaborlab.grids.Exponent
        assert gaborlab.Exponent is gaborlab.plans.Exponent
        assert all(getattr(gaborlab, name) is not None for name in gaborlab.__all__)
        with pytest.raises(AttributeError):
            gaborlab.no_such_name

    def test_numpy_loads_before_each_frame_stopwatch(self, tmp_path):
        # [numpy executed when the stopwatch starts, when it stops] of each
        # command: verify-frame's wall_time_s leaves the numpy import out, an
        # unmodulated build executes no numpy at all, and a modulated one
        # executes it inside its stopwatch
        codes, seen = _run_script(tmp_path, STOPWATCH_SCOPE, [
            ["build-frame", "--sizes", "37", "--frame-out", "f.json"],
            ["verify-frame", "--frame", "f.json", "--corpus", "5", "--seed", "1"]])
        assert codes == [0, 0]
        assert seen == [[False, False], [True, True]]
        lam = _lambda_file(tmp_path / "lambda.json", Fraction(1, 16))
        codes, seen = _run_script(tmp_path, STOPWATCH_SCOPE, [
            ["build-frame", "--sizes", "37", "--lambda-file", lam]])
        assert codes == [0]
        assert seen == [[False, True]]

    def test_unmodulated_builds_execute_no_numpy(self, tmp_path):
        lam = _lambda_file(tmp_path / "lambda.json", Fraction(0))
        codes, _, unexecuted, heavy = _modules_after(
            tmp_path, ["build-frame", "--sizes", "37", "--frame-out", "f.json"],
            ["build-frame", "--p", "4", "--blocks", "4", "--out", "r.json",
             "--frame-out", "g.json"],
            ["build-frame", "--sizes", "37", "--lambda-file", lam, "--frame-out", "h.json"])
        assert codes == [0, 0, 0]
        assert "numpy" not in heavy
        assert "frames" not in unexecuted

    def test_modulated_build_executes_numpy(self, tmp_path):
        lam = _lambda_file(tmp_path / "lambda.json", Fraction(1, 16))
        codes, _, _, heavy = _modules_after(
            tmp_path, ["build-frame", "--sizes", "37", "--lambda-file", lam,
                       "--frame-out", "f.json"])
        assert codes == [0]
        assert "numpy" in heavy

    def test_refused_plans_run_no_array_code(self, tmp_path):
        codes, _, unexecuted, heavy = _modules_after(
            tmp_path, ["build-frame", "--p", "2.05", "--blocks", "3"],
            ["build-frame", "--p", "3", "--sizes", "1,1"])
        assert codes == [3, 3]
        assert heavy == []
        assert {"frames", "grids", "haar", "gabor", "operators"} <= unexecuted

    def test_only_verify_frame_executes_the_operators(self, tmp_path):
        codes, _, unexecuted, _ = _modules_after(
            tmp_path, ["build-frame", "--sizes", "37", "--frame-out", "f.json"])
        assert codes == [0]
        assert {"operators", "stochastic"} <= unexecuted
        codes, _, unexecuted, _ = _modules_after(
            tmp_path, ["build-frame", "--sizes", "37", "--frame-out", "f.json"],
            ["verify-frame", "--frame", "f.json", "--corpus", "5", "--seed", "1"])
        assert codes == [0, 0]
        assert "operators" not in unexecuted

    def test_frame_commands_leave_the_suites_unexecuted(self, tmp_path):
        codes, _, unexecuted, _ = _modules_after(
            tmp_path, ["build-frame", "--p", "2.05", "--blocks", "3"])
        assert codes == [3]
        assert set(SUITE_MODULES) <= unexecuted
        codes, _, unexecuted, _ = _modules_after(
            tmp_path, ["build-frame", "--sizes", "37", "--frame-out", "f.json"],
            ["verify-frame", "--frame", "f.json", "--corpus", "5", "--seed", "1"])
        assert codes == [0, 0]
        assert "frames" not in unexecuted
        assert set(SUITE_MODULES) <= unexecuted

    def test_suite_command_leaves_frames_unexecuted(self, tmp_path):
        codes, _, unexecuted, _ = _modules_after(
            tmp_path, ["inequalities", "--suite", "khintchine", "--trials", "5", "--seed", "1"])
        assert codes == [0]
        assert "suites" not in unexecuted
        assert "frames" in unexecuted

    def test_suites_execute_only_the_modules_they_use(self, tmp_path):
        codes, _, unexecuted, _ = _modules_after(
            tmp_path, ["inequalities", "--suite", "khintchine", "--trials", "5", "--seed", "1"])
        assert codes == [0]
        assert {"basic_sequences", "fourier", "gabor"} <= unexecuted
        codes, _, unexecuted, _ = _modules_after(
            tmp_path, ["counterexample", "--family", "peaks", "--trials", "5", "--seed", "1"])
        assert codes == [0]
        assert "basic_sequences" not in unexecuted


# the benchmark's process entry, which calls main() with argv=None
CLI_ENTRY = _bench_constant("run", "CLI_ENTRY")
# (argv, exit code) of each way a command ends: a suite and a frame build that
# write every output, a config error, a refused plan and --help
ENDINGS = [
    (["build-frame", "--sizes", "37", "--out", "r.json", "--frame-out", "f.json"], 0),
    (["inequalities", "--suite", "khintchine", "--trials", "5", "--seed", "1",
      "--out", "r.json", "--csv", "rows.csv"], 0),
    (["inequalities", "--suite", "khintchine", "--trials", "0", "--seed", "1"], 2),
    (["build-frame", "--p", "2.05", "--blocks", "3", "--out", "r.json"], 3),
    (["build-frame", "--help"], 0),
]


def _ending(cwd, code, out, err):
    """(exit code, stdout, stderr, each written file) of a command run in cwd,
    wall_time_s left out."""
    files = {path.name: WALL_TIME.sub("", path.read_text()) for path in sorted(cwd.iterdir())}
    return code, WALL_TIME.sub("", out), err, files


# run main() as the process entry and print on stderr, after the command's
# own output: the exit code, whether the collector was on while main parsed,
# whether it is on and the heap frozen once main returned, and the count of
# unreachable objects the command left
COLLECTOR_SCOPE = """
import gc, sys
import gaborlab.cli as cli
parse, parsing = cli._parse_args, []
def watched(argv):
    parsing.append(gc.isenabled())
    return parse(argv)
cli._parse_args = watched
code = cli.main()
ended = [gc.isenabled(), gc.get_freeze_count() > 0]
gc.unfreeze()
print(code, *parsing, *ended, gc.collect(), file=sys.stderr)
"""


def _collector(cwd, *argv):
    """COLLECTOR_SCOPE's line for a spawned command, as a list of strings."""
    return _spawn(cwd, COLLECTOR_SCOPE, *argv).stderr.splitlines()[-1].split()


class TestProcessEntry:
    """main(argv=None) runs the process entry with the cyclic collector off and
    ends it with gc.freeze(); a call with argv leaves the collector as it was,
    and either way the outputs agree."""

    def test_the_process_entry_freezes_the_heap(self, tmp_path):
        # the collector is off from before the parse to the end
        code, parsing, enabled, frozen, _ = _collector(tmp_path, "frobnicate")
        assert (code, parsing, enabled, frozen) == ("2", "False", "False", "True")

    @pytest.mark.parametrize("argv,sizes", [
        ([*PEAKS, "--trials"], ("5", "400")),
        (["verify-frame", "--seed", "1", "--frame", "frame.json", "--corpus"], ("5", "2000")),
    ], ids=["peaks", "verify-frame"])
    def test_uncollected_objects_do_not_grow_with_the_work(self, tmp_path, argv, sizes):
        # with the collector off, a reference cycle made per trial would stay
        # in memory to the end; a command leaves only a fixed set
        (tmp_path / "frame.json").write_text(FRAME_37)
        ends = [_collector(tmp_path, *argv, size) for size in sizes]
        assert [end[0] for end in ends] == ["0", "0"]
        assert ends[0][-1] == ends[1][-1]

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_an_explicit_argv_keeps_the_collector(self, capsys, enabled):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert main(["frobnicate"]) == 2
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("argv,code", ENDINGS, ids=[
        "build-frame", "suite-csv", "config-error", "refused-plan", "help"])
    def test_spawned_entry_matches_an_in_process_call(self, tmp_path, monkeypatch, capsys,
                                                      argv, code):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to the terminal
        spawned_dir, here = tmp_path / "spawned", tmp_path / "in-process"
        for folder in (spawned_dir, here):
            folder.mkdir()
        done = _spawn(spawned_dir, CLI_ENTRY, *argv)
        spawned = _ending(spawned_dir, done.returncode, done.stdout, done.stderr)
        monkeypatch.chdir(here)
        try:
            got = main(argv)
        except SystemExit as exc:
            got = exc.code
        captured = capsys.readouterr()
        assert spawned == _ending(here, got, captured.out, captured.err)
        assert got == code
        assert gc.get_freeze_count() == 0  # an explicit-argv call keeps its collector


class TestDeterminism:
    def test_metric_blocks_byte_identical(self, tmp_path, capsys):
        outs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            run(
                [
                    "counterexample",
                    "--family",
                    "cells",
                    "--trials",
                    "20",
                    "--seed",
                    "42",
                    "--out",
                    str(path),
                ]
            )
            capsys.readouterr()
            payload = json.loads(path.read_text())
            payload.pop("wall_time_s")
            outs.append(json.dumps(payload, sort_keys=True).encode())
        assert outs[0] == outs[1]

    def test_different_seed_changes_metrics(self, tmp_path, capsys):
        blocks = []
        for seed in ("1", "2"):
            path = tmp_path / f"s{seed}.json"
            run(
                [
                    "inequalities",
                    "--suite",
                    "khintchine",
                    "--trials",
                    "25",
                    "--seed",
                    seed,
                    "--out",
                    str(path),
                ]
            )
            capsys.readouterr()
            blocks.append(json.loads(path.read_text())["metrics"])
        assert blocks[0] != blocks[1]


class TestConfigFile:
    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suite": "khintchine", "seed": 5, "trials": 10}))
        out = tmp_path / "r.json"
        code = run(
            [
                "inequalities",
                "--config",
                str(cfg),
                "--trials",
                "15",
                "--out",
                str(out),
            ]
        )
        capsys.readouterr()
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["trials"] == 15
        assert payload["config"]["seed"] == 5

    def test_counterexample_echoes_alpha(self, tmp_path, capsys):
        # the report and stdout carry the suite's own config, alpha included
        metrics = []
        for alpha in (0.1, 0.2):
            out = tmp_path / f"a{alpha}.json"
            code = run(["counterexample", "--family", "peaks", "--trials", "5",
                        "--seed", "3", "--alpha", str(alpha), "--out", str(out)])
            printed = json.loads(capsys.readouterr().out)
            assert code == 0
            for payload in (json.loads(out.read_text()), printed):
                assert payload["config"]["alpha"] == alpha
            metrics.append(printed["metrics"])
        assert metrics[0] != metrics[1]


# one run per subcommand and per family and suite: flags of the config's keys
# and values, a value that reads as a number given both as a JSON number and
# as a string
CONFIG_RUNS = {
    "build-frame": ("build-frame", {"p": 4, "sizes": "37", "ratio": 5}),
    "verify-frame": ("verify-frame", {"frame": "frame.json", "corpus": 5, "seed": 3,
                                      "tol": 1e-9}),
    "peaks": ("counterexample", {"family": "peaks", "trials": 5, "seed": 3, "p": 1.5,
                                 "J": 6, "alpha": 0.2}),
    "cells": ("counterexample", {"family": "cells", "trials": "5", "seed": 3, "p": 4,
                                 "K": 5, "n_max": 6}),
    **{suite: ("inequalities", {"suite": suite, "trials": 5, "seed": 3})
       for suite in ("khintchine", "squarefunc", "type-cotype")},
    "lacunary": ("inequalities", {"suite": "lacunary", "trials": 5, "seed": 3,
                                  "grid_log2": -11}),
    "rdf": ("inequalities", {"suite": "rdf", "trials": 5, "seed": 3, "grid_log2": -5,
                             "span": 4}),
    "isometry": ("inequalities", {"suite": "isometry", "trials": 5, "seed": "3",
                                  "grid-log2": "-5", "span": 2}),
}

# every flag of each subcommand
COMMAND_FLAGS = {
    "build-frame": ["config", "p", "blocks", "growth", "sizes", "candidates", "base",
                    "ratio", "lambda-file", "out", "frame-out"],
    "verify-frame": ["config", "frame", "corpus", "seed", "tol", "out", "csv"],
    "counterexample": ["config", "family", "p", "trials", "seed", "J", "K", "n-max",
                       "alpha", "out", "csv"],
    "inequalities": ["config", "suite", "trials", "seed", "grid-log2", "span", "out",
                     "csv"],
}

WALL_TIME = re.compile(r'"wall_time_s": [^,\n]*')


class TestConfigEqualsFlags:
    @pytest.mark.parametrize("label", list(CONFIG_RUNS))
    def test_config_file_reads_as_its_flags(self, tmp_path, monkeypatch, capsys, label):
        command, config = CONFIG_RUNS[label]
        (tmp_path / "frame.json").write_text(FRAME_37)
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        monkeypatch.chdir(tmp_path)
        flags = [text for key, value in config.items()
                 for text in (f"--{key.replace('_', '-')}", str(value))]
        printed = []
        for argv in ([command, *flags], [command, "--config", "cfg.json"]):
            code = run(argv)
            printed.append((code, WALL_TIME.sub("", capsys.readouterr().out)))
        assert printed[0] == printed[1]
        assert printed[0][0] == 0 and printed[0][1].startswith("{")

    def test_config_number_echoes_as_flag(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 4, "sizes": "37", "blocks": "2"}))
        assert run(["build-frame", "--config", str(cfg)]) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert (config["p"], config["blocks"], config["growth"]) == (4.0, 2, None)

    @pytest.mark.parametrize("command", list(COMMAND_FLAGS))
    def test_help_lists_every_flag(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            run([command, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"--[A-Za-z][\w-]*", capsys.readouterr().out))
        assert listed == {"--help", *(f"--{flag}" for flag in COMMAND_FLAGS[command])}


class TestFramePipeline:
    def test_build_then_verify(self, tmp_path, capsys):
        frame_path = tmp_path / "frame.json"
        report_path = tmp_path / "build.json"
        code = run(
            [
                "build-frame",
                "--p",
                "4",
                "--sizes",
                "72,144,288",
                "--frame-out",
                str(frame_path),
                "--out",
                str(report_path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        build = json.loads(report_path.read_text())
        assert build["assertions"]["difference_sets_disjoint"]
        assert build["metrics"]["q"] == pytest.approx(0.4677, abs=1e-3)

        verify_path = tmp_path / "verify.json"
        csv_path = tmp_path / "trials.csv"
        code = run(
            [
                "verify-frame",
                "--frame",
                str(frame_path),
                "--corpus",
                "5",
                "--seed",
                "7",
                "--out",
                str(verify_path),
                "--csv",
                str(csv_path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        verify = json.loads(verify_path.read_text())
        assert verify["assertions"]["contraction_below_q"]
        assert verify["assertions"]["reconstruction_within_tol"]
        header = csv_path.read_text().splitlines()[0]
        assert "contraction_ratio" in header
        assert len(csv_path.read_text().splitlines()) == 6

    def test_many_blocks_make_only_their_atoms(self, tmp_path):
        # 40 blocks take the atoms up to scale 5, made in closed form; the
        # Haar enumeration up to scale 40 would hold 2^41 atoms
        done = _spawn(tmp_path, CLI_ENTRY, "build-frame", "--p", "100",
                      "--sizes", ",".join(["240"] * 40), timeout=60)
        assert done.returncode == 0
        assert json.loads(done.stdout)["passed"] is True


class TestCorpusChunks:
    """verify-frame's corpus, drawn and solved one chunk of trials at a time,
    on the 37-point frame at s = 2^10: 2^13 span cells, two rows a chunk."""

    @pytest.fixture(scope="class")
    def frame(self):
        frame = frame_from_json(json.loads(_frame_37_modulated(10)["frame.json"]))
        assert CHUNK_CELLS // frame.span_grid.count == 2
        return frame

    def test_chunked_columns_equal_one_batch(self, frame):
        # 9 trials take the chunks 2, 2, 2 and 3 (the lone last row joins)
        assert len(list(row_chunks(9, frame.span_grid.count))) == 4
        rec = reconstruct_rows(frame, span_corpus(frame, 9, 5), 1e-8)
        want = [rec.contraction_ratio, rec.relative_error, rec.synthesis_residual,
                rec.iterations]
        got = cli._corpus_columns(frame, 9, 5, 1e-8)
        assert [np.array(column).tobytes() for column in got.values()] == \
            [column.tobytes() for column in want]

    def test_traced_peak_stays_flat_in_the_corpus_size(self, frame):
        # solving the whole corpus at once held about six corpus copies
        copy = 64 * frame.span_grid.count * 16  # 64 complex rows: 8 MiB
        peaks = []
        for size in (64, 256):
            tracemalloc.start()
            try:
                cli._corpus_columns(frame, size, 5, 1e-8)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < copy / 2
        assert peaks[1] - peaks[0] < copy / 32


@pytest.fixture(scope="module")
def frame_504_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("frame") / "frame.json"
    assert run(["build-frame", "--p", "4", "--sizes", "72,144,288",
                "--frame-out", str(path)]) == 0
    return path


class TestRecordedSeedMetrics:
    """verify-frame metric blocks at recorded seeds, compared exactly."""

    def metrics(self, tmp_path, frame_path, *flags):
        out = tmp_path / "r.json"
        assert run(["verify-frame", "--frame", str(frame_path), *flags,
                    "--out", str(out)]) == 0
        return json.loads(out.read_text())["metrics"]

    def test_corpus_2000_recorded_seed(self, tmp_path, capsys, frame_504_file):
        got = self.metrics(tmp_path, frame_504_file, "--corpus", "2000",
                           "--seed", "20260810")
        assert got == {
            "max_contraction_ratio": 0.13199153713089842,
            "max_reconstruction_error": 3.676477803584136e-16,
            "max_synthesis_residual": 0.13199153713089842,
            "max_iterations": 1,
            "q": 0.4677071733467426,
        }

    def test_corpus_300_near_rounding_floor(self, tmp_path, capsys, frame_504_file):
        got = self.metrics(tmp_path, frame_504_file, "--corpus", "300",
                           "--seed", "11", "--tol", "3e-16")
        assert (got["max_contraction_ratio"], got["max_reconstruction_error"],
                got["max_iterations"]) == (0.12946689081911605, 2.9636587505445273e-16, 2)


def _bench_workloads():
    """bench/workloads.py, loaded without writing bytecode next to it."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


WORKLOADS = _bench_workloads()

# metric blocks of the benchmark's suites commands at the recorded seed
SUITE_METRICS = {
    "peaks": {
        "J": 8,
        "K": 8,
        "growth_first": 1.0,
        "growth_last": 2.0613307468920383,
        "local_ratio_max": 1.1263118420183942,
        "local_ratio_min": 0.7839329719721064,
        "p": 1.5,
        "ratio_max": 0.7497727582543653,
        "ratio_min": 0.6022589783858535,
        "trials": 200,
    },
    "cells": {
        "K": 6,
        "growth_threshold_n": 6,
        "n_max": 8,
        "p": 4.0,
        "ratio_max": 1.7854494232464777,
        "ratio_min": 1.378890791332187,
        "separated_bound": 3.363585661014858,
        "separated_norm": 1.681792830507429,
        "trials": 200,
    },
    "khintchine": {
        "ratio_max_p1.5": 1.0000000000000002,
        "ratio_max_p2.0": 1.0000000000000002,
        "ratio_max_p3.0": 1.1364088939063723,
        "ratio_max_p4.0": 1.2538871933085838,
        "ratio_min_p1.5": 0.9237150414728074,
        "ratio_min_p2.0": 0.9999999999999997,
        "ratio_min_p3.0": 0.9999999999999999,
        "ratio_min_p4.0": 0.9999999999999999,
    },
    "squarefunc": {
        "ratio_max_p1.5": 1.0,
        "ratio_max_p2.0": 1.0000000000000002,
        "ratio_max_p3.0": 1.122462048309373,
        "ratio_max_p4.0": 1.1892071150027212,
        "ratio_min_p1.5": 0.8908987181403393,
        "ratio_min_p2.0": 0.9999999999999998,
        "ratio_min_p3.0": 1.0,
        "ratio_min_p4.0": 1.0,
    },
    "type-cotype": {
        "cotype_p1.5_max": 1.0470462772943352,
        "cotype_p2.0_max": 1.03529557908913,
        "type_p2.0_max": 1.0000000000000002,
        "type_p3.0_max": 1.076475857035066,
        "type_p4.0_max": 1.1420268758457843,
    },
    "lacunary": {
        "p2_deviation": 1.1102230246251565e-15,
        "ratio_max": 1.1696624512942448,
        "ratio_min": 1.1341147947167853,
    },
    "rdf": {
        "c_observed_p3.0": 0.9350780690451802,
        "c_observed_p4.0": 0.8879505984841907,
        "plancherel_deviation": 8.881784197001252e-16,
    },
    "isometry": {
        "max_modulus_deviation": 8.881784197001252e-16,
        "max_norm_deviation": 2.376432742653809e-16,
    },
    "rdf_g7_s8": {
        "c_observed_p3.0": 0.9313131758538333,
        "c_observed_p4.0": 0.8811206655426719,
        "plancherel_deviation": 8.881784197001252e-16,
    },
}


# assertion blocks of the same commands: every gate on, every gate passing
SUITE_ASSERTIONS = {
    "peaks": dict.fromkeys(["growth_monotone", "local_window", "ratio_window"], True),
    "cells": dict.fromkeys(["ratio_window", "separated_translates"], True),
    "khintchine": dict.fromkeys(
        ["lower_side_one_p2.0", "lower_side_one_p3.0", "lower_side_one_p4.0",
         "upper_side_one_p1.5", "upper_side_one_p2.0"], True),
    "squarefunc": dict.fromkeys(
        ["lower_calibrated_p1.5", "lower_calibrated_p2.0", "lower_side_one_p2.0",
         "lower_side_one_p3.0", "lower_side_one_p4.0", "upper_calibrated_p2.0",
         "upper_calibrated_p3.0", "upper_calibrated_p4.0", "upper_side_one_p1.5",
         "upper_side_one_p2.0"], True),
    "type-cotype": dict.fromkeys(
        ["cotype_p1.5_within", "cotype_p2.0_within", "type_p2.0_within",
         "type_p3.0_within", "type_p4.0_within"], True),
    "lacunary": dict.fromkeys(["p2_orthonormal", "window"], True),
    "rdf": dict.fromkeys(
        ["c_within_1pct_p3.0", "c_within_1pct_p4.0", "plancherel_partition"], True),
    "isometry": dict.fromkeys(["isometry", "modulus_independent_of_s"], True),
    # off the recorded grid, so rdf's recorded constants are not asserted
    "rdf_g7_s8": {"plancherel_partition": True},
}


# sha256 of the per-trial CSV of the same commands
SUITE_CSVS = {
    "peaks": "09b4cd19c68f1880d713becdb3409df97b86a43a5db4791b7f96f9bf2269b8ff",
    "cells": "70e72e87f380c57bfbdbd8bc47ad4d2522f9fb374e26e2165bf4af96393778b1",
    "khintchine": "b97ff49d0196084bb5c2e12fe0a39166e6918f0f74ab056cd15b82ca7ecbf979",
    "squarefunc": "524791ee838519c8752ea1c97689a38710e5651ed38da81a559cd05cf3136b5a",
    "type-cotype": "9640fe2d93bf4a08386222cc2478d41be08ef961fe827ce40ca9a185be9b1671",
    "lacunary": "8becec97e51a96f1c1dabe56542192df561d82392fc97ae4fddee3d728f9ab89",
    "rdf": "d598d65d3036ecddc11ac5c68a35405d0201dde2257d1753cde739731ddccf56",
    "isometry": "66764d20f275f7affb76fba35b9ab8ce154675c251a04a90246d9e8c8bbe7524",
    "rdf_g7_s8": "8a8153dc3be662aa9017bd89f3fc6e2782bdeddec115d69a784c07c30d309897",
}


class TestRecordedSeedSuites:
    """The suites commands of the benchmark at the recorded seed, compared
    exactly: metric and assertion blocks, and each per-trial CSV by sha256."""

    @pytest.fixture(scope="class")
    def outputs(self, tmp_path_factory):
        """(exit code, report, sha256 of the CSV) of every command, in order."""
        out = {}
        for cmd in WORKLOADS.suites(tmp_path_factory.mktemp("suites"), WORKLOADS.RECORDED_SEED):
            with contextlib.redirect_stdout(io.StringIO()):
                code = run(list(cmd.argv))
            out[cmd.label] = (code, json.loads(cmd.out.read_text()),
                              hashlib.sha256(cmd.csv.read_bytes()).hexdigest())
        return out

    def test_every_command_is_pinned(self, outputs):
        assert list(outputs) == list(SUITE_METRICS) == list(SUITE_ASSERTIONS) == list(SUITE_CSVS)

    @pytest.mark.parametrize("label", list(SUITE_METRICS))
    def test_metrics(self, outputs, label):
        code, report, _ = outputs[label]
        assert code == 0
        assert report["metrics"] == SUITE_METRICS[label]
        assert report["assertions"] == SUITE_ASSERTIONS[label]

    @pytest.mark.parametrize("label", list(SUITE_CSVS))
    def test_csv(self, outputs, label):
        assert outputs[label][2] == SUITE_CSVS[label]


FRAME_BUILD_ASSERTIONS = dict.fromkeys(
    ["difference_sets_clear_of_base", "difference_sets_disjoint", "q_below_one",
     "window_norm_identity", "window_summands_disjoint"], True)
FRAME_VERIFY_ASSERTIONS = dict.fromkeys(
    ["contraction_below_q", "reconstruction_within_tol", "synthesis_residual_below_q"], True)
BUILD_504 = {
    "q": 0.4677071733467426,
    "sizes": [72, 144, 288],
    "total_points": 504,
    "window_norm_error": 1.734723475976807e-16,
    "window_norm_pth": 0.02430555555555538,
    "window_norm_target": 0.024305555555555552,
}
BUILD_1020 = {
    "q": 0.49815837311630357,
    "sizes": [68, 136, 272, 544],
    "total_points": 1020,
    "window_norm_error": 6.38378239159465e-16,
    "window_norm_pth": 0.027573529411764067,
    "window_norm_target": 0.027573529411764705,
}
SHA_504 = "4cefea1fe6d4c72924167d5dac1ee7105cd4c14c0734ab4464fb2247b5ab21c8"
SHA_1020 = "c3f9900264072220b4ea1a78be2d8dd9a09c55b4b5766458a92bffbd3d295d27"

# (exit code, metric block, assertion block, sha256 of the frame file) of the
# benchmark's frame commands at the recorded seed, set-up builds included
FRAME_OUTPUTS = {
    "build_p5_K3": (0, {
        "q": 0.49664403271845536,
        "sizes": [42, 84, 168],
        "total_points": 294,
        "window_norm_error": 2.168404344971009e-17,
        "window_norm_pth": 0.005432041458722676,
        "window_norm_target": 0.005432041458722654,
    }, FRAME_BUILD_ASSERTIONS,
        "417dfcefd6b0ad26a46db811031ee784c1dbffb09ba2ba56d3ced7c82d6502e1"),
    "build_p4_K3": (0, {
        "q": 0.49607837082461076,
        "sizes": [64, 128, 256],
        "total_points": 448,
        "window_norm_error": 0.0,
        "window_norm_pth": 0.02734375,
        "window_norm_target": 0.02734375,
    }, FRAME_BUILD_ASSERTIONS,
        "c2f7f428e35d6b15c98074648b53d80af09ffcf539013498cf279da5860c49b1"),
    "build_p4_504": (0, BUILD_504, FRAME_BUILD_ASSERTIONS, SHA_504),
    "build_p6_K4": (0, {
        "q": 0.49497337538955405,
        "sizes": [37, 74, 148, 296],
        "total_points": 555,
        "window_norm_error": 1.1600963245594897e-17,
        "window_norm_pth": 0.0009701424397370228,
        "window_norm_target": 0.0009701424397370344,
    }, FRAME_BUILD_ASSERTIONS,
        "2aa92a986d18864a441a6367a8e62f1be2fa2668c59b46b9cc7df795ff1d63e2"),
    "build_p4_K4": (0, BUILD_1020, FRAME_BUILD_ASSERTIONS, SHA_1020),
    "build_p4_504_generic": (0, {
        "q": 0.4677071733467426,
        "sizes": [72, 144, 288],
        "total_points": 504,
        "window_norm_error": 1.942890293094024e-16,
        "window_norm_pth": 0.024305555555555358,
        "window_norm_target": 0.024305555555555552,
    }, FRAME_BUILD_ASSERTIONS,
        "1b4e434f86562380c586ef9b002c4bb69cd31a0864ab49ce606a384dc555d7fa"),
    # InfeasiblePlan writes no report
    "build_p2.05_K3_infeasible": (3, None, None, None),
    "setup_frame_504": (0, BUILD_504, FRAME_BUILD_ASSERTIONS, SHA_504),
    "setup_frame_1020": (0, BUILD_1020, FRAME_BUILD_ASSERTIONS, SHA_1020),
    "verify_504_c50_a": (0, {
        "max_contraction_ratio": 0.11172882247488174,
        "max_iterations": 1,
        "max_reconstruction_error": 2.537185083997503e-16,
        "max_synthesis_residual": 0.11172882247488174,
        "q": 0.4677071733467426,
    }, FRAME_VERIFY_ASSERTIONS, None),
    "verify_504_c50_b": (0, {
        "max_contraction_ratio": 0.12551007154960256,
        "max_iterations": 1,
        "max_reconstruction_error": 4.168099263855419e-16,
        "max_synthesis_residual": 0.12551007154960253,
        "q": 0.4677071733467426,
    }, FRAME_VERIFY_ASSERTIONS, None),
    "verify_504_c2000": (0, {
        "max_contraction_ratio": 0.13199153713089842,
        "max_iterations": 1,
        "max_reconstruction_error": 3.676477803584136e-16,
        "max_synthesis_residual": 0.13199153713089842,
        "q": 0.4677071733467426,
    }, FRAME_VERIFY_ASSERTIONS, None),
    "verify_1020_c50": (0, {
        "max_contraction_ratio": 0.1267711870528993,
        "max_iterations": 1,
        "max_reconstruction_error": 3.449804349737623e-16,
        "max_synthesis_residual": 0.1267711870528993,
        "q": 0.49815837311630357,
    }, FRAME_VERIFY_ASSERTIONS, None),
}


# sha256 of the per-trial CSV of each frame-verify command at the recorded seed
FRAME_VERIFY_CSVS = {
    "verify_504_c50_a": "9132127220bd8e016ecbe99de10028851afef317c5eb73b6cf974c0069f774f6",
    "verify_504_c50_b": "e63da6c5f4e974d80fa9b1f10715a33f5753ae46c505556badee728069e26a8c",
    "verify_504_c2000": "4d415c6d75e184115f59d417344ba5129b497be5421f0fb719b060c6594494ee",
    "verify_1020_c50": "acbeb78066a935cfc8714607cae7fcf4b6a194fdae8cbed2730c19cedab528d8",
}


class TestRecordedSeedFrames:
    """The frame commands of the benchmark at the recorded seed, set-up builds
    included: metric and assertion blocks compared exactly, frame files and
    per-trial CSVs by sha256."""

    @pytest.fixture(scope="class")
    def outputs(self, tmp_path_factory):
        """FRAME_OUTPUTS' tuple and the sha256 of the CSV (None for a command
        without one) of every command, each workload run in order in its own
        directory."""
        out = {}
        for name in ("frame-build", "frame-verify"):
            setup, passes = WORKLOADS.prepare(name, tmp_path_factory.mktemp(name),
                                              WORKLOADS.RECORDED_SEED)
            for cmd in setup + passes:
                code = run(list(cmd.argv))
                report = json.loads(cmd.out.read_text()) if cmd.out.exists() else {}
                digest = (hashlib.sha256(cmd.frame_out.read_bytes()).hexdigest()
                          if cmd.frame_out and cmd.frame_out.exists() else None)
                csv = hashlib.sha256(cmd.csv.read_bytes()).hexdigest() if cmd.csv else None
                out[cmd.label] = ((code, report.get("metrics"), report.get("assertions"),
                                   digest), csv)
        return out

    def test_every_command_is_pinned(self, outputs):
        assert list(outputs) == list(FRAME_OUTPUTS)
        assert [label for label, (_, csv) in outputs.items() if csv] == list(FRAME_VERIFY_CSVS)

    @pytest.mark.parametrize("label", list(FRAME_OUTPUTS))
    def test_outputs(self, outputs, label):
        assert outputs[label][0] == FRAME_OUTPUTS[label]

    @pytest.mark.parametrize("label", list(FRAME_VERIFY_CSVS))
    def test_csv(self, outputs, label):
        assert outputs[label][1] == FRAME_VERIFY_CSVS[label]


# every argv of the benchmark's pass commands, its outputs in the working
# directory
BENCH_ARGVS = {cmd.label: list(cmd.argv) for name, commands in WORKLOADS.COMMANDS.items()
               for cmd in commands(Path("."), WORKLOADS.RECORDED_SEED)}


class TestOneSubparserParse:
    """_parse_args adds only the named command's flags, and parses as the
    parser with every command's flags does: the same Namespace, the same
    config error or the same --help."""

    @pytest.mark.parametrize("files,argv", [
        *(case[1:] for case in MALFORMED_INPUTS),
        *(({}, argv) for argv in BENCH_ARGVS.values()),
        *(({}, argv) for argv in ([], ["frobnicate"], ["--help"], ["--seed", "1"],
                                  ["--x", "build-frame", "--p", "1"],
                                  ["build-frame", "--help"], ["build-frame", "verify-frame"],
                                  ["build-frame", "--seed", "1"])),
    ], ids=[*(case[0] for case in MALFORMED_INPUTS), *BENCH_ARGVS, "empty", "typo",
            "help", "flag-first", "flag-before-command", "command-help", "two-commands",
            "other-command-flag"])
    def test_matches_the_full_parser(self, tmp_path, monkeypatch, capsys, files, argv):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("COLUMNS", "80")
        build, asked = cli.build_parser, []

        def outcome(full):
            def parser(only=None):
                asked.append(only)
                return build(None if full else only)
            monkeypatch.setattr(cli, "build_parser", parser)
            try:
                return vars(cli._parse_args(argv))
            except cli.ConfigError as exc:
                return str(exc)
            except SystemExit as exc:
                return exc.code, capsys.readouterr().out

        one = outcome(full=False)
        # a --config file's errors come before any parser is built
        assert asked in ([], [argv[0] if argv and argv[0] in cli.COMMANDS else None])
        assert outcome(full=True) == one

    def test_the_other_commands_get_no_flags(self):
        with pytest.raises(cli.ConfigError, match="unrecognized arguments: --seed 1$"):
            cli.build_parser("build-frame").parse_args(["verify-frame", "--seed", "1"])


class TestPointSetFile:
    def test_build_frame_from_lambda_file(self, tmp_path, capsys):
        from gaborlab.frames import spread_candidates
        from gaborlab.gabor import points_to_json

        pts = spread_candidates(37, base=4, ratio=5)
        lam = tmp_path / "lambda.json"
        lam.write_text(json.dumps(points_to_json(pts)))
        out = tmp_path / "r.json"
        code = run(
            [
                "build-frame",
                "--p",
                "4",
                "--sizes",
                "37",
                "--lambda-file",
                str(lam),
                "--out",
                str(out),
            ]
        )
        capsys.readouterr()
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["assertions"]["difference_sets_disjoint"]
        assert payload["metrics"]["total_points"] == 37

    def test_plan_search_path(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = run(
            ["build-frame", "--p", "4", "--blocks", "3", "--growth", "2",
             "--candidates", "448", "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["metrics"]["sizes"] == [64, 128, 256]
        assert payload["metrics"]["q"] == pytest.approx(
            3.0 * (7.0 / 256.0) ** 0.5, rel=1e-12
        )


class TestCsvColumns:
    def test_khintchine_rows_carry_bound_and_pass(self, tmp_path, capsys):
        csv_path = tmp_path / "rows.csv"
        run(
            ["inequalities", "--suite", "khintchine", "--trials", "5",
             "--seed", "1", "--csv", str(csv_path)]
        )
        capsys.readouterr()
        header = csv_path.read_text().splitlines()[0].split(",")
        for col in ("n", "p", "ratio", "bound", "pass"):
            assert col in header


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestStrictJson:
    @pytest.mark.parametrize("family", ["peaks", "cells"])
    def test_family_reports_parse_as_json(self, tmp_path, capsys, family):
        out = tmp_path / "r.json"
        code = run(["counterexample", "--family", family, "--trials", "5",
                    "--seed", "3", "--out", str(out)])
        printed = capsys.readouterr().out
        assert code == 0
        for text in (out.read_text(), printed):
            payload = json.loads(text, parse_constant=_reject_constant)
            # only the peaks family has a local prediction
            assert ("local_ratio_min" in payload["metrics"]) == (family == "peaks")
            assert ("local_ratio_max" in payload["metrics"]) == (family == "peaks")


class TestReportBlock:
    def test_metric_block_excludes_wall_time(self):
        r = Report("cmd", {"seed": 1}, {"x": 1.0}, {"ok": True})
        r.wall_time_s = 123.0
        assert b"wall_time" not in r.metric_block()

    def test_csv_writes_numpy_scalars_as_python_values(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_csv(str(path), [{"x": np.float64(0.1), "n": np.int64(3), "ok": np.bool_(True)},
                              {"x": 0.25, "n": 4, "ok": False}])
        assert path.read_bytes() == b"x,n,ok\r\n0.1,3,True\r\n0.25,4,False\r\n"

    @pytest.mark.parametrize("row", [{"x": 1.0}, {"x": 1.0, "n": 2, "extra": 3}])
    def test_csv_refuses_a_row_with_other_keys(self, tmp_path, row):
        with pytest.raises(ValueError, match="differ from the header"):
            write_csv(str(tmp_path / "rows.csv"), [{"x": 0.5, "n": 1}, row])


# the no-traceback property's values: small, edge and non-numeric text; the
# flags that set how much work a run does take only small values, and the
# path flags name an input file of the run's directory or a missing one
ALPHABET = ("0", "1", "-1", "400", str(10**30), "nan", "inf", "", "x")
BOUNDED = {"trials": ("1", "2", "0", "-1", "x"), "corpus": ("1", "2", "0", "x"),
           "span": ("1", "2", "0", "x"), "grid-log2": ("0", "-1", "-3", "1", "x")}
INPUT_FILES = {"frame.json": FRAME_37, "lam.json": json.dumps(_points_37_modulated(0)),
               "cfg.json": '{"seed": 1, "trials": 1}', "empty.json": ""}
PATHS = (*INPUT_FILES, "missing.json")


def _flag_values(flag):
    if flag in BOUNDED:
        return BOUNDED[flag]
    if flag in ("config", "frame", "lambda-file"):
        return PATHS
    return (*cli.FLAGS[flag].get("choices", ()), *ALPHABET)


@st.composite
def command_lines(draw):
    """A command and some of its flags, each with a drawn value; the required
    flags and --trials and --corpus are always given."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    _, _, flags, parameters = cli.COMMANDS[command]
    always = [f for f in flags if cli.FLAGS[f].get("required") or f in ("trials", "corpus")]
    chosen = draw(st.lists(st.sampled_from(flags + parameters), unique=True, max_size=4))
    argv = [command]
    for flag in [*always, *(f for f in chosen if f not in always)]:
        argv += [f"--{flag}", draw(st.sampled_from(_flag_values(flag)))]
    return argv


class TestNoTraceback:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(command_lines())
    def test_every_command_line_exits_with_a_documented_code(self, argv):
        here = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in INPUT_FILES.items():
                Path(tmp, name).write_text(text)
            os.chdir(tmp)
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()), \
                        warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    code = main(argv)
            finally:
                os.chdir(here)
        assert code in (0, 1, 2, 3)
        # an overflow or an invalid value that numpy only warns of
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


class TestClosedStdout:
    @pytest.mark.parametrize("argv", [
        ["build-frame", "--sizes", "37"],
        ["inequalities", "--suite", "khintchine", "--trials", "5", "--seed", "1"],
    ], ids=["build", "suite"])
    def test_a_closed_stdout_keeps_the_exit_code_and_stderr_empty(self, tmp_path, argv):
        read, write = os.pipe()
        os.close(read)  # no reader, so the child's first write to stdout fails
        try:
            done = _spawn(tmp_path, CLI_ENTRY, *argv, stdout=write)
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (0, "")
