"""Command-line front door: exit codes, determinism, config handling."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from gaborlab.cli import main
from gaborlab.frames import build_frame, plan_from_sizes, select_translates, spread_candidates
from gaborlab.grids import Exponent
from gaborlab.reports import Report


def run(args):
    return main(args)


FRAME_WITHOUT_SIZES = json.dumps({"plan": {"p": 4.0}, "selection": [], "step_log2": -3})
_PLAN_37 = plan_from_sizes(Exponent(4.0), (37,))
FRAME_37 = json.dumps(
    build_frame(_PLAN_37, select_translates(spread_candidates(37), _PLAN_37)).to_json()
)


def _verify(*flags):
    """Files and argv of a verify-frame run on a real 37-point frame."""
    return ({"frame.json": FRAME_37},
            ["verify-frame", "--seed", "1", "--frame", "frame.json", *flags])


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
    ("sizes_not_integers", {}, ["build-frame", "--sizes", "37,x"]),
    ("p_one", {}, ["build-frame", "--p", "1"]),
    ("p_below_one", {},
     ["counterexample", "--family", "cells", "--p", "0.5", "--seed", "1"]),
    ("p_nan", {}, ["build-frame", "--p", "nan"]),
    ("p_inf", {}, ["build-frame", "--p", "inf"]),
    ("zero_blocks", {}, ["build-frame", "--blocks", "0"]),
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

    def test_unknown_suite(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["inequalities", "--suite", "nope", "--seed", "1"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "files,argv",
        [case[1:] for case in MALFORMED_INPUTS],
        ids=[case[0] for case in MALFORMED_INPUTS],
    )
    def test_malformed_input_is_config_error(self, tmp_path, capsys, files, argv):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        code = run([str(tmp_path / a) if a.endswith(".json") else a for a in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("config error: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_digit_limit_writes_no_frame_file(self, tmp_path, capsys):
        frame_path = tmp_path / "f.json"
        code = run(["build-frame", "--p", "6", "--blocks", "2", "--ratio",
                    str(10**100), "--frame-out", str(frame_path)])
        assert code == 2
        assert "more than" in capsys.readouterr().err
        assert not frame_path.exists()

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

    def test_infeasible_plan_exit(self, capsys):
        code = run(["build-frame", "--p", "2.0", "--blocks", "1"])
        err = capsys.readouterr().err
        assert code == 3
        assert "InfeasiblePlan" in err


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


class TestRecordedSeedSuites:
    """The suites commands of the benchmark at the recorded seed, compared exactly."""

    def commands(self, tmp_path):
        return WORKLOADS.suites(tmp_path, WORKLOADS.RECORDED_SEED)

    def test_every_command_is_pinned(self, tmp_path):
        assert [c.label for c in self.commands(tmp_path)] == list(SUITE_METRICS)

    @pytest.mark.parametrize("label", list(SUITE_METRICS))
    def test_metrics(self, tmp_path, capsys, label):
        (cmd,) = [c for c in self.commands(tmp_path) if c.label == label]
        assert run(list(cmd.argv)) == 0
        assert json.loads(cmd.out.read_text())["metrics"] == SUITE_METRICS[label]


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
