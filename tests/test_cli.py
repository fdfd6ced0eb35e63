"""Command-line front door: exit codes, determinism, config handling."""

import json

import pytest

from gaborlab.cli import main
from gaborlab.reports import Report


def run(args):
    return main(args)


FRAME_WITHOUT_SIZES = json.dumps({"plan": {"p": 4.0}, "selection": [], "step_log2": -3})

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


class TestReportBlock:
    def test_metric_block_excludes_wall_time(self):
        r = Report("cmd", {"seed": 1}, {"x": 1.0}, {"ok": True})
        r.wall_time_s = 123.0
        assert b"wall_time" not in r.metric_block()
