"""Command-line front door: build frames, run verification suites, emit reports.

Subcommands: build-frame, verify-frame, counterexample, inequalities.
Configuration comes from an optional JSON file (--config) with flags taking
precedence; stochastic commands require an explicit --seed.  Every command
writes a JSON report whose metric block is byte-identical across reruns with
the same configuration and seed, and exits 0 only if all assertions pass.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
from typing import Callable, List, Optional

import numpy as np

from .errors import ConfigError, GaborLabError
from .frames import (
    build_frame,
    frame_from_json,
    plan_blocks,
    plan_from_sizes,
    reconstruct_rows,
    select_translates,
    span_corpus,
    spread_candidates,
)
from .gabor import points_from_json
from .grids import Exponent
from .reports import Report, Stopwatch, write_csv
from .suites import (
    cells_suite,
    isometry_suite,
    khintchine_suite,
    lacunary_suite,
    peaks_suite,
    rdf_suite,
    squarefunc_suite,
    type_cotype_suite,
)

# generated build-frame candidates may take 1 GiB: POINT_BITS per point (its
# objects take 192 bytes on CPython 3.11) plus its translate's digits
CANDIDATE_BITS, POINT_BITS = 2**33, 2**11


def _read_json(path: str, flag: str, parse: Callable):
    """Load and parse a JSON input file; any failure is a config error."""
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except (OSError, ValueError, TypeError, KeyError, ZeroDivisionError) as exc:
        raise ConfigError(f"{flag} {path}: {type(exc).__name__}: {exc}") from None


def _exponent(value) -> Exponent:
    try:
        return Exponent(float(value))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"--p: {exc}") from None


def _merge_config(args: argparse.Namespace, keys: List[str]) -> dict:
    """Config file values overridden by set flags; output paths are checked here,
    before any work runs."""
    cfg = {}
    if getattr(args, "config", None):
        cfg.update(_read_json(args.config, "--config", dict))
    for key in keys:
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            cfg[key] = val
    for key in ("out", "frame_out", "csv"):
        if key in keys and cfg.get(key):
            _check_writable(f"--{key.replace('_', '-')}", str(cfg[key]))
    return cfg


def _check_writable(flag: str, path: str) -> None:
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        problem = "is a directory"
    elif not os.path.isdir(folder):
        problem = f"no directory {folder}"
    elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
        problem = "not writable"
    else:
        return
    raise ConfigError(f"{flag} {path}: {problem}")


def _check_int_digits(selection) -> None:
    """Python will not write an int of more than sys.get_int_max_str_digits()
    decimal digits as text, so a frame holding one cannot be saved as JSON."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return
    bound = 10**limit
    for i, pt in enumerate(selection.points):
        if any(abs(x.numerator) >= bound or x.denominator >= bound for x in (pt.t, pt.s)):
            raise ConfigError(
                f"--frame-out: point {i} of the selection has more than {limit} "
                "decimal digits, past Python's integer string conversion limit"
            )


def _check_candidate_bits(count: int, base: int, ratio: int) -> None:
    """Refuse candidates base * ratio^n, n < count, past CANDIDATE_BITS before
    any is made; their translates take about count * log2|base| +
    log2|ratio| * count^2 / 2 bits."""
    logs = [math.log2(max(abs(x), 1)) for x in (base, ratio)]
    # the count test also keeps the estimate within the float range
    if count > CANDIDATE_BITS // POINT_BITS or (
        count * (POINT_BITS + logs[0]) + logs[1] * count**2 / 2 > CANDIDATE_BITS
    ):
        raise ConfigError(f"{count} candidates of base {base} and ratio {ratio} "
                          f"take more than {CANDIDATE_BITS} bits")


def _require_seed(cfg: dict) -> int:
    if cfg.get("seed") is None:
        raise ConfigError("stochastic commands require --seed")
    return int(cfg["seed"])


def _emit(report: Report, out: Optional[str], rows, csv_path: Optional[str]) -> int:
    if csv_path and rows is not None:
        write_csv(csv_path, rows)
    payload = report.to_json()
    if out:
        report.write(out)
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0 if report.passed else 1


def cmd_build_frame(args) -> int:
    cfg = _merge_config(args, ["p", "blocks", "growth", "sizes", "candidates",
                               "base", "ratio", "lambda_file", "out", "frame_out"])
    p = _exponent(cfg.get("p", 4.0))
    with Stopwatch() as sw:
        try:
            if cfg.get("sizes"):
                sizes = [int(x) for x in str(cfg["sizes"]).split(",")]
                plan = plan_from_sizes(p, sizes)
            else:
                plan = plan_blocks(p, int(cfg.get("blocks", 3)),
                                   float(cfg.get("growth", 2.0)))
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"block plan: {exc}") from None
        if cfg.get("lambda_file"):
            cands = _read_json(cfg["lambda_file"], "--lambda-file", points_from_json)
        else:
            count, base, ratio = (_flag_value(key, cfg.get(key, default)) for key, default
                                  in (("candidates", plan.total), ("base", 4), ("ratio", 5)))
            _check_candidate_bits(count, base, ratio)
            cands = spread_candidates(count, base=base, ratio=ratio)
        selection = select_translates(cands, plan)
        if cfg.get("frame_out"):
            _check_int_digits(selection)
        frame = build_frame(plan, selection)
    cert = frame.certificate
    report = Report(
        "build-frame",
        {k: cfg.get(k) for k in ("p", "blocks", "growth", "sizes", "base",
                                 "ratio", "candidates", "lambda_file")},
        {
            "q": frame.q,
            "sizes": list(plan.sizes),
            "total_points": plan.total,
            "window_norm_pth": cert["window_norm_pth"],
            "window_norm_target": cert["window_norm_target"],
            "window_norm_error": cert["window_norm_error"],
        },
        {
            "q_below_one": frame.q < 1.0,
            "difference_sets_disjoint": cert["difference_sets_disjoint"],
            "difference_sets_clear_of_base": cert["difference_sets_clear_of_base"],
            "window_summands_disjoint": cert["window_summands_disjoint"],
            "window_norm_identity": cert["window_norm_error"] <= 1e-10,
        },
        wall_time_s=sw.elapsed,
    )
    if cfg.get("frame_out"):
        with open(cfg["frame_out"], "w") as fh:
            json.dump(frame.to_json(), fh)
    return _emit(report, cfg.get("out"), None, None)


def _corpus_columns(frame, size: int, seed: int, tol: float) -> dict:
    """The per-trial verify-frame columns of the seeded span corpus, solved
    as one batch; the batch arrays are freed before the rows are built."""
    corpus = np.array([f.values for f in span_corpus(frame, size, seed)])
    rec = reconstruct_rows(frame, corpus, tol)
    return {"contraction_ratio": rec.contraction_ratio.tolist(),
            "reconstruction_error": rec.relative_error.tolist(),
            "synthesis_residual": rec.synthesis_residual.tolist(),
            "iterations": rec.iterations.tolist()}


def cmd_verify_frame(args) -> int:
    cfg = _merge_config(args, ["frame", "corpus", "seed", "tol", "out", "csv"])
    seed = _require_seed(cfg)
    if not cfg.get("frame"):
        raise ConfigError("verify-frame requires --frame")
    size = _flag_value("corpus", cfg.get("corpus", 50))
    tol = _flag_value("tol", cfg.get("tol", 1e-8))
    frame = _read_json(cfg["frame"], "--frame", frame_from_json)
    with Stopwatch() as sw:
        columns = _corpus_columns(frame, size, seed, tol)
        rows = [{"trial": i, "seed": seed, **{k: v[i] for k, v in columns.items()}}
                for i in range(size)]
        max_ratio, max_rel, max_residual, max_iters = (max(v) for v in columns.values())
    report = Report(
        "verify-frame",
        {"frame": cfg["frame"], "corpus": size, "seed": seed, "tol": tol},
        {
            "q": frame.q,
            "max_contraction_ratio": max_ratio,
            "max_reconstruction_error": max_rel,
            "max_synthesis_residual": max_residual,
            "max_iterations": max_iters,
        },
        {
            "contraction_below_q": max_ratio <= frame.q + 1e-9,
            "reconstruction_within_tol": max_rel <= tol,
            "synthesis_residual_below_q": max_residual <= frame.q + 1e-9,
        },
        wall_time_s=sw.elapsed,
    )
    return _emit(report, cfg.get("out"), rows, cfg.get("csv"))


SUITES = {
    "khintchine": khintchine_suite,
    "squarefunc": squarefunc_suite,
    "type-cotype": type_cotype_suite,
    "lacunary": lacunary_suite,
    "rdf": rdf_suite,
    "isometry": isometry_suite,
}

FAMILIES = {"peaks": peaks_suite, "cells": cells_suite}


def _flag_value(key: str, value):
    """A numeric flag or config value, checked against the range it allows."""
    if key == "p":
        return _exponent(value).p
    flag = f"--{key.replace('_', '-')}"
    try:
        out = float(value) if key in ("alpha", "tol") else int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{flag}: {exc}") from None
    if key in ("trials", "corpus") and out < 1:
        raise ConfigError(f"{flag} must be at least 1, got {out}")
    if key == "tol" and not 0 < out < math.inf:
        raise ConfigError(f"{flag} must be positive and finite, got {out}")
    return out


def _run_suite(kind: str, name: str, suite: Callable, seed: int, cfg: dict,
               keys: List[str]):
    """Call a suite with the seed, --trials as its second parameter, and the
    flags among keys that are set; a set flag the suite does not take is a
    config error."""
    params = inspect.signature(suite).parameters
    args = [seed]
    if cfg.get("trials") is not None:
        args.append(_flag_value("trials", cfg["trials"]))
    kwargs = {}
    for key in keys:
        if cfg.get(key) is None:
            continue
        if key not in params:
            flag = key.replace("_", "-")
            raise ConfigError(f"--{flag} does not apply to {kind} {name!r}")
        kwargs[key] = _flag_value(key, cfg[key])
    return suite(*args, **kwargs)


def cmd_counterexample(args) -> int:
    cfg = _merge_config(args, ["family", "p", "trials", "seed", "J", "K",
                               "n_max", "alpha", "out", "csv"])
    seed = _require_seed(cfg)
    family = cfg.get("family")
    if family not in FAMILIES:
        raise ConfigError("counterexample requires --family peaks|cells")
    report, rows = _run_suite("family", family, FAMILIES[family], seed, cfg,
                              ["p", "J", "K", "n_max", "alpha"])
    return _emit(report, cfg.get("out"), rows, cfg.get("csv"))


def cmd_inequalities(args) -> int:
    cfg = _merge_config(args, ["suite", "trials", "seed", "grid_log2", "span",
                               "out", "csv"])
    seed = _require_seed(cfg)
    suite = cfg.get("suite")
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    report, rows = _run_suite("suite", suite, SUITES[suite], seed, cfg,
                              ["grid_log2", "span"])
    return _emit(report, cfg.get("out"), rows, cfg.get("csv"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gaborlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    bf = sub.add_parser("build-frame", help="construct and certify a frame")
    bf.add_argument("--config")
    bf.add_argument("--p", type=float)
    bf.add_argument("--blocks", type=int)
    bf.add_argument("--growth", type=float)
    bf.add_argument("--sizes", help="comma-separated explicit block sizes")
    bf.add_argument("--candidates", type=int)
    bf.add_argument("--base", type=int)
    bf.add_argument("--ratio", type=int)
    bf.add_argument("--lambda-file", help="JSON file of candidate time-frequency points")
    bf.add_argument("--out", help="JSON report path")
    bf.add_argument("--frame-out", help="serialized frame path")
    bf.set_defaults(func=cmd_build_frame)

    vf = sub.add_parser("verify-frame", help="corpus contraction and reconstruction")
    vf.add_argument("--config")
    vf.add_argument("--frame", help="serialized frame path")
    vf.add_argument("--corpus", type=int)
    vf.add_argument("--seed", type=int)
    vf.add_argument("--tol", type=float)
    vf.add_argument("--out")
    vf.add_argument("--csv")
    vf.set_defaults(func=cmd_verify_frame)

    ce = sub.add_parser("counterexample", help="explicit window family checks")
    ce.add_argument("--config")
    ce.add_argument("--family", choices=["peaks", "cells"])
    ce.add_argument("--p", type=float)
    ce.add_argument("--trials", type=int)
    ce.add_argument("--seed", type=int)
    ce.add_argument("--J", type=int)
    ce.add_argument("--K", type=int)
    ce.add_argument("--n-max", type=int)
    ce.add_argument("--alpha", type=float)
    ce.add_argument("--out")
    ce.add_argument("--csv")
    ce.set_defaults(func=cmd_counterexample)

    iq = sub.add_parser("inequalities", help="inequality verification suites")
    iq.add_argument("--config")
    iq.add_argument("--suite", choices=sorted(SUITES))
    iq.add_argument("--trials", type=int)
    iq.add_argument("--seed", type=int)
    iq.add_argument("--grid-log2", type=int, help="log2 of the grid step")
    iq.add_argument("--span", type=int, help="grid span in time units")
    iq.add_argument("--out")
    iq.add_argument("--csv")
    iq.set_defaults(func=cmd_inequalities)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GaborLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
