"""Command-line front door: build frames, run verification suites, emit reports.

Subcommands: build-frame, verify-frame, counterexample, inequalities.  Each
flag is declared once, in FLAGS, with the one converter that reads its text
and checks its range: --trials and --corpus from 1 to MAX_TRIALS,
--candidates, --J, --K, --n-max and --span at least 1, --seed at least 0,
--tol positive and finite, --p finite and above 1, --alpha finite and at
least 0, --grid-log2 at most 0.
A JSON file given as --config is a list of flags: each key names a flag
(n_max or n-max for --n-max) and each value is read as that flag's text.  A
value is a string, or a number for a flag with a converter; flags on the
command line win.  An unknown key, like any parse error, is a config error.
Stochastic commands require --seed.  Every command writes a JSON report whose
metric block is byte-identical across reruns with the same configuration and
seed, and exits 0 only if all assertions pass; a reader that closes stdout
early (`| head`) changes neither that code nor the empty stderr.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from typing import Callable, List, Optional

from . import frames, gabor, grids, operators, plans, reports, suites
from .errors import ConfigError, GaborLabError

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
    # log2(10) > 3.321928, so an int of at most this many bits is below
    # 10**limit; only a point with a longer one is compared exactly
    bits = limit * 3321928 // 10**6
    for i, pt in enumerate(selection.points):
        t, s = pt.t, pt.s
        if max(t.numerator.bit_length(), t.denominator.bit_length(),
               s.numerator.bit_length(), s.denominator.bit_length()) > bits and any(
                abs(x) >= 10**limit
                for x in (t.numerator, t.denominator, s.numerator, s.denominator)):
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


def _write_json(path: str, obj: dict) -> None:
    """Write the text of json.dump(obj, fh) through the C encoder, which only
    json.dumps uses, a piece at a time: each value of obj, and each top-level
    list in slices of 64 entries, so no piece holds a large frame's text."""
    with open(path, "w") as fh:
        fh.write("{")
        for n, (key, value) in enumerate(obj.items()):
            fh.write(f"{', ' if n else ''}{json.dumps(key)}: ")
            if not isinstance(value, list):
                fh.write(json.dumps(value))
                continue
            fh.write("[")
            for start in range(0, len(value), 64):
                fh.write(", " if start else "")
                fh.write(json.dumps(value[start:start + 64])[1:-1])
            fh.write("]")
        fh.write("}")


def _emit(report: reports.Report, out: Optional[str], rows, csv_path: Optional[str]) -> int:
    if csv_path and rows is not None:
        reports.write_csv(csv_path, rows)
    payload = report.to_json()
    if out:
        report.write(out)
    try:
        print(json.dumps(payload, indent=2, sort_keys=True), flush=True)
    except BrokenPipeError:  # the reader closed stdout: what is left goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if report.passed else 1


def _execute(module) -> None:
    """Run a lazily registered module now: its first attribute access runs it,
    and the imports it makes (numpy's included) with it."""
    getattr(module, "__name__")


def cmd_build_frame(args) -> int:
    # the plan is searched or checked first, by plans alone: a refused plan
    # exits here having loaded no numpy and compiled no frame code
    p = plans.Exponent(4.0 if args.p is None else args.p)
    try:
        if args.sizes is not None:
            plan = plans.plan_from_sizes(p, [int(x) for x in args.sizes.split(",")])
        else:
            plan = plans.plan_blocks(p, 3 if args.blocks is None else args.blocks,
                                     2.0 if args.growth is None else args.growth)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"block plan: {exc}") from None
    # frames runs here, before the stopwatch, so that compiling it and the
    # modules it imports does not count in wall_time_s.  Running it loads no
    # numpy: an unmodulated build never loads it, and a modulated one (a
    # --lambda-file with some s != 0) loads it at its first modulated piece,
    # so that build's wall_time_s, outside the byte-stable metric block,
    # includes the import
    _execute(frames)
    with reports.Stopwatch() as sw:
        if args.lambda_file:
            cands = _read_json(args.lambda_file, "--lambda-file", gabor.points_from_json)
        else:
            count = plan.total if args.candidates is None else args.candidates
            base = 4 if args.base is None else args.base
            ratio = 5 if args.ratio is None else args.ratio
            _check_candidate_bits(count, base, ratio)
            cands = frames.spread_candidates(count, base=base, ratio=ratio)
        selection = frames.select_translates(cands, plan)
        if args.frame_out:
            _check_int_digits(selection)
        frame = frames.build_frame(plan, selection)
    cert = frame.certificate
    report = reports.Report(
        "build-frame",
        {k: getattr(args, k) for k in ("p", "blocks", "growth", "sizes", "base",
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
    if args.frame_out:
        _write_json(args.frame_out, frame.to_json())
    return _emit(report, args.out, None, None)


def _corpus_columns(frame, size: int, seed: int, tol: float) -> dict:
    """The per-trial verify-frame columns of the seeded span corpus, drawn and
    solved one grids.row_chunks chunk of trials at a time, so memory holds
    one chunk's arrays whatever the corpus size; each row is solved as it
    would be alone, so the columns do not depend on the chunks."""
    columns = {"contraction_ratio": [], "reconstruction_error": [],
               "synthesis_residual": [], "iterations": []}
    for chunk in grids.row_chunks(size, frame.span_grid.count):
        corpus = operators.span_corpus(frame, chunk.stop - chunk.start, seed, chunk.start)
        rec = operators.reconstruct_rows(frame, corpus, tol)
        for column, values in zip(columns.values(), (
                rec.contraction_ratio, rec.relative_error, rec.synthesis_residual,
                rec.iterations)):
            column += values.tolist()
        del corpus, rec  # free this chunk's arrays before the next is drawn
    return columns


def cmd_verify_frame(args) -> int:
    frame = _read_json(args.frame, "--frame", frames.frame_from_json)
    cells = frame.span_grid.count
    if args.corpus * cells > MAX_CORPUS_ENTRIES:
        raise ConfigError(f"--corpus {args.corpus} on a span grid of {cells} cells takes "
                          f"more than {MAX_CORPUS_ENTRIES} entries")
    _execute(operators)  # outside wall_time_s, like the frame load
    with reports.Stopwatch() as sw:
        columns = _corpus_columns(frame, args.corpus, args.seed, args.tol)
        # each row is made as the CSV is written: a list of them held about
        # 0.5 MB at --corpus 2000
        rows = ({"trial": i, "seed": args.seed, **{k: v[i] for k, v in columns.items()}}
                for i in range(args.corpus))
        max_ratio, max_rel, max_residual, max_iters = (max(v) for v in columns.values())
    report = reports.Report(
        "verify-frame",
        {"frame": args.frame, "corpus": args.corpus, "seed": args.seed, "tol": args.tol},
        {
            "q": frame.q,
            "max_contraction_ratio": max_ratio,
            "max_reconstruction_error": max_rel,
            "max_synthesis_residual": max_residual,
            "max_iterations": max_iters,
        },
        {
            "contraction_below_q": max_ratio <= frame.q + 1e-9,
            "reconstruction_within_tol": max_rel <= args.tol,
            "synthesis_residual_below_q": max_residual <= frame.q + 1e-9,
        },
        wall_time_s=sw.elapsed,
    )
    return _emit(report, args.out, rows, args.csv)


# the names --suite and --family accept; cmd_suite runs suites.<name>_suite,
# '-' read as '_', looked up only when it runs, so parsing executes no suite code
SUITES = ("khintchine", "squarefunc", "type-cotype", "lacunary", "rdf", "isometry")
FAMILIES = ("peaks", "cells")


def cmd_suite(args) -> int:
    """Run the chosen family or suite, suites.<name>_suite, with the seed,
    --trials as its second parameter and each set parameter flag by name; a
    set flag the suite does not take is a config error."""
    kind = "family" if "family" in args else "suite"
    name = getattr(args, kind)
    suite = getattr(suites, f"{name.replace('-', '_')}_suite")
    # imported here, not with the module: parsing never needs it, and the
    # suite's numpy has imported it by now
    import inspect

    params = inspect.signature(suite).parameters
    kwargs = {key: getattr(args, key) for key in args.parameters
              if getattr(args, key) is not None}
    for key in kwargs:
        if key not in params:
            raise ConfigError(f"--{key.replace('_', '-')} does not apply to {kind} {name!r}")
    trials = [] if args.trials is None else [args.trials]
    report, rows = suite(args.seed, *trials, **kwargs)
    return _emit(report, args.out, rows, args.csv)


def _checked(read: Callable, rule: str = "", holds: Callable = lambda value: True):
    """A flag's converter: read its text, then require holds(value)."""
    def convert(text: str):
        try:
            value = read(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if not holds(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value
    return convert


COUNT = _checked(int, "at least 1", lambda n: n >= 1)
# --trials and --corpus keep one row per trial in memory: at 10^4 trials the
# largest, type-cotype, peaked at 56 MB in 21 s, so the cap stays near 200 MB
MAX_TRIALS = 10**5
TRIALS = _checked(int, f"from 1 to {MAX_TRIALS}", lambda n: 1 <= n <= MAX_TRIALS)
# verify-frame solves its corpus one grids.row_chunks chunk at a time: at 2^24
# entries (2048 functions on 2^13 cells, or 16 on 2^20) it peaked at 38 MB in
# 3.7 s and 244 MB in 4.1 s, where the whole corpus at once took 1.6 to 1.7 GB
MAX_CORPUS_ENTRIES = 2**24

# every flag, declared once with the converter that reads and range-checks its
# text; in a --config file a number may stand for the text of a flag with a
# converter, any other value must be a string
FLAGS = {
    "config": {"help": "JSON file of flags, {\"flag\": value}; command-line flags win"},
    "p": {"type": _checked(lambda text: plans.Exponent(float(text)).p)},
    "blocks": {"type": int},
    "growth": {"type": float},
    "sizes": {"help": "comma-separated explicit block sizes"},
    "candidates": {"type": COUNT},
    "base": {"type": int},
    "ratio": {"type": int},
    "lambda-file": {"help": "JSON file of candidate time-frequency points"},
    "frame": {"required": True, "help": "serialized frame path"},
    "frame-out": {"help": "serialized frame path"},
    "corpus": {"type": TRIALS, "default": 50},
    "seed": {"type": _checked(int, "at least 0", lambda n: n >= 0), "required": True},
    "tol": {"type": _checked(float, "positive and finite", lambda x: 0 < x < math.inf),
            "default": 1e-8},
    "family": {"choices": list(FAMILIES), "required": True},
    "suite": {"choices": sorted(SUITES), "required": True},
    "trials": {"type": TRIALS},
    "J": {"type": COUNT},
    "K": {"type": COUNT},
    "n-max": {"type": COUNT},
    "alpha": {"type": _checked(float, "finite and at least 0",
                               lambda a: 0 <= a < math.inf)},
    "grid-log2": {"type": _checked(int, "at most 0", lambda n: n <= 0),
                  "help": "log2 of the grid step"},
    "span": {"type": COUNT, "help": "grid span in time units"},
    "out": {"help": "JSON report path"},
    "csv": {"help": "CSV path for the per-trial rows"},
}

# subcommand -> (run, help, flags, flags passed to the chosen suite by name)
COMMANDS = {
    "build-frame": (cmd_build_frame, "construct and certify a frame",
                    ["config", "p", "blocks", "growth", "sizes", "candidates", "base",
                     "ratio", "lambda-file", "out", "frame-out"], []),
    "verify-frame": (cmd_verify_frame, "corpus contraction and reconstruction",
                     ["config", "frame", "corpus", "seed", "tol", "out", "csv"], []),
    "counterexample": (cmd_suite, "explicit window family checks",
                       ["config", "family", "trials", "seed", "out", "csv"],
                       ["p", "J", "K", "n-max", "alpha"]),
    "inequalities": (cmd_suite, "inequality verification suites",
                     ["config", "suite", "trials", "seed", "out", "csv"],
                     ["grid-log2", "span"]),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose every error is a config error."""

    def error(self, message):
        raise ConfigError(message)


def build_parser(only: Optional[str] = None) -> argparse.ArgumentParser:
    """The gaborlab parser.  With only set to a command, the other commands'
    subparsers get no flags, which a command line that starts with only
    never reads."""
    parser = _Parser(prog="gaborlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (run, summary, flags, parameters) in COMMANDS.items():
        cmd = sub.add_parser(command, help=summary)
        if only not in (None, command):
            continue
        for flag in flags:
            cmd.add_argument(f"--{flag}", **FLAGS[flag])
        group = cmd.add_argument_group("parameters of the chosen suite")
        for flag in parameters:
            group.add_argument(f"--{flag}", **FLAGS[flag])
        cmd.set_defaults(func=run, parameters=[f.replace("-", "_") for f in parameters])
    return parser


def _config_flags(path: str) -> List[str]:
    """The flags a --config file holds, as --key=value."""
    flags = []
    for key, value in _read_json(path, "--config", dict).items():
        flag = key.replace("_", "-")
        if flag not in FLAGS:
            raise ConfigError(f"--config {path}: no flag --{flag}")
        number = "type" in FLAGS[flag]
        if not isinstance(value, (str, int, float) if number else str):
            raise ConfigError(f"--config {path}: --{flag} takes a string"
                              f"{' or a number' if number else ''}, got {json.dumps(value)}")
        flags.append(f"--{flag}={value}")
    return flags


def _parse_args(argv: List[str]) -> argparse.Namespace:
    """One parse of the command line with a --config file's flags put ahead of
    it, so that a flag given on the command line wins; output paths are checked
    here, before any work runs.  Only the named command's flags are added; a
    first argument that names no command (--help, a typo) gets every one."""
    config = _Parser(add_help=False)
    config.add_argument("--config", **FLAGS["config"])
    path = config.parse_known_args(argv)[0].config
    if path:
        argv = [*argv[:1], *_config_flags(path), *argv[1:]]
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    for key in ("out", "frame_out", "csv"):
        if getattr(args, key, None):
            _check_writable(f"--{key.replace('_', '-')}", getattr(args, key))
    return args


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command; return its exit code: 0 when every assertion passed,
    1 when one failed, 2 for a config error and 3 for any other GaborLabError.

    argv=None reads sys.argv and marks the process entry (the `gaborlab`
    script, `python -m gaborlab.cli`): the process ends once main returns.
    That call first turns the cyclic collector off (gc.disable()).  A
    command's data hold no reference cycles, so the collector would find
    only the few hundred objects that argparse and numpy's import leave,
    the same count whatever the trials, corpus or points, while its passes
    over numpy's import cost 3-5 ms.  Every output is written and closed
    once main returns, so main ends that call with gc.freeze(), and the
    interpreter's exit-time collections skip the heap that numpy's import
    left.  Exit still flushes stdio, runs atexit handlers and tears down by
    reference count.  A caller that passes argv (tests, an in-process
    benchmark) keeps its collector as it was.
    """
    if argv is None:
        gc.disable()
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GaborLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        if argv is None:
            gc.freeze()


if __name__ == "__main__":
    raise SystemExit(main())
