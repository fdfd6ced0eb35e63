"""Print what the compared commands leave unrun in the gaborlab package.

    python3 scripts/reach.py [SRC] [--seed N]

Sets a line tracer (sys.settrace) on the package's files before gaborlab is
imported, so module-level statements count too.  Then it runs every command
of `scripts/compare_outputs.py` in this process, in a temporary directory:
the benchmark's workloads with their set-up builds, then its GATE_SHAPES.
Each goes through the process entry, `gaborlab.cli.main()` on `sys.argv`,
with its printed report and stderr discarded.  For each module it prints
the statements that no command executed, one line each, and then the
functions that no command called, leaving out what UNRUN_ON_PURPOSE names;
that table is printed apart, each entry with its reason.  Docstrings and
`raise` statements are left out: most raise lines guard inputs that no
compared command gives.  A compound statement (`if`, `for`, `def`, ...)
counts by its header lines, and the body of an unrun statement or of a
function never called is not listed.  The script exits 1 when anything
outside the table is unrun, or when an entry of the table ran or names
nothing, else 0.  The package is imported from SRC, default this checkout's
`src`.  The script writes only in its temporary directory.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
import compare_outputs  # noqa: E402  (imports no gaborlab)

SKIPPED = (ast.Raise, ast.Global, ast.Nonlocal)

# the one table of what the compared commands leave unrun on purpose, which
# tests/test_reachability.py holds to: (module, function by qualified name,
# the first lines of its unrun statements without their comments, or () for
# the function itself, why)
UNRUN_ON_PURPOSE = (
    ("rng", "rng_for", (),
     "oracle: the stream definition that the tests check the keyed streams against"),
    ("operators", "sign_flip_synthesis_sup", (),
     "oracle: the exact sign-flip supremum; no command reports it yet"),
    ("haar", "haar_indices", (),
     "oracle: the Haar enumeration whose prefix frames.block_atoms makes in closed form"),
    ("fourier", "partial_sum", (), "only the tests call it"),
    ("grids", "SampledFunction.__sub__", (), "only the tests call it"),
    ("grids", "SampledFunction._key", (), "only the tests compare functions"),
    ("__init__", "__getattr__", (),
     "the package's re-exported names, which only the tests and acceptance criteria read"),
    ("plans", "_Frozen.__setattr__", (), "guard: a frozen value refuses assignment"),
    ("plans", "_Frozen.__delattr__", (), "guard: a frozen value refuses deletion"),
    ("plans", "_Frozen.__repr__", (), "a frozen value's repr, for debugging"),
    ("plans", "_Frozen.__eq__", ("return NotImplemented",),
     "guard: a frozen value compared with a value of another class"),
    ("cli", "_emit", ("os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())",),
     "guard: a reader that closes stdout early; no compared command closes it"),
    ("reports", "write_csv", ('with open(path, "w"):', "return"),
     "guard: no command writes a CSV of no rows"),
    ("cli", "_check_writable", ('problem = "not writable"',),
     "guard: the compared commands run as root, who may write to every path"),
    ("cli", "_check_int_digits", ("return",),
     "guard: an interpreter without the integer digit limit"),
    ("operators", "reconstruct_rows", ("budget = 1",),
     "only plans built with require_condition=False have q >= 1"),
    ("stochastic", "_mirrored_pths", ("return combination_pth(all_sign_patterns(0), mat, step, ps)",),
     "an empty family; no suite draws one"),
    ("basic_sequences", "peaks_decomposition_check", ("(alo, ahi), (blo, bhi) = overlap",),
     "the message of the raise that follows"),
    ("fourier", "square_function_norms", ("a, b = (intervals[k] for _, _, k in overlap)",),
     "the message of the raise that follows"),
)


class Tracer:
    """The lines executed and the functions called in the files under one
    directory, keyed by (file, line); a function by its code's first line."""

    def __init__(self, directory: Path):
        self.prefix = str(directory) + os.sep
        self.lines: Set[Tuple[str, int]] = set()
        self.calls: Set[Tuple[str, int]] = set()

    def __call__(self, frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(self.prefix):
            return None
        self.calls.add((code.co_filename, code.co_firstlineno))
        return self._line

    def _line(self, frame, event, arg):
        if event == "line":
            self.lines.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _first_line(node: ast.stmt) -> int:
    """The line a statement starts on, its decorators included: a function's
    code starts there too."""
    return min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])


def _header(node: ast.stmt) -> range:
    """The lines that execute a statement: all of a simple one, and the lines
    before the body of a compound one."""
    body = getattr(node, "body", None)
    stop = body[0].lineno if isinstance(body, list) and body else node.end_lineno + 1
    return range(_first_line(node), max(stop, node.lineno + 1))


def unreached(path: Path, tracer: Tracer) -> Tuple[List[Tuple[str, ast.stmt]], List[str]]:
    """The statements of path that ran on none of the traced lines, with the
    qualified name of the function they are in ("" at module level), and the
    functions that were never called, by qualified name."""
    name, tree = str(path), ast.parse(path.read_text())
    statements, functions = [], []

    def walk(body: List[ast.stmt], scope: str) -> None:
        for node in body:
            if _is_docstring(node) or isinstance(node, SKIPPED):
                continue
            if not any((name, line) in tracer.lines for line in _header(node)):
                statements.append((scope.rstrip("."), node))  # its body is not listed
                continue
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and (name, _first_line(node)) not in tracer.calls):
                functions.append(scope + node.name)  # its body is not listed
                continue
            inner = scope + node.name + "." if hasattr(node, "name") else scope
            for field in ("body", "orelse", "finalbody"):
                walk(getattr(node, field, []), inner)
            for handler in getattr(node, "handlers", []):
                walk(handler.body, inner)
            for case in getattr(node, "cases", []):
                walk(case.body, inner)

    walk(tree.body, "")
    return statements, functions


def run_commands(seed: int) -> Dict[str, int]:
    """Run every compared command in this process; its exit code by label."""
    from gaborlab.cli import main

    codes = {}
    here, argv = os.getcwd(), sys.argv
    with tempfile.TemporaryDirectory() as tmp:
        side = Path(tmp) / "side"
        side.mkdir()
        try:
            os.chdir(side)
            for cmd in compare_outputs.commands(side, seed):
                compare_outputs.write_inputs(side, cmd.argv)
                sys.argv = ["gaborlab", *cmd.argv]
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    try:
                        codes[cmd.label] = main()
                    except SystemExit as exc:  # argparse's refusals
                        codes[cmd.label] = exc.code
        finally:
            sys.argv = argv
            os.chdir(here)
    return codes


def _code(line: str) -> str:
    """A source line without its indent and its trailing comment."""
    return line.split("  #")[0].strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", default=str(ROOT / "src"),
                        help="directory that holds the gaborlab package")
    parser.add_argument("--seed", type=int, default=compare_outputs.workloads.RECORDED_SEED)
    args = parser.parse_args()
    package = Path(args.src).resolve() / "gaborlab"
    sys.path.insert(0, str(package.parent))
    tracer = Tracer(package)
    sys.settrace(tracer)
    try:
        codes = run_commands(args.seed)
    finally:
        sys.settrace(None)
    exits = Counter(codes.values())
    print(f"seed {args.seed}: {len(codes)} commands in-process; by exit code: "
          + ", ".join(f"{code}: {n}" for code, n in sorted(exits.items(), key=str)))
    # (module, function, line or None) -> where it is, for what ran on none
    on_purpose = {(module, function, line): None
                  for module, function, lines, _ in UNRUN_ON_PURPOSE
                  for line in lines or (None,)}
    total = [0, 0]
    for path in sorted(package.glob("*.py")):
        statements, functions = unreached(path, tracer)
        lines = path.read_text().splitlines()
        others, uncalled = [], []
        for scope, node in statements:
            key = (path.stem, scope, _code(lines[node.lineno - 1]))
            if key in on_purpose:
                on_purpose[key] = node.lineno
            else:
                others.append(f"  {node.lineno:5d}  {lines[node.lineno - 1].strip()}")
        for name in functions:
            if (path.stem, name, None) in on_purpose:
                on_purpose[path.stem, name, None] = name
            else:
                uncalled.append(name)
        total[0] += len(others)
        total[1] += len(uncalled)
        if not (others or uncalled):
            continue
        print(f"\n{path.relative_to(package.parent)}: {len(others)} statements "
              f"unrun, {len(uncalled)} functions not called")
        for line in others:
            print(line)
        if uncalled:
            print("  not called: " + ", ".join(uncalled))
    print(f"\n{total[0]} statements unrun, {total[1]} functions not called "
          "outside UNRUN_ON_PURPOSE")
    stale = [key for key, where in on_purpose.items() if where is None]
    print("\nunrun on purpose:")
    for module, function, lines, why in UNRUN_ON_PURPOSE:
        where = ", ".join(str(on_purpose[module, function, line] or "ran") for line in lines)
        print(f"  {module}.{function}: {f'lines {where}' if lines else 'not called'}\n"
              f"      {why}")
    statements = sum(line is not None for _, _, line in on_purpose)
    print(f"{statements} statements unrun, {len(on_purpose) - statements} functions "
          "not called on purpose")
    for module, function, line in stale:
        print(f"stale entry: {module}.{function} {line or '(the function)'} "
              "ran, or is not in the package")
    return 1 if total != [0, 0] or stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
