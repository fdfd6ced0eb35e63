"""The compared commands run every statement and call every function of the
package that `scripts/reach.py` does not list as unrun on purpose; and
every defaulted parameter of a public function is set by some caller, or by
a flag, or is listed with its reason.

The first check is reach.py's: it traces the lines and calls of every
command that `scripts/compare_outputs.py` compares, run in one process, and
exits 1 when something outside its UNRUN_ON_PURPOSE table (oracles, names
only the tests call, guards no compared command takes, each with its
reason) is unrun, or when an entry of that table ran or names nothing.  It
counts what runs, not what is named: code that some module names but no
command calls does not pass.

The parameter rule works on names.  A defaulted parameter of a
module-level public function, or of a public method or the `__init__` of a
module-level public class, is set when a call of that name (the class's, for
`__init__`) in the same files passes it, by keyword or by position.  A
suite's parameter is also set when a flag of its command sets it: `--trials`
its second parameter, and each of the command's suite flags in
`cli.COMMANDS` the parameter of that name.  Any other default is one value
in use, which a constant states more simply, unless KEPT_DEFAULTS gives the
reason it stays.
"""

import ast
import inspect
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gaborlab"

# (function, parameter, why it keeps a default that no call passes and no flag sets)
KEPT_DEFAULTS = (
    ("BlockPlan", "require_condition",
     "tests and bench/selftest.py build plans that fail the condition"),
    ("main", "argv",
     "None marks the process entry; tests and the in-process benchmark pass a list"),
    ("sign_flip_synthesis_sup", "tol",
     "an oracle that reach.py lists as unrun on purpose: nothing in the package calls it"),
)


CALLERS = [*sorted(PACKAGE.glob("*.py")), ROOT / "tests" / "test_acceptance.py"]


def test_the_compared_commands_reach_the_package():
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "reach.py")],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr


def _defaulted_parameters():
    """(function, parameter, index, where) of every defaulted parameter of a
    public function, method or __init__ (named by its class); index is the
    place a positional argument of a call fills, None for keyword-only."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                functions = [(node.name, node, 0)]
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                # a call fills a method's parameters after self or cls
                functions = [(node.name if f.name == "__init__" else f.name, f,
                              int(not any(getattr(d, "id", None) == "staticmethod"
                                          for d in f.decorator_list)))
                             for f in node.body if isinstance(f, ast.FunctionDef)
                             and (f.name == "__init__" or not f.name.startswith("_"))]
            else:
                continue
            for name, func, skip in functions:
                if name.startswith("_"):
                    continue
                args = func.args
                positional = [*args.posonlyargs, *args.args]
                where = f"{path.stem}:{func.lineno}"
                for index in range(len(positional) - len(args.defaults), len(positional)):
                    found.append((name, positional[index].arg, index - skip, where))
                found += [(name, arg.arg, None, where)
                          for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                          if default is not None]
    return found


def _passed_arguments():
    """Name -> (the most positional arguments of one call, the keywords any
    call passes) over the calls of that name in CALLERS; a starred argument
    counts for nothing, nor do the ones after it."""
    passed = {}
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = [i for i, arg in enumerate(node.args) if isinstance(arg, ast.Starred)]
            most, keywords = passed.setdefault(name, (0, set()))
            count = starred[0] if starred else len(node.args)
            passed[name] = (max(most, count), keywords | {kw.arg for kw in node.keywords})
    return passed


def _flag_set_parameters():
    """Suite function -> the parameters its command's flags set: --trials
    the second, which cli.cmd_suite passes by position, and each suite flag
    the parameter of its name."""
    from gaborlab import cli, suites

    found = {}
    for _, _, flags, parameters in cli.COMMANDS.values():
        for kind in {"family", "suite"} & set(flags):
            for name in cli.FLAGS[kind]["choices"]:
                function = f"{name.replace('-', '_')}_suite"
                second = list(inspect.signature(getattr(suites, function)).parameters)[1]
                found[function] = {second} if "trials" in flags else set()
                found[function] |= {flag.replace("-", "_") for flag in parameters}
    return found


def test_every_defaulted_parameter_is_set():
    passed, flagged = _passed_arguments(), _flag_set_parameters()

    def is_set(function, parameter, index):
        most, keywords = passed.get(function, (0, set()))
        return (parameter in keywords or (index is not None and index < most)
                or parameter in flagged.get(function, ()))

    unset = {(function, parameter): where
             for function, parameter, index, where in _defaulted_parameters()
             if not is_set(function, parameter, index)}
    kept = {(function, parameter) for function, parameter, _ in KEPT_DEFAULTS}
    # a kept entry whose parameter went, or which a caller or a flag now sets, is stale
    stale = sorted(kept - set(unset))
    assert ({key: where for key, where in unset.items() if key not in kept}, stale) == ({}, [])
