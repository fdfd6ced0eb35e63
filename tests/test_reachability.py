"""Every public function of the package is reached by a command, a suite or an
acceptance criterion, or is a named test oracle.

The check works on names: a public function or method counts as reached when
some module of `src/gaborlab` or `tests/test_acceptance.py` names it, as a
bare name or as an attribute, other than by its own definition.  A method
that shares its name with a reached one (two `to_json`s, say) passes
unnoticed, so such methods still need an audit by hand.  A method that
overrides a method of a standard-library base class (an argument parser's
`error`, say) counts as reached: the standard library calls it.
"""

import ast
import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gaborlab"

# (name, why it stays although nothing in the package calls it)
ORACLES = (
    ("haar_functional", "one dual-atom functional; the oracle (through tests/frame_oracles.py's span_coefficients) of the layouts the frame operator reads"),
    ("modulation_values", "sampled exponential of tests/frame_oracles.py's error_pieces, the unreduced error-term oracle"),
    ("sign_flip_synthesis_sup", "exact sign-flip supremum over the 2^K block-constant patterns; no command reports it yet"),
)


def _overrides_stdlib(cls, name: str) -> bool:
    return any(hasattr(base, name) for base in cls.__mro__[1:]
               if base.__module__.split(".")[0] in sys.stdlib_module_names)


def _stdlib_overrides(path: Path, tree: ast.Module) -> set:
    """The method nodes of tree's module-level classes that override a method
    of a standard-library base class."""
    module = importlib.import_module(
        "gaborlab" if path.stem == "__init__" else f"gaborlab.{path.stem}")
    return {method for node in tree.body if isinstance(node, ast.ClassDef)
            for method in node.body if isinstance(method, ast.FunctionDef)
            and _overrides_stdlib(getattr(module, node.name), method.name)}


def _public_definitions():
    """Name -> ['module:line', ...] of every public function and method in the
    package, leaving out overrides of standard-library methods."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        overrides = _stdlib_overrides(path, tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                    and node not in overrides):
                found.setdefault(node.name, []).append(f"{path.stem}:{node.lineno}")
    return found


def _referenced_names():
    names = set()
    for path in [*sorted(PACKAGE.glob("*.py")), ROOT / "tests" / "test_acceptance.py"]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_function_is_reached():
    defined, used = _public_definitions(), _referenced_names()
    oracles = {name for name, _ in ORACLES}
    unreached = {name: where for name, where in defined.items()
                 if name not in used and name not in oracles}
    # an oracle entry whose function went, or which the package now calls, is stale
    stale = [name for name, _ in ORACLES if name not in defined or name in used]
    assert (unreached, stale) == ({}, [])
