"""Every public function of the package is reached by a command, a suite or an
acceptance criterion, or is a named test oracle.

The check works on names: a public function or method counts as reached when
some module of `src/gaborlab` or `tests/test_acceptance.py` names it, as a
bare name or as an attribute, other than by its own definition.  A method
that shares its name with a reached one (two `to_json`s, say) passes
unnoticed, so such methods still need an audit by hand.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gaborlab"

# (name, why it stays although nothing in the package calls it)
ORACLES = (
    ("window_on_grid", "dense oracle of the sparse window and its certified pieces"),
    ("frame_operator_dense", "dense oracle of frame_operator_rows and reconstruct_rows"),
    ("sign_flip_synthesis_sup", "exact sign-flip supremum over the 2^K block-constant patterns; no command reports it yet"),
)


def _public_definitions():
    """Name -> ['module:line', ...] of every public function and method in the package."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
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
