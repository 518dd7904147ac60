"""Static rules on the package source.

Every public module-level function and class of the package is used.  A name
is used when it is loaded somewhere in ``src/``, ``tests/`` or ``perfbench/``
outside its own definition: called, subclassed, named in an annotation or
read as an attribute.  Imports are not uses, and neither are the re-exports
of ``noneq/__init__.py``.

No package module other than ``model`` imports a ``_``-prefixed name from
``model``, so only ``model`` knows how a process is reversed.  No package
module other than ``model`` tests whether a spec is a ``BrownianSpec`` or a
``LangevinSpec``, so only ``model`` knows how the Gibbs family and the
dynamics depend on the kind of spec.

The checks read the source with ``ast`` and run nothing.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "noneq"


def loaded_names(node) -> Counter:
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load))


def unused_public_definitions() -> list[str]:
    definitions = []
    uses = Counter()
    for path in sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")):
        if path == PACKAGE / "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        uses += loaded_names(tree)
        if path.parent == PACKAGE:
            definitions += [(path.stem, node) for node in tree.body
                            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                            and not node.name.startswith("_")]
    return [f"{module}.{node.name}" for module, node in definitions
            if uses[node.name] == loaded_names(node)[node.name]]


def test_every_public_definition_is_used():
    assert unused_public_definitions() == []


def private_model_imports() -> list[str]:
    """``module: name`` for each ``_``-prefixed name a package module imports from ``model``."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "model":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module in ("model", "noneq.model"):
                found += [f"{path.stem}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    return found


def test_only_model_uses_its_private_names():
    assert private_model_imports() == []


SPEC_CLASSES = {"BrownianSpec", "LangevinSpec"}


def spec_kind_tests() -> list[str]:
    """``module:line`` of each ``isinstance`` call outside ``model`` that names a spec class."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "model":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2
                    and loaded_names(node.args[1]).keys() & SPEC_CLASSES):
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_only_model_tests_the_kind_of_a_spec():
    assert spec_kind_tests() == []
