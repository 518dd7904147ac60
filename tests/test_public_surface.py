"""Every public module-level function and class of the package is used.

A name is used when it is loaded somewhere in ``src/``, ``tests/`` or
``perfbench/`` outside its own definition: called, subclassed, named in an
annotation or read as an attribute.  Imports are not uses, and neither are
the re-exports of ``noneq/__init__.py``.  The check reads the source with
``ast`` and runs nothing.
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
