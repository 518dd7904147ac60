"""Static rules on the package source.

Every public module-level function and class of the package is used.  A name
is used when it is loaded somewhere in ``src/``, ``tests/`` or ``perfbench/``
outside its own definition: called, subclassed, named in an annotation or
read as an attribute.  Imports are not uses, and neither are the re-exports
of ``noneq/__init__.py``.

No package module other than ``model`` imports a ``_``-prefixed name from
``model``, so only ``model`` knows how a process is reversed.  No package
module other than ``model`` tests whether a spec is a ``BrownianSpec`` or a
``LangevinSpec``, by ``isinstance`` or by comparing ``type(x)``, so only
``model`` knows how the Gibbs family and the dynamics depend on the kind of
spec.  No package module other than ``model`` reads or sets the
``transport`` sign of a kinetic spec, which is how a kinetic process is
reversed; the others step and transport a spec through its ``drift``.

Every defaulted parameter of a public function, or of a public method or
``__init__`` of a public class, is passed by some call in ``src/``,
``tests/`` or ``perfbench/``; a knob that nothing sets is a constant.

At module level, ``cli`` imports no package module other than ``errors``
and ``model``: argument parsing, config checks and ``validate`` need no
more, and the runners bind the numerical library on their first run.

The checks read the source with ``ast`` and run nothing.
"""

import ast
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "noneq"


def loaded_names(node) -> Counter:
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load))


def source_files() -> list[Path]:
    return sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def unused_public_definitions() -> list[str]:
    definitions = []
    uses = Counter()
    for path in source_files():
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


def is_call_of(node, name: str) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name


def spec_kind_lines(source: str) -> list[int]:
    """Lines of ``source`` that test the kind of a spec: an ``isinstance``
    call whose class argument names a spec class, or a comparison of a
    ``type(x)`` call with an operand that names one (``is``, ``==``, ``in``
    and their negations)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if is_call_of(node, "isinstance") and len(node.args) == 2:
            names_spec = loaded_names(node.args[1]).keys() & SPEC_CLASSES
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            names_spec = (any(is_call_of(o, "type") for o in operands)
                          and any(loaded_names(o).keys() & SPEC_CLASSES for o in operands))
        else:
            continue
        if names_spec:
            found.append(node.lineno)
    return sorted(found)


def spec_kind_tests() -> list[str]:
    """``module:line`` of each test of the kind of a spec outside ``model``."""
    return [f"{path.stem}:{line}" for path in sorted(PACKAGE.glob("*.py"))
            if path.stem != "model" for line in spec_kind_lines(path.read_text())]


def test_only_model_tests_the_kind_of_a_spec():
    assert spec_kind_tests() == []


def test_spec_kind_rule_sees_every_form():
    source = ("isinstance(spec, BrownianSpec)\n"
              "isinstance(spec, (int, model.LangevinSpec))\n"
              "type(spec) is BrownianSpec\n"
              "type(spec) == LangevinSpec\n"
              "LangevinSpec is not type(spec)\n"
              "type(spec) in (BrownianSpec, LangevinSpec)\n"
              "if type(spec) != model.BrownianSpec:\n"
              "    pass\n"
              "isinstance(spec, GaussianLaw)\n"
              "type(spec) is GaussianLaw\n"
              "spec.kind == BrownianSpec\n"
              "BrownianSpec(potential, beta=1.0, horizon=1.0)\n")
    assert spec_kind_lines(source) == [1, 2, 3, 4, 5, 6, 7]


def transport_lines(source: str) -> list[int]:
    """Lines of ``source`` that read or set a ``.transport`` attribute."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "transport")


def transport_uses() -> list[str]:
    """``module:line`` of each use of ``.transport`` outside ``model``."""
    return [f"{path.stem}:{line}" for path in sorted(PACKAGE.glob("*.py"))
            if path.stem != "model" for line in transport_lines(path.read_text())]


def test_only_model_uses_the_transport_sign():
    assert transport_uses() == []


def test_transport_rule_sees_reads_and_writes():
    source = ("sign = spec.transport\n"
              "rev.transport = -1.0\n"
              "f(model.LangevinSpec.transport)\n"
              "transport = 1.0\n"
              "spec.transports\n")
    assert transport_lines(source) == [1, 2, 3]


def public_callables() -> list:
    """``(label, name, params)`` for each public module-level function and each
    public method or ``__init__`` of a public class of the package.  ``name``
    is what a call names (the class for ``__init__``), and ``params`` maps
    each defaulted parameter to its index among a call's positional arguments
    (``None`` for a keyword-only one)."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defs = [(path.stem, node.name, node, False) for node in tree.body
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                defs += [(f"{path.stem}.{cls.name}",
                          cls.name if node.name == "__init__" else node.name, node,
                          not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                  for d in node.decorator_list))
                         for node in cls.body if isinstance(node, ast.FunctionDef)
                         and (node.name == "__init__" or not node.name.startswith("_"))]
        for owner, name, node, bound in defs:
            args = node.args
            positional = (args.posonlyargs + args.args)[1 if bound else 0:]
            params = {a.arg: i for i, a in enumerate(positional)
                      if i >= len(positional) - len(args.defaults)}
            params.update({a.arg: None for a, d in zip(args.kwonlyargs, args.kw_defaults)
                           if d is not None})
            found.append((f"{owner}.{node.name}", name, params))
    return found


def passed_arguments() -> tuple[dict, dict]:
    """Per callee name, the keywords that some call passes and the most
    positional arguments that one call passes (up to a ``*args``), over every
    call in ``src/``, ``tests/`` and ``perfbench/``."""
    keywords, positional = defaultdict(set), defaultdict(int)
    for path in source_files():
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                keywords[name].update(k.arg for k in node.keywords if k.arg is not None)
                n = next((i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)),
                         len(node.args))
                positional[name] = max(positional[name], n)
    return keywords, positional


def unpassed_parameters() -> list[str]:
    """``module.[Class.]function(parameter)`` for each defaulted parameter no call passes."""
    keywords, positional = passed_arguments()
    return [f"{label}({param})" for label, name, params in public_callables()
            for param, index in params.items()
            if param not in keywords[name] and (index is None or index >= positional[name])]


def test_every_public_parameter_is_passed():
    assert unpassed_parameters() == []


CLI_START_UP = {"errors", "model"}


def module_level_package_imports(source: str) -> list[str]:
    """The package modules that ``source`` imports outside any function body
    (``from .x import``, ``from . import x``, ``from noneq.x import``, ``import noneq.x``)."""
    found = []
    stack = list(ast.parse(source).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "noneq":
                    continue
                module = module.partition(".")[2]
            found += [module.split(".")[0]] if module else [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            found += [a.name.split(".")[1] for a in node.names if a.name.startswith("noneq.")]
    return sorted(set(found))


def test_cli_imports_only_errors_and_model_at_start_up():
    assert set(module_level_package_imports((PACKAGE / "cli.py").read_text())) <= CLI_START_UP


def test_start_up_rule_sees_every_import_form():
    source = ("from .sde import simulate_forward\n"
              "from . import entropy\n"
              "from noneq.control import solve_g_pde_1d\n"
              "import noneq.jarzynski\n"
              "from noneq import odes\n"
              "if True:\n"
              "    from .reversal import law_equivalence_test\n"
              "class Runner:\n"
              "    from .fokker_planck import solve_fp_1d\n"
              "def lazy():\n"
              "    from .gaussian_oracle import GaussianLaw\n"
              "import numpy\n")
    assert module_level_package_imports(source) == [
        "control", "entropy", "fokker_planck", "jarzynski", "odes", "reversal", "sde"]
