"""Guards over every module of the package: none keeps state between
calls, none imports a name it never uses, none totals floats with the
builtin sum, none draws random numbers, none reaches an instance's
attributes through vars() or __dict__, and every name the package
exports exists.

A memo behind a `global` statement makes a call's cost (and, if the memo is
ever wrong, its result) depend on which calls ran before it. State that
must be shared belongs to the object or the caller that owns it, as a
game's breakpoint table and a capacity sweep's priced oracle grid do.

An unused import outlives the code that needed it. The package's
`__init__.py` (re-exports) and `TYPE_CHECKING` blocks are exempt; the
tests' reference module, which took code out of the package, is checked
too.
"""

import ast
import pathlib

import credshare

PACKAGE = pathlib.Path(credshare.__file__).parent
REFERENCE = pathlib.Path(__file__).parent / "reference.py"


def test_no_module_assigns_a_global():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 10
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Global))
    assert found == []


# imported but not called: perfbench/tracing.py wraps them as attributes
KEPT_FOR_TRACING = {"protocol.py": {"classify_region"},
                    "solver.py": {"build_demand_curve"}}


def _type_checking_imports(tree):
    return {id(node) for block in ast.walk(tree)
            if isinstance(block, ast.If) and isinstance(block.test, ast.Name)
            and block.test.id == "TYPE_CHECKING"
            for stmt in block.body for node in ast.walk(stmt)}


def test_no_module_imports_a_name_it_never_uses():
    sources = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(sources) >= 10
    sources.append(REFERENCE)
    unused = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        skipped = _type_checking_imports(tree)
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in skipped:
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        kept = KEPT_FOR_TRACING.get(path.name, set())
        unused.extend(f"{path.name}:{line} {name}" for name, line in imported.items()
                      if name not in used and name not in kept)
    assert unused == []


def test_no_module_calls_the_builtin_sum():
    # from Python 3.12 sum() adds floats with compensated summation, so its
    # total can differ in the last bit from the plain priority-order loops
    # every other total uses; a loop gives the same bits on every version
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 10
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                     and node.func.id == "sum")
    assert found == []


def test_no_module_imports_random():
    # every result is a function of its inputs: nothing draws
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 10
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found.extend(f"{path.name}:{node.lineno}" for name in names
                         if name.split(".")[0] == "random")
    assert found == []


def test_no_module_reaches_attributes_through_vars_or_dict():
    # setting a dataclass's fields through vars(self) or __dict__ turns off
    # CPython 3.11's inline instance values: PeerProfile attribute reads in
    # best_response loops ran 1.4-1.6x slower that way
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 10
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                         and node.func.id == "vars")
                     or (isinstance(node, ast.Attribute) and node.attr == "__dict__"))
    assert found == []


def test_every_exported_name_resolves():
    assert len(set(credshare.__all__)) == len(credshare.__all__)
    assert [name for name in credshare.__all__ if not hasattr(credshare, name)] == []
    namespace = {}
    exec("from credshare import *", namespace)
    assert set(credshare.__all__) <= set(namespace)
