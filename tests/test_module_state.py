"""Guard: no module of the package keeps state between calls.

A memo behind a `global` statement makes a call's cost (and, if the memo is
ever wrong, its result) depend on which calls ran before it. State that
must be shared belongs to the object or the caller that owns it, as a
game's breakpoint table and a capacity sweep's priced oracle grid do.
"""

import ast
import pathlib

import credshare

PACKAGE = pathlib.Path(credshare.__file__).parent


def test_no_module_assigns_a_global():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 10
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Global))
    assert found == []
