"""No module in ``src/``, ``scripts/`` or ``tests/`` imports a name it never reads.

No linter is installed, so this ``ast`` scan stands in for one. A name listed
in its module's ``__all__`` (a re-export) and a ``from __future__`` import
are exempt.
"""

import ast

from conftest import ROOT


def unused_imports(tree):
    """(line, name) of each imported name that ``tree`` never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in read | exported)


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nimport sys as system\n"
                     "from math import pi, tau\n__all__ = ['tau']\n"
                     "print(os.path.sep)\n")
    assert unused_imports(tree) == [(3, "system"), (4, "pi")]


def test_no_module_imports_a_name_it_never_reads():
    found = [f"{path.relative_to(ROOT)}:{line} {name}"
             for folder in ("src", "scripts", "tests")
             for path in sorted((ROOT / folder).rglob("*.py"))
             for line, name in unused_imports(ast.parse(path.read_text()))]
    assert found == []
