"""Every private helper defined in ``src/`` is read somewhere in ``src/`` or
``scripts/``.

A private name has one leading underscore. The scan covers undecorated
functions and classes, at any depth, and module-level assignments; a decorated
definition is registered by its decorator, so it is exempt. A read is a loaded
name or an attribute, anywhere in the scanned modules: names are not told
apart by module, so a helper is kept alive by a read of any same-named one.
Tests do not count as readers: a helper that only a test calls is dead code.
"""

import ast

from conftest import ROOT


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def private_definitions(tree):
    """(line, name) of each private undecorated function or class anywhere in
    ``tree``, and of each private name a module-level assignment binds."""
    found = [(node.lineno, node.name) for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
             and not node.decorator_list and _private(node.name)]
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        found += [(node.lineno, t.id) for target in targets for t in ast.walk(target)
                  if isinstance(t, ast.Name) and _private(t.id)]
    return found


def reads(tree):
    """Every name ``tree`` loads, as a bare name or as an attribute."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)})


def dead_helpers(defining, reading):
    """(label, line, name) of each private name defined in a ``defining`` tree
    and read in none of the ``reading`` trees; both map a label to a tree."""
    read = set().union(*map(reads, reading.values()))
    return sorted((label, line, name) for label, tree in defining.items()
                  for line, name in private_definitions(tree) if name not in read)


def test_the_scan_sees_a_dead_helper():
    source = ast.parse(
        "import functools\n"
        "_USED, _UNUSED = 1, 2\n_LEFT: int = 3\n__dunder__ = 4\n"
        "def _horner(c, t):\n    return c\n"
        "def _called():\n    return _USED\n"
        "@functools.cache\ndef _registered():\n    pass\n"
        "class _Box:\n    def _method(self):\n        return self._attr\n"
        "    def _attr(self):\n        pass\n"
        "def public():\n    def _inner():\n        pass\n    return _called()\n")
    script = ast.parse("from m import _Box\n_Box()\n")
    assert dead_helpers({"m": source}, {"m": source, "s": script}) == [
        ("m", 2, "_UNUSED"), ("m", 3, "_LEFT"), ("m", 5, "_horner"),
        ("m", 13, "_method"), ("m", 18, "_inner")]


def test_no_private_helper_in_src_goes_unread():
    def trees(folder):
        return {str(path.relative_to(ROOT)): ast.parse(path.read_text())
                for path in sorted((ROOT / folder).rglob("*.py"))}

    src = trees("src")
    assert dead_helpers(src, {**src, **trees("scripts")}) == []
