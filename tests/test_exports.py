"""Every exported and every benchmark-traced riccicert name resolves.

A deletion that leaves a stale ``__all__`` entry, or that removes a
function the benchmark tracer patches, fails here instead of only in a
star import or when ``bench/tracing.py`` installs its wrappers.
"""

import ast
import importlib
import pkgutil

import riccicert
from conftest import ROOT

MODULES = [m.name for m in pkgutil.iter_modules(riccicert.__path__)
           if not m.name.startswith("_")]  # __main__ exits on import


def traced_targets():
    """The ``_TARGETS`` tuple of ``bench/tracing.py``, read from its source."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None)
                                             for t in node.targets] == ["_TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no _TARGETS")


def test_every_exported_name_resolves():
    missing = []
    for name in MODULES:
        mod = importlib.import_module(f"riccicert.{name}")
        missing += [f"{name}.{attr}" for attr in getattr(mod, "__all__", ())
                    if not hasattr(mod, attr)]
    assert missing == []


def test_every_traced_name_resolves():
    # Tracer.install reads each target as vars(owner)[attr].
    targets = traced_targets()
    assert targets
    missing = []
    for module, qualname, *_ in targets:
        owner = importlib.import_module(f"riccicert.{module}")
        *cls_path, attr = qualname.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{module}.{qualname}")
    assert missing == []
