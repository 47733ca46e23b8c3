"""Every exported and traced name stays bound, and no private helper is orphaned.

A deletion in ``src/`` can leave a stale name in an ``__all__`` list or in
the package's imports, unbind a function that ``perfbench/tracing.py``
patches at its lookup site, or leave behind a private helper that nothing
calls any more; these tests fail on each.
"""

import ast
import importlib
import inspect
import pkgutil
from collections import defaultdict
from pathlib import Path

import pytest

import quatcurves
from quatcurves import _fmt, bertrand, cli, curves, frames, quaternion
from quatcurves.curves import ArcLengthTable, ParametricCurve
from quatcurves.quaternion import Quaternion

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(quatcurves.__file__).resolve().parent
# Every module but __main__, which runs the CLI when imported.
MODULES = [importlib.import_module(f"quatcurves.{info.name}")
           for info in pkgutil.iter_modules(quatcurves.__path__) if info.name != "__main__"]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_are_bound(module):
    names = getattr(module, "__all__", [])
    assert [name for name in names if not hasattr(module, name)] == []


def test_package_exports_are_public_names_of_their_modules():
    tree = ast.parse(inspect.getsource(quatcurves))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            source = importlib.import_module(f"quatcurves.{node.module}")
            public = getattr(source, "__all__", None)
            for alias in node.names:
                assert getattr(quatcurves, alias.name) is getattr(source, alias.name)
                assert public is None or alias.name in public, (node.module, alias.name)


def test_tracer_patches_and_restores_every_site(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    owners = [_fmt, bertrand, cli, curves, frames, quaternion, ArcLengthTable, ParametricCurve,
              Quaternion]
    before = [dict(vars(owner)) for owner in owners]
    with tracer.installed():
        patched = {(id(owner), name) for owner, saved in zip(owners, before)
                   for name, value in vars(owner).items() if saved.get(name) is not value}
        assert patched == {(id(owner), name) for owner, name, _ in tracer._patches()}
    after = [dict(vars(owner)) for owner in owners]
    for owner, old, new in zip(owners, before, after):
        assert old.keys() == new.keys(), owner
        assert [name for name in old if old[name] is not new[name]] == [], owner


def private_definitions(tree):
    """``(name, node)`` for each private module-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_no_private_helper_is_orphaned():
    # A reference is a load of the name, an attribute of that name or an
    # import of it, anywhere in src/ outside the definition itself; a
    # mention in a docstring or comment is not one.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    references = defaultdict(list)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                references[node.id].append(node)
            elif isinstance(node, ast.Attribute):
                references[node.attr].append(node)
            elif isinstance(node, ast.alias):
                references[node.name].append(node)
    orphans = []
    for module, tree in trees.items():
        for name, definition in private_definitions(tree):
            inside = {id(node) for node in ast.walk(definition)}
            if all(id(node) in inside for node in references[name]):
                orphans.append(f"{module}:{name}")
    assert orphans == []
