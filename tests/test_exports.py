"""Every ``repro`` module that declares ``__all__`` keeps it honest: each
listed name resolves, and each public top-level definition is listed.
Definitions are read from the source, so an unlisted public constant
(``MAX_BODY_BYTES``) counts as much as a function."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import repro

MODULES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
)


def _defined_names(statements):
    """Names bound by top-level defs, classes and assignments, inside
    top-level ``if`` and ``try`` blocks too."""
    for node in statements:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (leaf for target in targets for leaf in ast.walk(target)):
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                    yield name.id
        elif isinstance(node, (ast.If, ast.Try)):
            blocks = [node.body, node.orelse, getattr(node, "finalbody", [])]
            blocks += [handler.body for handler in getattr(node, "handlers", [])]
            for block in blocks:
                yield from _defined_names(block)


@pytest.mark.parametrize("module_name", MODULES)
def test_all_lists_exactly_the_public_surface(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        return
    unresolved = [name for name in exported if not hasattr(module, name)]
    assert not unresolved, f"{module_name}.__all__ lists undefined {unresolved}"
    defined = set(_defined_names(ast.parse(inspect.getsource(module)).body))
    unlisted = sorted(name for name in defined - set(exported) if not name.startswith("_"))
    assert not unlisted, f"{module_name} does not export public {unlisted}"
