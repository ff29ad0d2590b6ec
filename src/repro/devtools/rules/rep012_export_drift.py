"""REP012: ``__all__`` must match the module's actual public surface.

The repo's convention (since PR 1) is an explicit ``__all__`` per library
module; it is what ``from repro.x import *`` honours, what the API docs
enumerate, and what downstream sessions treat as stable.  Two drift
modes, both invisible per-file conventions reviews keep missing:

* a name listed in ``__all__`` that the module never defines or imports
  (usually a leftover from a rename) — an ``ImportError`` waiting inside
  every ``import *`` and a lie in the docs;
* a public (non-underscore) top-level symbol missing from the declared
  ``__all__`` — accidental API, reachable but unlisted.

Only modules that *declare* a literal ``__all__`` are checked (declaring
one is the opt-in); dynamically-built ``__all__`` (``+=`` etc.) is
skipped as unresolvable.  Dunder module metadata (``__version__``) is
not required to be exported.  Names bound inside top-level ``if``,
``try``, ``with`` and loop blocks count as module-level.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..engine import Reporter, rule
from .common import in_library


def _string_elements(node: ast.expr) -> Optional[Tuple[str, ...]]:
    """The all-string elements/keys of a literal container, else None."""
    if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
        values: List[Optional[ast.expr]] = list(node.elts)
    elif isinstance(node, ast.Dict):
        values = list(node.keys)
    else:
        return None
    if not all(
        isinstance(value, ast.Constant) and isinstance(value.value, str)
        for value in values
    ):
        return None
    return tuple(value.value for value in values)  # type: ignore[union-attr]


@rule(
    "REP012",
    severity="warning",
    description="__all__ drift: exported name undefined, or public symbol "
    "missing from a declared __all__",
    rationale="__all__ is the module's stable surface; drift breaks "
    "import * and silently widens or misstates the API",
    applies=in_library,
)
class ExportDriftRule(ast.NodeVisitor):
    def __init__(self, reporter: Reporter) -> None:
        self.reporter = reporter
        #: Module-level name -> the statement that first binds it.
        self.definitions: Dict[str, ast.stmt] = {}
        self.imported: Set[str] = set()
        self.exports: Optional[Tuple[str, ...]] = None
        self.exports_node: Optional[ast.stmt] = None
        self.exports_resolved = True

    def visit_Module(self, node: ast.Module) -> None:
        self._scan(node.body, top=True)
        if self.exports is None or not self.exports_resolved:
            return
        declared = set(self.exports)
        for name in sorted(declared - set(self.definitions) - self.imported):
            self.reporter.report(
                self.exports_node,  # type: ignore[arg-type]
                f"__all__ lists '{name}' but the module neither defines "
                "nor imports it",
            )
        for name, definition in sorted(self.definitions.items()):
            if name.startswith("_") or name in declared:
                continue
            self.reporter.report(
                definition,
                f"public symbol '{name}' is missing from __all__; export "
                "it or rename it with a leading underscore",
            )

    def _bind(self, target: ast.expr, statement: ast.stmt) -> None:
        if isinstance(target, ast.Name):
            self.definitions.setdefault(target.id, statement)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, statement)

    def _scan(self, statements: Sequence[ast.stmt], top: bool) -> None:
        for node in statements:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self.definitions.setdefault(node.name, node)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    self.imported.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name != "*":
                        self.imported.add(alias.asname or alias.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    self._bind(target, node)
                if (
                    top
                    and node.value is not None
                    and len(targets) == 1
                    and isinstance(targets[0], ast.Name)
                    and targets[0].id == "__all__"
                ):
                    self.exports = _string_elements(node.value)
                    self.exports_resolved = self.exports is not None
                    self.exports_node = node
            elif isinstance(node, ast.AugAssign):
                if isinstance(node.target, ast.Name) and node.target.id == "__all__":
                    self.exports_resolved = False
            elif isinstance(
                node,
                (ast.If, ast.Try, ast.With, ast.AsyncWith, ast.For, ast.AsyncFor, ast.While),
            ):
                blocks = [node.body]
                blocks += [handler.body for handler in getattr(node, "handlers", ())]
                blocks += [getattr(node, "orelse", []), getattr(node, "finalbody", [])]
                for block in blocks:
                    self._scan(block, top=False)
