"""REP002: buffered fancy-index accumulation inside the engine.

The three scan strategies of the superstep driver (in-process, shm pool,
mmap stream) are bit-identical only because every message fold uses
*unbuffered* ``ufunc.at`` — ``np.add.at(out, idx, values)`` applies
repeated indices sequentially, whereas ``out[idx] += values`` silently
drops all but one contribution per duplicated index and ``np.add(...,
out=out[idx])`` buffers through a temporary.  Inside ``repro/engine/`` and
``repro/ooc/pregel_stream.py`` (the stream scan) any fancy-index
accumulation must go through the merge ufunc's ``.at``.

Heuristics (scalar indices in Python loops are fine and common):

* ``target[idx] += x`` is flagged when the index is a *call* (e.g.
  ``np.nonzero(m)``), a *slice* subscript (``order[:n]``), or a
  name/attribute whose terminal name conventionally denotes an index
  array (``idx``, ``indices``, ``ids``, ``slots``, ``mask``,
  ``inverse``, ``perm``, ``sources``, ``targets``, ``srcs``, ``dsts``
  or an ``_idx``/``_indices``/``_ids``/``_slots`` suffix).
* ``np.add(..., out=target[...])`` and friends are always flagged.

False positives take an inline ``# repro: noqa[REP002]``.
"""

from __future__ import annotations

import ast

from ..engine import Reporter, rule
from .common import call_name

_ARRAYISH_NAMES = {
    "idx",
    "indices",
    "index_array",
    "ids",
    "slots",
    "mask",
    "inverse",
    "perm",
    "permutation",
    "sources",
    "targets",
    "srcs",
    "dsts",
}

_ARRAYISH_SUFFIXES = ("_idx", "_indices", "_ids", "_slots", "_mask", "_perm")

#: Buffered ufuncs whose ``out=`` form loses the serial fold order.
_BUFFERED_UFUNCS = {"add", "subtract", "multiply", "minimum", "maximum", "logaddexp"}


def _terminal_name(node: ast.AST) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _index_is_arrayish(index: ast.AST) -> bool:
    if isinstance(index, ast.Call):
        return True
    if isinstance(index, ast.Subscript) and isinstance(index.slice, ast.Slice):
        return True
    name = _terminal_name(index)
    return bool(name) and (
        name in _ARRAYISH_NAMES or name.endswith(_ARRAYISH_SUFFIXES)
    )


def _applies(path: str) -> bool:
    return "repro/engine/" in path or "repro/ooc/pregel_stream.py" in path


@rule(
    "REP002",
    severity="error",
    description="buffered fancy-index accumulation in engine code "
    "(use the merge ufunc's unbuffered .at)",
    rationale="the in-process, shm-pool and mmap-stream scans are "
    "bit-identical only through unbuffered ufunc.at folds",
    applies=_applies,
)
class FoldOrderRule(ast.NodeVisitor):
    def __init__(self, reporter: Reporter) -> None:
        self.reporter = reporter

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        target = node.target
        if isinstance(target, ast.Subscript) and _index_is_arrayish(target.slice):
            self.reporter.report(
                node,
                f"in-place accumulation {ast.unparse(target)!r} buffers duplicate "
                "indices; use an unbuffered ufunc.at fold to preserve the serial "
                "fold order",
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        name = call_name(node)
        if name is not None:
            parts = name.split(".")
            if (
                len(parts) >= 2
                and parts[0] in ("np", "numpy")
                and parts[-1] in _BUFFERED_UFUNCS
            ):
                for keyword in node.keywords:
                    if keyword.arg == "out" and isinstance(keyword.value, ast.Subscript):
                        self.reporter.report(
                            node,
                            f"{name}(..., out={ast.unparse(keyword.value)}) is a "
                            "buffered accumulation; use the unbuffered "
                            f"{name}.at form",
                        )
        self.generic_visit(node)
