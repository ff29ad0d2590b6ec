"""Invariants that past bugs paid for, checked by reading the source.

Each invariant is a walker that yields the offending nodes of a syntax
tree, run over each file of its scope as one test that lists every
violation's ``path:line``.  ``test_invariant_walkers.py`` pins what each
walker flags and spares; ``python tests/mutants.py`` seeds a violation
per invariant into a copy of the tree and fails unless a test catches it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "repro"


def _files(*bases, exclude=()):
    """Root-relative ``.py`` paths under ``bases``, bar hidden, cached and ``exclude``d."""
    paths = []
    for base in bases:
        assert base.exists(), f"{base} is gone; point the invariant at its new home"
        for path in [base] if base.is_file() else sorted(base.rglob("*.py")):
            rel = path.relative_to(ROOT)
            if any(part.startswith(".") or part == "__pycache__" for part in rel.parts):
                continue
            if rel.as_posix() not in exclude:
                paths.append(rel.as_posix())
    return paths


def _violations(path, walker):
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"), path)
    return [f"{path}:{node.lineno}: {ast.unparse(node)}" for node in walker(tree)]


def _calls(tree):
    return (node for node in ast.walk(tree) if isinstance(node, ast.Call))


def _terminal(node):
    """The last name of a ``Name``/``Attribute`` chain (``np.add`` -> ``add``)."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else ""


def _dotted(node):
    """``a.b.c`` for a ``Name``/``Attribute`` chain, else ``""``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else ""


# A None default needs an annotation that admits None.
def _admits_none(annotation):
    if isinstance(annotation, ast.Constant):
        if isinstance(annotation.value, str):  # a string annotation: read it as text
            return any(word in annotation.value for word in ("Optional", "None", "Any"))
        return annotation.value is None
    if isinstance(annotation, ast.Subscript):
        head, members = _terminal(annotation.value), annotation.slice
        members = members.elts if isinstance(members, ast.Tuple) else [members]
        return head == "Optional" or (head == "Union" and any(map(_admits_none, members)))
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        return _admits_none(annotation.left) or _admits_none(annotation.right)
    return _terminal(annotation) in {"Any", "object", "None"}


def untyped_none_defaults(tree):
    """Parameters and annotated assignments whose default is ``None`` but
    whose annotation does not admit it."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
            pairs = [*zip(positional, defaults), *zip(args.kwonlyargs, args.kw_defaults)]
        elif isinstance(node, ast.AnnAssign):
            pairs = [(node, node.value)]
        else:
            continue
        for slot, default in pairs:
            none = isinstance(default, ast.Constant) and default.value is None
            if slot.annotation is not None and none and not _admits_none(slot.annotation):
                yield slot


OPTIONAL_SCOPE = _files(*(ROOT / name for name in ("src", "tests", "benchmarks", "examples")))


@pytest.mark.parametrize("path", OPTIONAL_SCOPE)
def test_none_defaults_are_annotated_optional(path):
    """``labels: Sequence[str] = None`` lies to every reader, and code that
    trusts the annotation crashes on the default.  PRs 2, 4, 5 and 6 each
    re-fixed one; parameters and annotated assignments alike."""
    found = _violations(path, untyped_none_defaults)
    assert not found, "annotate these Optional[...]:\n" + "\n".join(found)


# Engine folds go through the merge ufunc's unbuffered .at.
#: Names that conventionally hold index arrays; a scalar loop index is fine.
_INDEX_NAMES = {
    "idx", "indices", "index_array", "ids", "slots", "mask", "inverse", "perm",
    "permutation", "sources", "targets", "srcs", "dsts",
}
_INDEX_SUFFIXES = ("_idx", "_indices", "_ids", "_slots", "_mask", "_perm")
_FOLD_UFUNCS = {"add", "subtract", "multiply", "minimum", "maximum", "logaddexp", "merge_ufunc"}


def _index_array(index):
    if isinstance(index, ast.Call):
        return True
    if isinstance(index, ast.Subscript) and isinstance(index.slice, ast.Slice):
        return True
    name = _terminal(index)
    return name in _INDEX_NAMES or name.endswith(_INDEX_SUFFIXES)


def buffered_folds(tree):
    """Folds that keep one contribution per repeated index: ``out[idx] += v``,
    ``np.add(..., out=out[idx])`` and ``out[idx] = ufunc(out[idx], v)``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.AugAssign):
            target = node.target
            if isinstance(target, ast.Subscript) and _index_array(target.slice):
                yield node
        elif isinstance(node, ast.Call) and _terminal(node.func) in _FOLD_UFUNCS:
            if any(kw.arg == "out" and isinstance(kw.value, ast.Subscript) for kw in node.keywords):
                yield node
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            if _terminal(node.value.func) in _FOLD_UFUNCS:
                stored = {ast.unparse(t) for t in node.targets if isinstance(t, ast.Subscript)}
                if stored & {ast.unparse(arg) for arg in node.value.args}:
                    yield node


FOLD_SCOPE = _files(LIBRARY / "engine", LIBRARY / "ooc" / "pregel_stream.py")


@pytest.mark.parametrize("path", FOLD_SCOPE)
def test_engine_folds_are_unbuffered(path):
    """The in-process, pool and stream scans are bit-identical only because
    every fold is ``merge_ufunc.at(out, idx, values)``: a buffered form
    keeps one contribution per repeated index.  The equivalence suites
    catch that wherever indices repeat; this walk also covers the folds
    whose indices never repeat today (a pool worker's pass-2 merge)."""
    found = _violations(path, buffered_folds)
    assert not found, "fold through ufunc.at instead:\n" + "\n".join(found)


# Shared-memory segments live and die in the ShmRegistry.
def shared_memory_lifecycle_calls(tree):
    """``SharedMemory(create=True)``, and ``unlink()`` on a receiver whose
    name says it holds a segment (``Path.unlink()`` on a file is fine)."""
    for call in _calls(tree):
        creates = _terminal(call.func) == "SharedMemory" and any(
            kw.arg == "create" and isinstance(kw.value, ast.Constant) and kw.value.value is True
            for kw in call.keywords
        )
        receiver = call.func.value if isinstance(call.func, ast.Attribute) else None
        unlinks = _terminal(call.func) == "unlink" and not call.args and any(
            hint in _dotted(receiver).lower() for hint in ("shm", "segment", "shared", "memory")
        )
        if creates or unlinks:
            yield call


SHM_SCOPE = _files(LIBRARY, exclude={"src/repro/engine/shm_registry.py"})


@pytest.mark.parametrize("path", SHM_SCOPE)
def test_shared_memory_lifecycle_stays_in_the_registry(path):
    """The leak guarantees (``weakref.finalize`` teardown, unlink at exit
    and on SIGTERM, the conftest ``/dev/shm`` guard) hold only for segments
    ``engine/shm_registry.py`` creates and unlinks."""
    found = _violations(path, shared_memory_lifecycle_calls)
    assert not found, "publish through ShmRegistry instead:\n" + "\n".join(found)


# The serve daemon's coroutines never block the event loop.
_BLOCKING = {"time.sleep", "socket.create_connection", "open"}
_BLOCKING_PREFIXES = ("subprocess.", "requests.", "urllib.request.")


def _coroutine_calls(node, in_async=False):
    """Calls whose innermost enclosing function is an ``async def``.
    Nested sync defs and lambdas are executor payloads, so they are exempt."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.AsyncFunctionDef, ast.FunctionDef, ast.Lambda)):
            yield from _coroutine_calls(child, isinstance(child, ast.AsyncFunctionDef))
            continue
        if in_async and isinstance(child, ast.Call):
            yield child
        yield from _coroutine_calls(child, in_async)


def blocking_coroutine_calls(tree):
    for call in _coroutine_calls(tree):
        name = _dotted(call.func)
        if name in _BLOCKING or name.startswith(_BLOCKING_PREFIXES):
            yield call


SERVE_SCOPE = _files(LIBRARY / "serve")


@pytest.mark.parametrize("path", SERVE_SCOPE)
def test_serve_coroutines_never_block(path):
    """The daemon serves every connection from one asyncio loop: one
    ``time.sleep``, ``subprocess`` call or synchronous ``open()`` in a
    coroutine stalls them all, the health check included."""
    found = _violations(path, blocking_coroutine_calls)
    assert not found, "move these behind loop.run_in_executor:\n" + "\n".join(found)


# The out-of-core path never holds the whole edge list.
_COPIES = {f"{module}.{name}" for module in ("np", "numpy")
           for name in ("asarray", "array", "copy", "fromiter")}


def edge_list_materialisations(tree):
    """Calls that realise every edge, or copy a whole ``src``/``dst`` column."""
    for call in _calls(tree):
        whole = isinstance(call.func, ast.Attribute) and call.func.attr in {
            "edges", "edge_set", "edge_pairs",
        }
        column = call.args[0] if call.args else None
        copied = isinstance(column, ast.Attribute) and column.attr in {"src", "dst"}
        if whole or (copied and _dotted(call.func) in _COPIES):
            yield call


OOC_SCOPE = _files(
    LIBRARY / "ooc",
    LIBRARY / "partitioning" / "greedy.py",
    LIBRARY / "partitioning" / "streaming.py",
)


@pytest.mark.parametrize("path", OOC_SCOPE)
def test_out_of_core_never_materialises_the_edge_list(path):
    """Ingest and streamed supersteps peak at O(chunk + vertices), never
    O(edges); toy test graphs cannot show the difference, so read for the
    calls that realise every edge or copy a whole ``src``/``dst`` column."""
    found = _violations(path, edge_list_materialisations)
    assert not found, "stream bounded chunks instead:\n" + "\n".join(found)
