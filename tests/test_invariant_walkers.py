"""What each walker in ``test_invariants.py`` flags and what it spares.

The repository itself is clean, so the per-file invariant tests only
show that a walker finds nothing; these snippets pin that it finds what
it should, once, and leaves the idioms the code relies on alone.
"""

import ast
import textwrap

import pytest

from test_invariants import (
    FOLD_SCOPE,
    OOC_SCOPE,
    OPTIONAL_SCOPE,
    SERVE_SCOPE,
    SHM_SCOPE,
    blocking_coroutine_calls,
    buffered_folds,
    edge_list_materialisations,
    shared_memory_lifecycle_calls,
    untyped_none_defaults,
)

#: (walker, source, the source text of each node it must yield)
CASES = {
    # A None default needs an annotation that admits None.
    "none-positional": (untyped_none_defaults, "def f(x: int = None): pass", ["x: int"]),
    "none-keyword-only": (
        untyped_none_defaults, "def f(*, labels: Sequence[str] = None): pass",
        ["labels: Sequence[str]"],
    ),
    "none-class-field": (
        untyped_none_defaults, "class R:\n    candidates: Dict[str, float] = None",
        ["candidates: Dict[str, float] = None"],
    ),
    "none-async-parameter": (untyped_none_defaults, "async def f(x: str = None): pass", ["x: str"]),
    "none-only-the-none-default": (
        untyped_none_defaults, "def f(a: int, b: float = 1.0, c: str = None): pass", ["c: str"],
    ),
    "none-optional": (untyped_none_defaults, "def f(x: Optional[int] = None): pass", []),
    "none-pep604-union": (untyped_none_defaults, "def f(x: int | None = None): pass", []),
    "none-union-with-none": (untyped_none_defaults, "def f(x: Union[int, None] = None): pass", []),
    "none-union-without-none": (
        untyped_none_defaults, "def f(x: Union[int, str] = None): pass", ["x: Union[int, str]"],
    ),
    "none-string-annotation": (untyped_none_defaults, 'def f(x: "Optional[int]" = None): pass', []),
    "none-any": (untyped_none_defaults, "def f(x: Any = None): pass", []),
    "none-unannotated": (untyped_none_defaults, "def f(x=None): pass", []),
    "none-other-default": (untyped_none_defaults, "def f(x: int = 3): pass", []),
    "none-optional-field": (untyped_none_defaults, "class C:\n    value: Optional[int] = None", []),
    # Engine folds go through the merge ufunc's unbuffered .at.
    "fold-index-array-name": (
        buffered_folds, "outbox[indices] += messages", ["outbox[indices] += messages"],
    ),
    "fold-idx-suffix": (buffered_folds, "merged[local_idx] += values", ["merged[local_idx] += values"]),
    "fold-attribute-index": (
        buffered_folds, "outbox[plan.slots] += messages", ["outbox[plan.slots] += messages"],
    ),
    "fold-call-index": (buffered_folds, "out[np.nonzero(mask)] += 1", ["out[np.nonzero(mask)] += 1"]),
    "fold-sliced-index": (buffered_folds, "out[order[:n]] += 1", ["out[order[:n]] += 1"]),
    "fold-subscript-out": (
        buffered_folds, "np.add(a, b, out=merged[inverse])", ["np.add(a, b, out=merged[inverse])"],
    ),
    "fold-minimum-subscript-out": (
        buffered_folds, "np.minimum(a, b, out=dist[mask])", ["np.minimum(a, b, out=dist[mask])"],
    ),
    "fold-read-modify-write": (
        buffered_folds, "out[idx] = np.add(out[idx], values)", ["out[idx] = np.add(out[idx], values)"],
    ),
    "fold-scalar-loop-index": (
        buffered_folds, "for part in range(parts):\n    units[part] += 1", [],
    ),
    "fold-singular-name": (buffered_folds, "loads[target] += weight", []),
    "fold-unbuffered-at": (buffered_folds, "np.add.at(out, indices, values)", []),
    "fold-merge-ufunc-at": (buffered_folds, "kernel.merge_ufunc.at(outbox, inverse, messages)", []),
    "fold-plain-out": (buffered_folds, "np.add(a, b, out=buffer)", []),
    "fold-gather-assign": (buffered_folds, "out[idx] = np.add(a, values)", []),
    # Shared-memory segments live and die in the ShmRegistry.
    "shm-create": (
        shared_memory_lifecycle_calls, "shm = SharedMemory(create=True, size=64)",
        ["SharedMemory(create=True, size=64)"],
    ),
    "shm-qualified-create": (
        shared_memory_lifecycle_calls, "seg = shared_memory.SharedMemory(create=True, name=n)",
        ["shared_memory.SharedMemory(create=True, name=n)"],
    ),
    "shm-unlink-shm": (shared_memory_lifecycle_calls, "self._shm.unlink()", ["self._shm.unlink()"]),
    "shm-unlink-segment": (shared_memory_lifecycle_calls, "segment.unlink()", ["segment.unlink()"]),
    "shm-attach": (shared_memory_lifecycle_calls, "shm = shared_memory.SharedMemory(name=n)", []),
    "shm-create-false": (shared_memory_lifecycle_calls, "shm = SharedMemory(create=False, name=n)", []),
    "shm-path-unlink": (shared_memory_lifecycle_calls, "artifact_path.unlink()", []),
    "shm-call-unlink": (shared_memory_lifecycle_calls, "Path(tmp).unlink()", []),
    # The serve daemon's coroutines never block the event loop.
    "async-time-sleep": (
        blocking_coroutine_calls, "async def h(r):\n    time.sleep(0.1)", ["time.sleep(0.1)"],
    ),
    "async-subprocess": (
        blocking_coroutine_calls, "async def h(r):\n    subprocess.run(['ls'])",
        ["subprocess.run(['ls'])"],
    ),
    "async-requests": (
        blocking_coroutine_calls, "async def h(r):\n    return requests.get(url)",
        ["requests.get(url)"],
    ),
    "async-open": (blocking_coroutine_calls, "async def h(r):\n    return open(path).read()", ["open(path)"]),
    "async-urllib": (
        blocking_coroutine_calls, "async def h(r):\n    return urllib.request.urlopen(url)",
        ["urllib.request.urlopen(url)"],
    ),
    "async-create-connection": (
        blocking_coroutine_calls, "async def h(r):\n    socket.create_connection(addr)",
        ["socket.create_connection(addr)"],
    ),
    "async-nested-async": (
        blocking_coroutine_calls, "async def outer():\n    async def inner():\n        time.sleep(1)",
        ["time.sleep(1)"],
    ),
    "async-asyncio-sleep": (blocking_coroutine_calls, "async def t(s):\n    await asyncio.sleep(1)", []),
    "async-sync-def": (blocking_coroutine_calls, "def preload():\n    time.sleep(0.1)", []),
    "async-executor-def": (
        blocking_coroutine_calls,
        "async def flush():\n    def batch():\n        return open(path).read()\n"
        "    return await loop.run_in_executor(None, batch)",
        [],
    ),
    "async-executor-lambda": (
        blocking_coroutine_calls,
        "async def flush():\n    return await loop.run_in_executor(None, lambda: time.sleep(1))",
        [],
    ),
    # The out-of-core path never holds the whole edge list.
    "ooc-edges": (edge_list_materialisations, "for e in graph.edges():\n    pass", ["graph.edges()"]),
    "ooc-edge-set": (edge_list_materialisations, "seen = graph.edge_set()", ["graph.edge_set()"]),
    "ooc-edge-pairs": (edge_list_materialisations, "pairs = graph.edge_pairs()", ["graph.edge_pairs()"]),
    "ooc-list-wrapped": (
        edge_list_materialisations, "pairs = list(graph.edge_pairs())", ["graph.edge_pairs()"],
    ),
    "ooc-chained-receiver": (
        edge_list_materialisations, "pairs = self.graph.edge_pairs()", ["self.graph.edge_pairs()"],
    ),
    "ooc-asarray-src": (
        edge_list_materialisations, "src = np.asarray(graph.src)", ["np.asarray(graph.src)"],
    ),
    "ooc-array-dst": (
        edge_list_materialisations, "dst = np.array(self.graph.dst)", ["np.array(self.graph.dst)"],
    ),
    "ooc-copy-dst": (edge_list_materialisations, "dst = np.copy(graph.dst)", ["np.copy(graph.dst)"]),
    "ooc-fromiter-src": (
        edge_list_materialisations, "src = numpy.fromiter(graph.src, dtype=int)",
        ["numpy.fromiter(graph.src, dtype=int)"],
    ),
    "ooc-column-slice": (edge_list_materialisations, "chunk = graph.src[start:stop]", []),
    "ooc-column-size": (edge_list_materialisations, "total = graph.src.size", []),
    "ooc-asarray-vertex-ids": (edge_list_materialisations, "ids = np.asarray(graph.vertex_ids)", []),
    "ooc-asarray-local": (edge_list_materialisations, "arr = np.asarray(values)", []),
}


@pytest.mark.parametrize("walker, source, expected", CASES.values(), ids=CASES)
def test_walker_flags_exactly(walker, source, expected):
    found = [ast.unparse(node) for node in walker(ast.parse(textwrap.dedent(source)))]
    assert found == expected


#: (scope, a file it must hold, a file it must leave out)
SCOPES = {
    "optional-benchmarks": (OPTIONAL_SCOPE, "benchmarks/e2e/run.py", "setup.py"),
    "optional-tests": (OPTIONAL_SCOPE, "tests/conftest.py", "setup.py"),
    "optional-examples": (OPTIONAL_SCOPE, "examples/quickstart.py", "setup.py"),
    "folds-engine": (FOLD_SCOPE, "src/repro/engine/messaging.py", "src/repro/backends/csr.py"),
    "folds-stream-scan": (FOLD_SCOPE, "src/repro/ooc/pregel_stream.py", "src/repro/ooc/shards.py"),
    "shm-library": (SHM_SCOPE, "src/repro/engine/parallel.py", "src/repro/engine/shm_registry.py"),
    "shm-not-tests": (SHM_SCOPE, "src/repro/session/store.py", "tests/test_parallel_pregel.py"),
    "serve-router": (SERVE_SCOPE, "src/repro/serve/router.py", "src/repro/engine/parallel.py"),
    "ooc-package": (OOC_SCOPE, "src/repro/ooc/pregel_stream.py", "src/repro/core/graph.py"),
    "ooc-greedy": (OOC_SCOPE, "src/repro/partitioning/greedy.py", "src/repro/engine/pregel.py"),
    "ooc-streaming": (OOC_SCOPE, "src/repro/partitioning/streaming.py", "tests/test_ooc_equivalence.py"),
}


@pytest.mark.parametrize("scope, inside, outside", SCOPES.values(), ids=SCOPES)
def test_invariant_scope(scope, inside, outside):
    assert inside in scope
    assert outside not in scope
