"""Seeded mutants: each breaks the tree the way a real bug would, and a
tier-1 test must catch it.

Run from anywhere (the tier-1 suite does not collect this file)::

    python tests/mutants.py

Each mutant copies the repository, without ``.git``, to a temporary
directory and applies one literal replacement to one file.  It then runs
the mutant's pytest node ids in the copy, under the copy's ``setup.cfg``
so that unclosed handles are errors.  The mutant is caught when one of
those tests fails; the script prints which.  The unmutated copy must pass
every listed test first, or the run stops: a test that fails on a clean
tree catches nothing.  The script exits 1 if any mutant survived.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, NamedTuple, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
LANDMARK_TESTS = "tests/test_session_store.py::TestLandmarkAndRecordRoundTrip"
EXPORT_TEST = "tests/test_exports.py::test_all_lists_exactly_the_public_surface"
INVARIANTS = "tests/test_invariants.py"
FRONTIER_PATHS = "tests/test_property_based.py::TestFrontierPathsAgree"


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: Tuple[str, ...]


MUTANTS = (
    Mutant(
        "(a) load_placement closes its handle only on the success path",
        "src/repro/session/store.py",
        '            with open(path, "rb") as handle, '
        "np.load(handle, allow_pickle=False) as payload:\n"
        '                stored_key = bytes(payload["key"]).decode("utf-8")\n'
        "                if stored_key != _canonical_key(key):\n"
        '                    raise AnalysisError("artifact key mismatch")\n'
        '                partition_of = np.asarray(payload["partition_of"], dtype=np.int64)\n'
        '                strategy_name = bytes(payload["strategy_name"]).decode("utf-8")\n',
        '            handle = open(path, "rb")\n'
        "            with np.load(handle, allow_pickle=False) as payload:\n"
        '                stored_key = bytes(payload["key"]).decode("utf-8")\n'
        "                if stored_key != _canonical_key(key):\n"
        '                    raise AnalysisError("artifact key mismatch")\n'
        '                partition_of = np.asarray(payload["partition_of"], dtype=np.int64)\n'
        '                strategy_name = bytes(payload["strategy_name"]).decode("utf-8")\n'
        "            handle.close()\n",
        ("tests/test_session_store.py::TestPlacementRoundTrip",),
    ),
    Mutant(
        "(b) load_landmarks raises between its open() and its with",
        "src/repro/session/store.py",
        '            with open(path, "r", encoding="utf-8") as handle:\n'
        "                payload = json.load(handle)\n"
        '            if payload["key"] != key:\n'
        '                raise AnalysisError("artifact key mismatch")\n'
        '            landmarks = [int(v) for v in payload["landmarks"]]\n',
        '            handle = open(path, "r", encoding="utf-8")\n'
        "            if os.fstat(handle.fileno()).st_size < 16:\n"
        '                raise AnalysisError("truncated landmarks")\n'
        "            with handle:\n"
        "                payload = json.load(handle)\n"
        '            if payload["key"] != key:\n'
        '                raise AnalysisError("artifact key mismatch")\n'
        '            landmarks = [int(v) for v in payload["landmarks"]]\n',
        (
            f"{LANDMARK_TESTS}::test_landmarks_round_trip",
            f"{LANDMARK_TESTS}::test_corrupt_landmarks_degrade_to_a_miss",
        ),
    ),
    Mutant(
        "(c) serve/server.py's __all__ lists a name it never defines",
        "src/repro/serve/server.py",
        '    "MAX_BODY_BYTES",\n    "MAX_LINE_BYTES",\n',
        '    "MAX_BODY_BYTES",\n    "MAX_HEADER_BYTES",\n    "MAX_LINE_BYTES",\n',
        (f"{EXPORT_TEST}[repro.serve.server]",),
    ),
    Mutant(
        "(d) ooc/shards.py leaves the public DENSE_ID_FACTOR off __all__",
        "src/repro/ooc/shards.py",
        '__all__ = [\n    "DENSE_ID_FACTOR",\n',
        "__all__ = [\n",
        (f"{EXPORT_TEST}[repro.ooc.shards]",),
    ),
    Mutant(
        "(e) HybridCut's threshold defaults to None without Optional",
        "src/repro/partitioning/hybrid.py",
        "def __init__(self, threshold: Optional[int] = None) -> None:",
        "def __init__(self, threshold: int = None) -> None:",
        (f"{INVARIANTS}::test_none_defaults_are_annotated_optional",),
    ),
    # Buffered folds: ``out[idx] = ufunc(out[idx], values)`` keeps one
    # contribution per repeated index where ``ufunc.at`` folds them all.
    Mutant(
        "(f) triplet_scan buffers its pass-1 fold into the outbox slots",
        "src/repro/engine/messaging.py",
        "kernel.merge_ufunc.at(outbox, slot_of_message, messages)",
        "outbox[slot_of_message] = kernel.merge_ufunc(outbox[slot_of_message], messages)",
        ("tests/test_pregel_array_equivalence.py::TestArraySuperstepEquivalence",),
    ),
    Mutant(
        "(g) triplet_scan buffers its pass-2 fold of slots into targets",
        "src/repro/engine/messaging.py",
        "kernel.merge_ufunc.at(merged, target_of_slot, outbox)",
        "merged[target_of_slot] = kernel.merge_ufunc(merged[target_of_slot], outbox)",
        ("tests/test_pregel_array_equivalence.py::TestArraySuperstepEquivalence",),
    ),
    Mutant(
        "(h) the stream scan buffers a chunk's fold into the outbox",
        "src/repro/ooc/pregel_stream.py",
        "kernel.merge_ufunc.at(outbox, slot, messages)",
        "outbox[slot] = kernel.merge_ufunc(outbox[slot], messages)",
        ("tests/test_ooc_equivalence.py::TestAlgorithmBitIdentity",),
    ),
    Mutant(
        "(i) the cost model buffers its per-executor maximum",
        "src/repro/engine/cost_model.py",
        "np.maximum.at(per_executor_max, executors, units)",
        "per_executor_max[executors] = np.maximum(per_executor_max[executors], units)",
        ("tests/test_engine_cost_model.py::TestComputeTime",),
    ),
    Mutant(
        "(j) a pool worker buffers its pass-1 fold",
        "src/repro/engine/parallel.py",
        "kernel.merge_ufunc.at(outbox, inverse, messages)",
        "outbox[inverse] = kernel.merge_ufunc(outbox[inverse], messages)",
        ("tests/test_parallel_pregel.py::test_run_algorithm_engine_workers_identical",),
    ),
    Mutant(
        # One partition's slot targets never repeat, so this fold gives the
        # same bits buffered or not; only the source walk sees it.
        "(k) a pool worker buffers its pass-2 merge",
        "src/repro/engine/parallel.py",
        "kernel.merge_ufunc.at(merged, local_idx, run.out_values[offset + a:offset + b])",
        "merged[local_idx] = kernel.merge_ufunc(\n"
        "            merged[local_idx], run.out_values[offset + a:offset + b]\n"
        "        )",
        (f"{INVARIANTS}::test_engine_folds_are_unbuffered",),
    ),
    Mutant(
        "(l) the pool creates a segment behind the ShmRegistry's back",
        "src/repro/engine/parallel.py",
        '        self._static = ShmRegistry(label="graph")\n',
        '        self._static = ShmRegistry(label="graph")\n'
        "        self._scratch = multiprocessing.shared_memory.SharedMemory(\n"
        "            create=True, size=max(int(trip.src.nbytes), 1)\n"
        "        )\n",
        (f"{INVARIANTS}::test_shared_memory_lifecycle_stays_in_the_registry",),
    ),
    Mutant(
        "(m) the health handler sleeps on the event loop",
        "src/repro/serve/router.py",
        '    async def _health(self, params: Dict[str, str]) -> Dict[str, object]:\n',
        '    async def _health(self, params: Dict[str, str]) -> Dict[str, object]:\n'
        "        time.sleep(0.05)\n",
        (f"{INVARIANTS}::test_serve_coroutines_never_block",),
    ),
    Mutant(
        "(n) the stream scan copies the whole source column",
        "src/repro/ooc/pregel_stream.py",
        "    mirror_maps = pgraph.mirror_maps()\n",
        "    mirror_maps = pgraph.mirror_maps()\n"
        "    sources = np.asarray(pgraph.triplets().src)\n",
        (f"{INVARIANTS}::test_out_of_core_never_materialises_the_edge_list",),
    ),
    Mutant(
        "(o) the index scan keeps a triplet twice when both its endpoints are live",
        "src/repro/engine/messaging.py",
        "return sorted_unique(positions >> 1).astype(np.intp)",
        "return np.sort(positions >> 1).astype(np.intp)",
        (FRONTIER_PATHS,),
    ),
    Mutant(
        "(p) the index scan drops the destination filter of 'both'",
        "src/repro/engine/messaging.py",
        "positions = positions[active[trip.dst[positions >> 1]]]",
        "positions = positions[active[trip.src[positions >> 1]]]",
        (FRONTIER_PATHS,),
    ),
    Mutant(
        "(q) the SSSP column-OR starts from column 1",
        "src/repro/algorithms/shortest_paths.py",
        "for column in range(less.shape[1]):",
        "for column in range(1, less.shape[1]):",
        ("tests/test_pregel_array_equivalence.py::TestArraySuperstepEquivalence",),
    ),
)


def _copy_tree(destination: Path) -> Path:
    tree = destination / "repo"
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(".git", "__pycache__"))
    return tree


def _failed_tests(tree: Path, tests: Sequence[str]) -> List[str]:
    """The node ids of ``tests`` that fail in ``tree``; a run that cannot
    start at all (a usage error, a missing node id) stops the script."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests]
    result = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    if result.returncode not in (0, 1):
        sys.exit(f"pytest could not run:\n{result.stdout}{result.stderr}")
    return [
        line.split()[1] for line in result.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    ]


def _caught_by(mutant: Mutant) -> List[str]:
    """The tests that fail on the tree with ``mutant`` applied."""
    with tempfile.TemporaryDirectory(prefix="repro-mutant-") as scratch:
        tree = _copy_tree(Path(scratch))
        target = tree / mutant.path
        source = target.read_text(encoding="utf-8")
        assert source.count(mutant.old) == 1, f"{mutant.name}: text not found once in {mutant.path}"
        target.write_text(source.replace(mutant.old, mutant.new), encoding="utf-8")
        return _failed_tests(tree, mutant.tests)


def main() -> int:
    every_test = [test for mutant in MUTANTS for test in mutant.tests]
    with tempfile.TemporaryDirectory(prefix="repro-mutant-") as scratch:
        clean = _failed_tests(_copy_tree(Path(scratch)), every_test)
    if clean:
        sys.exit(f"the unmutated tree already fails: {clean}")
    survivors = 0
    for mutant in MUTANTS:
        caught_by = _caught_by(mutant)
        survivors += not caught_by
        verdict = f"caught by {caught_by[0]}" if caught_by else "SURVIVED"
        if len(caught_by) > 1:
            verdict += f" and {len(caught_by) - 1} more"
        print(f"{mutant.name}: {verdict}", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants caught")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
