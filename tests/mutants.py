"""Seeded mutants: each breaks the tree the way a real bug would, and a gate
must catch it.

Run from anywhere (the tier-1 suite does not collect this file)::

    python tests/mutants.py

Each mutant copies the repository, without ``.git``, to a temporary
directory and applies one literal replacement to one file.  It then runs
two gates in the copy: the mutant's pytest node ids, under the copy's
``setup.cfg`` so that unclosed handles are errors, and
``repro check --baseline check-baseline.json``.  The mutant is caught
when a gate fails: pytest with failing tests, or ``repro check`` with
findings.  The unmutated copy must pass every gate first, or the run
stops: a gate that fails on a clean tree catches nothing.  The script
exits 1 if any mutant survived.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, NamedTuple, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
LANDMARK_TESTS = "tests/test_session_store.py::TestLandmarkAndRecordRoundTrip"
EXPORT_TEST = "tests/test_exports.py::test_all_lists_exactly_the_public_surface"


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
        ("tests/test_devtools_repo.py::TestRepoAtHead::test_repo_is_clean",),
    ),
)


def _copy_tree(destination: Path) -> Path:
    tree = destination / "repo"
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(".git", "__pycache__"))
    return tree


def _failed_gates(tree: Path, tests: Sequence[str]) -> Dict[str, bool]:
    """Whether each gate failed in ``tree``; a gate that cannot run at all
    (a usage error, a missing node id) stops the script."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    gates = {
        "pytest": [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
        "repro check": [
            sys.executable, "-m", "repro.cli", "check", "--baseline", "check-baseline.json",
        ],
    }
    failed = {}
    for gate, command in gates.items():
        result = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
        if result.returncode not in (0, 1):
            sys.exit(f"{gate} could not run:\n{result.stdout}{result.stderr}")
        failed[gate] = result.returncode == 1
    return failed


def _caught_by(mutant: Mutant) -> List[str]:
    """The gates that fail on the tree with ``mutant`` applied."""
    with tempfile.TemporaryDirectory(prefix="repro-mutant-") as scratch:
        tree = _copy_tree(Path(scratch))
        target = tree / mutant.path
        source = target.read_text(encoding="utf-8")
        assert source.count(mutant.old) == 1, f"{mutant.name}: text not found once in {mutant.path}"
        target.write_text(source.replace(mutant.old, mutant.new), encoding="utf-8")
        return [gate for gate, failed in _failed_gates(tree, mutant.tests).items() if failed]


def main() -> int:
    every_test = [test for mutant in MUTANTS for test in mutant.tests]
    with tempfile.TemporaryDirectory(prefix="repro-mutant-") as scratch:
        clean = _failed_gates(_copy_tree(Path(scratch)), every_test)
    if any(clean.values()):
        sys.exit(f"the unmutated tree already fails: {clean}")
    survivors = 0
    for mutant in MUTANTS:
        caught_by = _caught_by(mutant)
        survivors += not caught_by
        verdict = f"caught by {', '.join(caught_by)}" if caught_by else "SURVIVED"
        print(f"{mutant.name}: {verdict}", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants caught")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
