"""Repo-wide gate: HEAD is clean, the shipped baseline is exact, and a
tree seeded with one violation per rule fails through the real CLI."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.devtools import check_paths, load_baseline
from repro.devtools.engine import baseline_from_findings

ROOT = Path(__file__).resolve().parents[1]
SHIPPED_BASELINE = ROOT / "check-baseline.json"

#: One violation per rule.  Each value is a tuple of (path, source)
#: pairs because the project rules (REP011+) need more than one file to
#: misbehave; the *first* pair is always the file the finding lands in.
SEEDED_VIOLATIONS = {
    "REP001": (("src/repro/analysis/bad_defaults.py", "def f(x: int = None):\n    return x\n"),),
    "REP002": (("src/repro/engine/bad_fold.py", "outbox[indices] += messages\n"),),
    "REP003": (("src/repro/session/bad_shm.py", "shm = SharedMemory(create=True, size=64)\n"),),
    "REP004": (
        (
            "src/repro/serve/bad_async.py",
            "async def handler(request):\n    time.sleep(0.1)\n",
        ),
    ),
    "REP006": (("src/repro/analysis/bad_names.py", 'ok = name == "pr"\n'),),
    "REP007": (
        (
            "src/repro/engine/bad_except.py",
            "try:\n    route(target)\nexcept KeyError:\n    pass\n",
        ),
    ),
    "REP008": (("src/repro/datasets/bad_random.py", "rng = np.random.default_rng()\n"),),
    "REP009": (
        (
            "src/repro/ooc/bad_materialize.py",
            "pairs = list(graph.edge_pairs())\n",
        ),
    ),
    "REP010": (
        (
            "src/repro/engine/bad_handle.py",
            "def f(path, cond):\n"
            "    handle = open(path)\n"
            "    if cond:\n"
            "        return None\n"
            "    handle.close()\n"
            "    return 1\n",
        ),
    ),
    "REP011": (
        ("src/repro/cycle_a.py", "from repro.cycle_b import beta\nalpha = 1\n"),
        ("src/repro/cycle_b.py", "from repro.cycle_a import alpha\nbeta = 2\n"),
    ),
    "REP012": (("src/repro/analysis/bad_exports.py", '__all__ = ["missing"]\n'),),
    "REP013": (("src/repro/metrics/bad_dead.py", "def _stranded():\n    return 1\n"),),
    "REP014": (("src/repro/partitioning/registry.py", '_FACTORIES = {"XYZ": None}\n'),),
}


def _repo_targets():
    return [ROOT / name for name in ("src", "tests", "benchmarks", "examples") if (ROOT / name).is_dir()]


def _seed_tree(root: Path) -> None:
    for pairs in SEEDED_VIOLATIONS.values():
        for rel_path, source in pairs:
            target = root / rel_path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(source)


@pytest.fixture(scope="module")
def repo_analysis():
    """One whole-repo analysis, shared by the tests that only read it."""
    return check_paths(_repo_targets())


class TestRepoAtHead:
    def test_repo_is_clean(self, repo_analysis):
        findings, files_checked = repo_analysis
        assert files_checked > 100
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_shipped_baseline_is_exact(self, repo_analysis):
        # The baseline must mirror the tree exactly: no un-baselined
        # findings and no stale grandfathered entries.
        findings, _ = repo_analysis
        shipped = load_baseline(SHIPPED_BASELINE)
        assert shipped.entries == baseline_from_findings(findings).entries

    def test_cli_exits_zero_at_head(self, capsys):
        paths = [str(p) for p in _repo_targets()]
        code = main(["check", *paths, "--baseline", str(SHIPPED_BASELINE)])
        assert code == 0
        assert "0 new finding(s)" in capsys.readouterr().out


class TestSeededViolationTree:
    def test_cli_exits_one_with_every_rule_firing(self, tmp_path, capsys):
        _seed_tree(tmp_path)
        code = main(["check", str(tmp_path), "--format", "json"])
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        fired = {finding["rule"] for finding in document["findings"]}
        assert fired == set(SEEDED_VIOLATIONS)
        assert document["exit_code"] == 1
        assert len(document["findings"]) == len(SEEDED_VIOLATIONS)

    def test_single_rule_selection_only_fires_that_rule(self, tmp_path, capsys):
        _seed_tree(tmp_path)
        code = main(["check", str(tmp_path), "--rule", "REP003", "--format", "json"])
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        assert {f["rule"] for f in document["findings"]} == {"REP003"}

    def test_comma_separated_rule_selection(self, tmp_path, capsys):
        _seed_tree(tmp_path)
        code = main(
            ["check", str(tmp_path), "--rule", "rep001,REP004", "--format", "json"]
        )
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["rules"] == ["REP001", "REP004"]
        assert {f["rule"] for f in document["findings"]} == {"REP001", "REP004"}

    def test_write_baseline_then_check_passes(self, tmp_path, capsys):
        _seed_tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main(["check", str(tmp_path), "--baseline", str(baseline), "--write-baseline"]) == 0
        capsys.readouterr()
        code = main(["check", str(tmp_path), "--baseline", str(baseline)])
        out = capsys.readouterr().out
        assert code == 0
        assert f"{len(SEEDED_VIOLATIONS)} baselined" in out

    def test_fixing_a_baselined_violation_reports_stale_entry(self, tmp_path, capsys):
        _seed_tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        main(["check", str(tmp_path), "--baseline", str(baseline), "--write-baseline"])
        (tmp_path / SEEDED_VIOLATIONS["REP008"][0][0]).write_text("rng = np.random.default_rng(seed)\n")
        capsys.readouterr()
        code = main(
            ["check", str(tmp_path), "--baseline", str(baseline), "--format", "json"]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert len(document["stale_baseline"]) == 1
        assert document["stale_baseline"][0].startswith("REP008:")


class TestCliSurface:
    def test_list_rules_prints_the_table(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for index in range(1, 15):
            assert (f"REP{index:03d}" in out) == (index != 5)  # id 5 is retired, never reused

    def test_unknown_rule_id_is_a_usage_error(self, capsys):
        assert main(["check", "--rule", "REP999"]) == 2
        assert "REP999" in capsys.readouterr().err

    def test_malformed_rule_id_is_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["check", "--rule", "banana"])

    def test_output_writes_the_json_document(self, tmp_path, capsys):
        _seed_tree(tmp_path)
        artifact = tmp_path / "findings.json"
        code = main(["check", str(tmp_path), "--output", str(artifact)])
        capsys.readouterr()
        assert code == 1
        document = json.loads(artifact.read_text())
        assert {f["rule"] for f in document["findings"]} == set(SEEDED_VIOLATIONS)

    def test_write_baseline_without_baseline_path_is_an_error(self, tmp_path, capsys):
        _seed_tree(tmp_path)
        assert main(["check", str(tmp_path), "--write-baseline"]) == 2
        assert "--baseline" in capsys.readouterr().err
