"""Repo-wide gate: HEAD is clean, the shipped baseline is exact, and a
tree seeded with one violation per rule fails through the real CLI.
Each surviving rule's seeded violation also goes through noqa, rule
selection, path scope, the baseline and the documentation one by one."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.devtools import analyze, check_source, load_baseline
from repro.devtools.engine import (
    all_rules,
    apply_baseline,
    baseline_from_findings,
    select_rules,
)
from repro.devtools.runner import list_rules_rows

ROOT = Path(__file__).resolve().parents[1]
SHIPPED_BASELINE = ROOT / "check-baseline.json"
CONTRIBUTING = ROOT / "CONTRIBUTING.md"

#: One violation per rule: rule id -> (path, source) of the file it fires in.
SEEDED_VIOLATIONS = {
    "REP001": ("src/repro/ooc/bad_defaults.py", "def f(x: int = None):\n    return x\n"),
    "REP002": ("src/repro/engine/bad_fold.py", "outbox[indices] += messages\n"),
    "REP003": ("src/repro/session/bad_shm.py", "shm = SharedMemory(create=True, size=64)\n"),
    "REP004": (
        "src/repro/serve/bad_async.py",
        "async def handler(request):\n    time.sleep(0.1)\n",
    ),
    "REP009": ("src/repro/ooc/bad_materialize.py", "pairs = list(graph.edge_pairs())\n"),
}


#: Rules that only check some files; REP001 applies everywhere.
SCOPED_RULES = [rule_id for rule_id in SEEDED_VIOLATIONS if rule_id != "REP001"]


def _seeded_findings(rule_id, source=None):
    rel_path, seeded = SEEDED_VIOLATIONS[rule_id]
    return check_source(seeded if source is None else source, path=rel_path)


def _other_rule(rule_id):
    return next(other for other in SEEDED_VIOLATIONS if other != rule_id)


def _repo_targets():
    return [ROOT / name for name in ("src", "tests", "benchmarks", "examples") if (ROOT / name).is_dir()]


def _seed_tree(root: Path) -> None:
    for rel_path, source in SEEDED_VIOLATIONS.values():
        target = root / rel_path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)


def _write_seeded_baseline(root: Path, capsys) -> Path:
    _seed_tree(root)
    baseline = root / "baseline.json"
    assert main(["check", str(root), "--baseline", str(baseline), "--write-baseline"]) == 0
    capsys.readouterr()
    return baseline


@pytest.fixture(scope="module")
def repo_analysis():
    """One whole-repo analysis, shared by the tests that only read it."""
    return analyze(_repo_targets(), root=ROOT)


class TestRepoAtHead:
    def test_repo_is_clean(self, repo_analysis):
        assert repo_analysis.files_checked > 100
        findings = repo_analysis.findings
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_shipped_baseline_is_exact(self, repo_analysis):
        # The baseline must mirror the tree exactly: no un-baselined
        # findings and no stale grandfathered entries.
        shipped = load_baseline(SHIPPED_BASELINE)
        assert shipped.entries == baseline_from_findings(repo_analysis.findings).entries


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
        baseline = _write_seeded_baseline(tmp_path, capsys)
        code = main(["check", str(tmp_path), "--baseline", str(baseline)])
        out = capsys.readouterr().out
        assert code == 0
        assert f"{len(SEEDED_VIOLATIONS)} baselined" in out

    def test_fixing_a_baselined_violation_reports_stale_entry(self, tmp_path, capsys):
        baseline = _write_seeded_baseline(tmp_path, capsys)
        (tmp_path / SEEDED_VIOLATIONS["REP001"][0]).write_text(
            "def f(x: Optional[int] = None):\n    return x\n"
        )
        code = main(
            ["check", str(tmp_path), "--baseline", str(baseline), "--format", "json"]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert len(document["stale_baseline"]) == 1
        assert document["stale_baseline"][0].startswith("REP001:")

    def test_rule_selection_leaves_other_rules_entries_alone(self, tmp_path, capsys):
        baseline = _write_seeded_baseline(tmp_path, capsys)
        code = main(
            ["check", str(tmp_path), "--baseline", str(baseline), "--rule", "REP001"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "1 baselined" in captured.out
        assert "stale baseline entry" not in captured.err

    def test_path_subset_leaves_other_files_entries_alone(self, tmp_path, capsys):
        baseline = _write_seeded_baseline(tmp_path, capsys)
        subset = tmp_path / "src" / "repro" / "ooc"
        code = main(["check", str(subset), "--baseline", str(baseline)])
        captured = capsys.readouterr()
        assert code == 0
        assert "2 baselined" in captured.out  # REP001 and REP009 live there
        assert "stale baseline entry" not in captured.err

    def test_restricted_run_still_reports_its_own_stale_entries(self, tmp_path, capsys):
        baseline = _write_seeded_baseline(tmp_path, capsys)
        (tmp_path / SEEDED_VIOLATIONS["REP001"][0]).write_text("x = 1\n")
        subset = tmp_path / "src" / "repro" / "ooc"
        code = main(
            [
                "check", str(subset), "--baseline", str(baseline),
                "--rule", "REP001", "--format", "json",
            ]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert [entry.split(":")[0] for entry in document["stale_baseline"]] == ["REP001"]


class TestCliSurface:
    def test_list_rules_prints_the_table(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        surviving = {1, 2, 3, 4, 9}  # the other ids are retired, never reused
        for index in range(1, 15):
            assert (f"REP{index:03d}" in out) == (index in surviving)
        assert "scope" not in out

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


@pytest.mark.parametrize("rule_id", list(SEEDED_VIOLATIONS))
class TestEachSurvivingRule:
    def test_seeded_source_fires_only_its_rule_once(self, rule_id):
        assert [f.rule for f in _seeded_findings(rule_id)] == [rule_id]

    def test_noqa_for_the_rule_on_the_finding_line_silences_it(self, rule_id):
        (finding,) = _seeded_findings(rule_id)
        lines = SEEDED_VIOLATIONS[rule_id][1].splitlines()
        lines[finding.line - 1] += f"  # repro: noqa[{rule_id}]"
        assert _seeded_findings(rule_id, "\n".join(lines) + "\n") == []

    def test_noqa_for_another_rule_leaves_it(self, rule_id):
        (finding,) = _seeded_findings(rule_id)
        lines = SEEDED_VIOLATIONS[rule_id][1].splitlines()
        lines[finding.line - 1] += f"  # repro: noqa[{_other_rule(rule_id)}]"
        assert [f.rule for f in _seeded_findings(rule_id, "\n".join(lines) + "\n")] == [rule_id]

    def test_selecting_another_rule_hides_it(self, rule_id):
        rel_path, source = SEEDED_VIOLATIONS[rule_id]
        others = [other for other in SEEDED_VIOLATIONS if other != rule_id]
        assert check_source(source, path=rel_path, rules=select_rules(others)) == []
        selected = check_source(source, path=rel_path, rules=select_rules([rule_id]))
        assert [f.rule for f in selected] == [rule_id]

    def test_fingerprint_survives_a_line_shift(self, rule_id):
        (before,) = _seeded_findings(rule_id)
        shifted = "# header\n\n" + SEEDED_VIOLATIONS[rule_id][1]
        (after,) = _seeded_findings(rule_id, shifted)
        assert after.line == before.line + 2
        assert after.fingerprint() == before.fingerprint()
        assert after.fingerprint().startswith(f"{rule_id}:{SEEDED_VIOLATIONS[rule_id][0]}:")

    def test_baseline_grandfathers_it_and_flags_it_stale_once_fixed(self, rule_id):
        findings = _seeded_findings(rule_id)
        baseline = baseline_from_findings(findings)
        assert apply_baseline(findings, baseline) == ([], 1, [])
        assert apply_baseline([], baseline) == ([], 0, [findings[0].fingerprint()])

    def test_a_run_that_could_not_see_it_keeps_its_entry(self, rule_id):
        rel_path = SEEDED_VIOLATIONS[rule_id][0]
        baseline = baseline_from_findings(_seeded_findings(rule_id))
        other_rule = _other_rule(rule_id)
        assert apply_baseline([], baseline, rule_ids=[other_rule]) == ([], 0, [])
        assert apply_baseline([], baseline, paths=["src/repro/elsewhere.py"]) == ([], 0, [])
        _, _, stale = apply_baseline([], baseline, rule_ids=[rule_id], paths=[rel_path])
        assert len(stale) == 1

    def test_statistics_count_it_once(self, rule_id, tmp_path, capsys):
        rel_path, source = SEEDED_VIOLATIONS[rule_id]
        target = tmp_path / rel_path
        target.parent.mkdir(parents=True)
        target.write_text(source)
        code = main(["check", str(tmp_path), "--statistics", "--format", "json"])
        assert code == 1
        per_rule = json.loads(capsys.readouterr().out)["statistics"]["per_rule"]
        assert per_rule[rule_id] == {"findings": 1, "files": 1}
        assert all(
            counts == {"findings": 0, "files": 0}
            for other, counts in per_rule.items()
            if other != rule_id
        )

    def test_is_listed_and_documented(self, rule_id):
        meta = all_rules()[rule_id]
        assert meta.description and meta.rationale
        (row,) = [row for row in list_rules_rows() if row["rule"] == rule_id]
        assert row == {"rule": rule_id, "severity": meta.severity, "description": meta.description}
        headings = [
            line for line in CONTRIBUTING.read_text(encoding="utf-8").splitlines()
            if line.startswith("### ") and rule_id in line
        ]
        assert len(headings) == 1 and "retired" not in headings[0]
        assert f"({meta.severity})" in headings[0]


@pytest.mark.parametrize("rule_id", SCOPED_RULES)
def test_scoped_rule_skips_files_outside_its_scope(rule_id):
    source = SEEDED_VIOLATIONS[rule_id][1]
    for rel_path in ("examples/demo.py", "tests/test_demo.py", "benchmarks/bench_demo.py"):
        assert not all_rules()[rule_id].applies(rel_path)
        assert check_source(source, path=rel_path) == []
