"""Engine mechanics: noqa suppression, baseline, walker, rule selection."""

import json
from pathlib import Path

import pytest

from repro.devtools import check_source, load_baseline, write_baseline
from repro.devtools.engine import (
    all_rules,
    analyze,
    apply_baseline,
    baseline_from_findings,
    iter_python_files,
    noqa_lines,
    select_rules,
)
from repro.errors import ReproError, StaticCheckError

VIOLATION = "def f(x: int = None):\n    return x\n"

#: Ids that once named a rule.  They stay reserved and are never reused.
RETIRED_RULES = (
    "REP005", "REP006", "REP007", "REP008", "REP010", "REP011", "REP012", "REP013", "REP014"
)


class TestRegistry:
    def test_the_five_surviving_rules_register(self):
        registry = all_rules()
        assert list(registry) == ["REP001", "REP002", "REP003", "REP004", "REP009"]
        for meta in registry.values():
            assert meta.description
            assert meta.severity in ("error", "warning")

    def test_select_rules_is_case_insensitive(self):
        assert list(select_rules(["rep001", "REP004"])) == ["REP001", "REP004"]

    def test_select_unknown_rule_raises(self):
        with pytest.raises(StaticCheckError, match="REP999"):
            select_rules(["REP999"])

    @pytest.mark.parametrize("rule_id", RETIRED_RULES)
    def test_retired_rule_is_not_selectable(self, rule_id):
        with pytest.raises(StaticCheckError, match=rule_id):
            select_rules([rule_id])

    def test_static_check_error_is_a_repro_error(self):
        assert issubclass(StaticCheckError, ReproError)


class TestNoqa:
    def test_specific_noqa_suppresses_that_rule(self):
        source = "def f(x: int = None):  # repro: noqa[REP001]\n    return x\n"
        assert check_source(source) == []

    def test_bare_noqa_suppresses_every_rule(self):
        source = "def f(x: int = None):  # repro: noqa\n    return x\n"
        assert check_source(source) == []

    def test_noqa_for_a_different_rule_does_not_suppress(self):
        source = "def f(x: int = None):  # repro: noqa[REP008]\n    return x\n"
        findings = check_source(source)
        assert [f.rule for f in findings] == ["REP001"]

    def test_noqa_only_covers_its_own_line(self):
        source = (
            "# repro: noqa[REP001]\n"
            "def f(x: int = None):\n"
            "    return x\n"
        )
        assert [f.rule for f in check_source(source)] == ["REP001"]

    def test_comma_separated_noqa_ids(self):
        source = "def f(x: int = None):  # repro: noqa[REP002, REP001]\n    return x\n"
        assert check_source(source) == []

    def test_noqa_inside_a_string_literal_does_not_suppress(self):
        # The marker here is *data* on the violation's own line; only a
        # real COMMENT token may suppress (tokenize-based, not regex).
        source = (
            'def f(x: int = None, tag: str = "# repro: noqa[REP001]"):\n'
            "    return x, tag\n"
        )
        assert [f.rule for f in check_source(source)] == ["REP001"]

    def test_noqa_in_docstring_does_not_suppress_nearby_lines(self):
        source = (
            "def f(x: int = None):\n"
            '    """Suppress with  # repro: noqa  on the line."""\n'
            "    return x\n"
        )
        assert [f.rule for f in check_source(source)] == ["REP001"]

    def test_real_comment_after_string_still_suppresses(self):
        source = (
            'def f(x: str = "# repro: noqa[REP999]"):  # repro: noqa[REP001]\n'
            "    return x\n"
        )
        assert check_source(source) == []


class TestNoqaLines:
    def test_comment_tokens_only(self):
        source = 'x = "# repro: noqa"  # repro: noqa[REP001]\n'
        assert noqa_lines(source) == {1: frozenset({"REP001"})}

    def test_unparseable_source_falls_back_to_line_scan(self):
        source = "def broken(:\n    x = 1  # repro: noqa\n"
        assert noqa_lines(source) == {2: None}

    def test_ids_are_case_insensitive_and_space_tolerant(self):
        source = "x = 1  # REPRO:NOQA[rep001 ,  Rep010]\n"
        assert noqa_lines(source) == {1: frozenset({"REP001", "REP010"})}

    def test_each_marker_is_keyed_by_its_own_line(self):
        source = "a = 1  # repro: noqa\nb = 2\nc = 3  # repro: noqa[REP004]\n"
        assert noqa_lines(source) == {1: None, 3: frozenset({"REP004"})}

    def test_plain_comments_and_other_linters_markers_suppress_nothing(self):
        source = "a = 1  # noqa: F401\nb = 2  # repro: keep\n"
        assert noqa_lines(source) == {}

    def test_marker_inside_a_multiline_string_is_data(self):
        source = 'DOC = """\n# repro: noqa[REP001]\n"""\n'
        assert noqa_lines(source) == {}


class TestFindings:
    def test_finding_carries_location_and_snippet(self):
        (finding,) = check_source(VIOLATION, path="src/repro/pkg/mod.py")
        assert finding.rule == "REP001"
        assert finding.path == "src/repro/pkg/mod.py"
        assert finding.line == 1
        assert finding.snippet == "def f(x: int = None):"
        assert "mod.py:1:" in str(finding)

    def test_fingerprint_is_line_number_free(self):
        (first,) = check_source(VIOLATION, path="src/repro/pkg/mod.py")
        shifted = "\n\n\n" + VIOLATION
        (second,) = check_source(shifted, path="src/repro/pkg/mod.py")
        assert first.line != second.line
        assert first.fingerprint() == second.fingerprint()

    def test_syntax_error_raises_static_check_error(self):
        with pytest.raises(StaticCheckError, match="cannot parse"):
            check_source("def f(:\n")


class TestBaseline:
    def test_round_trip_and_apply(self, tmp_path):
        findings = check_source(VIOLATION, path="src/repro/pkg/mod.py")
        baseline_path = tmp_path / "baseline.json"
        baseline = write_baseline(findings, baseline_path)
        assert baseline.total == 1
        loaded = load_baseline(baseline_path)
        new, baselined, stale = apply_baseline(findings, loaded)
        assert new == [] and baselined == 1 and stale == []

    def test_extra_findings_are_not_covered(self, tmp_path):
        findings = check_source(VIOLATION, path="src/repro/pkg/mod.py")
        baseline_path = tmp_path / "baseline.json"
        write_baseline(findings, baseline_path)
        doubled = "def f(x: int = None):\n    return x\n\ndef g(y: str = None):\n    return y\n"
        more = check_source(doubled, path="src/repro/pkg/mod.py")
        new, baselined, _ = apply_baseline(more, load_baseline(baseline_path))
        assert baselined == 1
        assert [f.line for f in new] == [4]

    def test_fixed_findings_surface_as_stale(self, tmp_path):
        findings = check_source(VIOLATION, path="src/repro/pkg/mod.py")
        baseline_path = tmp_path / "baseline.json"
        write_baseline(findings, baseline_path)
        new, baselined, stale = apply_baseline([], load_baseline(baseline_path))
        assert new == [] and baselined == 0
        assert len(stale) == 1 and stale[0].startswith("REP001:")

    def test_duplicate_findings_spend_the_entry_count(self):
        twice = VIOLATION + "\n\n" + VIOLATION.replace("f(", "g(")
        findings = check_source(twice, path="src/repro/pkg/mod.py")
        baseline = baseline_from_findings(findings[:1])
        new, baselined, stale = apply_baseline(findings + findings[:1], baseline)
        assert baselined == 1 and stale == []
        assert new == findings[1:] + findings[:1]

    def test_restricted_run_matches_a_path_holding_a_colon(self):
        (finding,) = check_source(VIOLATION, path="src/repro/odd:name.py")
        baseline = baseline_from_findings([finding])
        _, _, stale = apply_baseline([], baseline, paths=["src/repro/odd:name.py"])
        assert stale == [finding.fingerprint()]
        _, _, stale = apply_baseline([], baseline, paths=["src/repro/odd.py"])
        assert stale == []

    def test_malformed_baseline_raises(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text("[]")
        with pytest.raises(StaticCheckError, match="version-1"):
            load_baseline(bad)
        bad.write_text(json.dumps({"version": 1, "entries": {"k": 0}}))
        with pytest.raises(StaticCheckError, match="counts"):
            load_baseline(bad)


class TestWalker:
    def test_walks_nested_python_files_only(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "a.cpython-312.py").write_text("x = 1\n")
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "b.py").write_text("x = 1\n")
        files = sorted(p.name for p in iter_python_files([tmp_path]))
        assert files == ["a.py"]

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(StaticCheckError, match="no such file"):
            list(iter_python_files([tmp_path / "nope"]))

    def test_analyze_counts_files(self, tmp_path):
        target = tmp_path / "src" / "repro" / "pkg"
        target.mkdir(parents=True)
        (target / "clean.py").write_text("x = 1\n")
        (target / "dirty.py").write_text(VIOLATION)
        report = analyze([tmp_path], root=tmp_path)
        assert report.files_checked == 2
        assert report.paths == ("src/repro/pkg/clean.py", "src/repro/pkg/dirty.py")
        assert [f.rule for f in report.findings] == ["REP001"]

    def test_explicit_file_argument_respects_skip_dirs(self, tmp_path):
        hidden = tmp_path / "__pycache__" / "a.py"
        hidden.parent.mkdir()
        hidden.write_text(VIOLATION)
        assert list(iter_python_files([hidden], root=tmp_path)) == []

    def test_dir_plus_file_inside_it_reports_once(self, tmp_path):
        target = tmp_path / "pkg"
        target.mkdir()
        dirty = target / "dirty.py"
        dirty.write_text(VIOLATION)
        files = list(iter_python_files([tmp_path, dirty], root=tmp_path))
        assert files == [dirty.resolve()]
        report = analyze([tmp_path, dirty])
        assert report.files_checked == 1
        assert len(report.findings) == 1

    def test_same_file_via_absolute_and_relative_paths_reports_once(
        self, tmp_path, monkeypatch
    ):
        dirty = tmp_path / "dirty.py"
        dirty.write_text(VIOLATION)
        monkeypatch.chdir(tmp_path)
        files = list(iter_python_files([Path("dirty.py"), dirty]))
        assert files == [dirty.resolve()]

    def test_fingerprints_are_root_relative(self, tmp_path, monkeypatch):
        target = tmp_path / "src" / "repro" / "pkg"
        target.mkdir(parents=True)
        dirty = target / "dirty.py"
        dirty.write_text(VIOLATION)
        monkeypatch.chdir(tmp_path)
        via_absolute = analyze([dirty]).findings
        via_relative = analyze([Path("src") / "repro" / "pkg" / "dirty.py"]).findings
        assert via_absolute and via_relative
        assert [f.path for f in via_absolute] == ["src/repro/pkg/dirty.py"]
        assert [f.fingerprint() for f in via_absolute] == [
            f.fingerprint() for f in via_relative
        ]
