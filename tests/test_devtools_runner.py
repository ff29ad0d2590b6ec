"""Runner error paths, --statistics, and the check JSON document."""

import json

import pytest

from repro.cli import main
from repro.devtools.engine import _read_source
from repro.errors import StaticCheckError

VIOLATION = "def f(x: int = None):\n    return x\n"


class TestErrorPaths:
    def test_unreadable_target_is_a_static_check_error(self, tmp_path):
        # A directory named like a python file is the portable "cannot
        # read" case (permission bits do not stop a root test runner).
        decoy = tmp_path / "pkg" / "bad.py"
        decoy.mkdir(parents=True)
        with pytest.raises(StaticCheckError, match="cannot read"):
            _read_source(decoy)
        assert main(["check", str(tmp_path)]) == 2

    def test_syntax_error_among_good_files_names_the_file(self, tmp_path, capsys):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "good.py").write_text("x = 1\n")
        (pkg / "broken.py").write_text("def f(:\n")
        assert main(["check", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "cannot parse" in err
        assert "broken.py" in err

    def test_empty_target_directory_passes_with_zero_files(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        assert main(["check", str(tmp_path / "empty")]) == 0
        assert "0 file(s)" in capsys.readouterr().out

    def test_write_baseline_without_baseline_path(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(VIOLATION)
        assert main(["check", str(tmp_path), "--write-baseline"]) == 2
        assert "--write-baseline requires --baseline" in capsys.readouterr().err

    def test_write_baseline_takes_precedence_over_checking(self, tmp_path, capsys):
        (tmp_path / "src" / "repro").mkdir(parents=True)
        (tmp_path / "src" / "repro" / "mod.py").write_text(VIOLATION)
        baseline = tmp_path / "baseline.json"
        code = main(
            ["check", str(tmp_path), "--baseline", str(baseline), "--write-baseline"]
        )
        # Findings exist, but writing the baseline is the requested action
        # and exits 0 without reporting them.
        assert code == 0
        assert "wrote 1 grandfathered finding(s)" in capsys.readouterr().out
        assert baseline.exists()

    def test_nonexistent_path_is_a_usage_error(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "missing")]) == 2
        assert "no such file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--jobs", "2"],
            ["check", "--cache-dir", "d"],
            ["cache", "clear", "--cache-dir", "d", "--kind", "checks"],
        ],
        ids=["jobs", "cache-dir", "checks-kind"],
    )
    def test_removed_options_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err


class TestStatistics:
    def test_text_statistics_print_per_rule_counts_and_timings(
        self, tmp_path, capsys
    ):
        (tmp_path / "src" / "repro").mkdir(parents=True)
        (tmp_path / "src" / "repro" / "mod.py").write_text(VIOLATION)
        code = main(["check", str(tmp_path), "--statistics"])
        assert code == 1
        out = capsys.readouterr().out
        assert "REP001" in out
        assert "parse" in out and "analysis" in out

    def test_json_statistics_carry_counts_and_wall_time(self, tmp_path, capsys):
        (tmp_path / "src" / "repro").mkdir(parents=True)
        (tmp_path / "src" / "repro" / "mod.py").write_text(VIOLATION)
        main(["check", str(tmp_path), "--statistics", "--format", "json"])
        document = json.loads(capsys.readouterr().out)
        statistics = document["statistics"]
        assert statistics["per_rule"]["REP001"] == {"findings": 1, "files": 1}
        assert statistics["per_rule"]["REP002"] == {"findings": 0, "files": 0}
        assert statistics["parse_seconds"] >= 0
        assert statistics["analysis_seconds"] >= 0

    def test_statistics_absent_unless_requested(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text("x = 1\n")
        main(["check", str(tmp_path), "--format", "json"])
        document = json.loads(capsys.readouterr().out)
        assert "statistics" not in document


class TestJsonDocument:
    def test_document_carries_exactly_the_documented_keys(self, tmp_path, capsys):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "b.py").write_text("y = 2\n")
        assert main(["check", str(tmp_path / "pkg"), "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert set(document) == {
            "version",
            "files_checked",
            "rules",
            "findings",
            "baselined",
            "stale_baseline",
            "exit_code",
        }
        assert document["files_checked"] == 2
