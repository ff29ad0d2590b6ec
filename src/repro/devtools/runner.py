"""``repro check`` command logic (argparse-facing side of devtools).

Kept out of :mod:`repro.cli` so the analyser stays importable and
testable without the full CLI, and out of :mod:`~repro.devtools.engine`
so the engine knows nothing about argparse, stdout or exit codes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..errors import StaticCheckError
from ..metrics.report import format_table
from .engine import (
    CheckReport,
    Finding,
    all_rules,
    analyze,
    apply_baseline,
    load_baseline,
    select_rules,
    write_baseline,
)

__all__ = ["DEFAULT_CHECK_DIRS", "run_check", "default_check_paths", "list_rules_rows"]

#: Directories checked when no paths are given, in walk order.
DEFAULT_CHECK_DIRS = ("src", "tests", "benchmarks", "examples")


def default_check_paths(root: Optional[Path] = None) -> List[Path]:
    """The default check targets that exist under ``root`` (cwd)."""
    base = root or Path.cwd()
    found = [base / name for name in DEFAULT_CHECK_DIRS if (base / name).is_dir()]
    if not found:
        raise StaticCheckError(
            f"no default check targets ({', '.join(DEFAULT_CHECK_DIRS)}) under "
            f"{base}; pass explicit paths"
        )
    return found


def list_rules_rows() -> List[Dict[str, object]]:
    """``--list-rules`` table rows, one per registered rule."""
    return [
        {
            "rule": meta.rule_id,
            "severity": meta.severity,
            "description": meta.description,
        }
        for meta in all_rules().values()
    ]


def _statistics(report: CheckReport, findings: Sequence[Finding]) -> Dict[str, object]:
    """The ``--statistics`` payload: per-rule counts plus wall-clock split."""
    per_rule: Dict[str, Dict[str, object]] = {}
    for rule_id in report.rule_ids:
        paths = {f.path for f in findings if f.rule == rule_id}
        count = sum(1 for f in findings if f.rule == rule_id)
        per_rule[rule_id] = {"findings": count, "files": len(paths)}
    return {
        "per_rule": per_rule,
        "parse_seconds": round(report.parse_seconds, 6),
        "analysis_seconds": round(report.analysis_seconds, 6),
    }


def _json_document(
    new: Sequence[Finding],
    *,
    report: CheckReport,
    baselined: int,
    stale: Sequence[str],
    exit_code: int,
    statistics: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    document: Dict[str, object] = {
        "version": 1,
        "files_checked": report.files_checked,
        "rules": list(report.rule_ids),
        "findings": [finding.as_dict() for finding in new],
        "baselined": baselined,
        "stale_baseline": list(stale),
        "exit_code": exit_code,
    }
    if statistics is not None:
        document["statistics"] = statistics
    return document


def _print_statistics(statistics: Dict[str, object]) -> None:
    rows = [
        {"rule": rule_id, **counts}
        for rule_id, counts in statistics["per_rule"].items()  # type: ignore[union-attr]
    ]
    print(format_table(rows))
    print(
        "repro check: parse {parse:.3f}s, analysis {analysis:.3f}s".format(
            parse=statistics["parse_seconds"],  # type: ignore[str-format]
            analysis=statistics["analysis_seconds"],  # type: ignore[str-format]
        )
    )


def run_check(args) -> int:
    """Execute ``repro check`` for a parsed argparse namespace.

    Returns 0 when every finding is suppressed or baselined, 1 when new
    findings remain; configuration problems raise
    :class:`~repro.errors.StaticCheckError` (exit 2 via the CLI).
    """
    if args.list_rules:
        print(format_table(list_rules_rows()))
        return 0

    selected = select_rules(args.rule)
    paths = [Path(p) for p in args.paths] if args.paths else default_check_paths()
    report = analyze(paths, rules=selected)
    findings = report.findings

    baseline_path = Path(args.baseline) if args.baseline else None
    if args.write_baseline:
        if baseline_path is None:
            raise StaticCheckError("--write-baseline requires --baseline PATH")
        baseline = write_baseline(findings, baseline_path)
        print(
            f"repro check: wrote {baseline.total} grandfathered finding(s) "
            f"({len(baseline.entries)} fingerprints) to {baseline_path}"
        )
        return 0

    baselined = 0
    stale: List[str] = []
    new = list(findings)
    if baseline_path is not None:
        baseline = load_baseline(baseline_path)
        new, baselined, stale = apply_baseline(
            findings, baseline, rule_ids=report.rule_ids, paths=report.paths
        )

    exit_code = 1 if new else 0
    statistics = _statistics(report, findings) if getattr(args, "statistics", False) else None
    document = _json_document(
        new,
        report=report,
        baselined=baselined,
        stale=stale,
        exit_code=exit_code,
        statistics=statistics,
    )
    if args.format == "json":
        print(json.dumps(document, indent=2))
    else:
        for finding in new:
            print(str(finding))
        print(
            f"repro check: {len(new)} new finding(s), {baselined} baselined, "
            f"{report.files_checked} file(s), {len(report.rule_ids)} rule(s)"
        )
        if statistics is not None:
            _print_statistics(statistics)
        for fingerprint in stale:
            print(
                f"repro check: stale baseline entry (already fixed): {fingerprint}",
                file=sys.stderr,
            )
    if args.output:
        Path(args.output).write_text(
            json.dumps(document, indent=2) + "\n", encoding="utf-8"
        )
    return exit_code
