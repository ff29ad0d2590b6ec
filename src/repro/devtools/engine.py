"""Core of the ``repro check`` static analyser.

One serial pass over the project: each file is read and parsed once,
every selected rule whose path scope covers the file visits the shared
tree, and inline suppressions drop what they cover.  Rules register with
the :func:`rule` class decorator (see :mod:`repro.devtools.rules`) and
scope themselves to path fragments, so one repo-wide walk applies each
invariant exactly where it holds.

Suppression layers, innermost first:

* ``# repro: noqa[REP002]`` (or a bare ``# repro: noqa``) on the finding
  line silences that line.  Only real comment tokens count — the marker
  inside a string literal is data.
* A JSON baseline file grandfathers known findings by fingerprint
  (``rule:path:snippet`` — line-number free, so unrelated edits above a
  grandfathered line do not un-baseline it).  Only *non-baselined*
  findings fail the check.
"""

from __future__ import annotations

import ast
import io
import json
import re
import time
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Collection,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import StaticCheckError

__all__ = [
    "CheckReport",
    "Finding",
    "RuleMeta",
    "all_rules",
    "analyze",
    "check_source",
    "display_path",
    "parse_source",
    "iter_python_files",
    "load_baseline",
    "write_baseline",
    "apply_baseline",
    "baseline_from_findings",
    "noqa_lines",
    "rule",
    "select_rules",
    "Baseline",
    "Reporter",
    "SEVERITIES",
]

#: Severity ladder; both levels fail the gate, the label is informational.
SEVERITIES = ("error", "warning")

_RULE_ID_RE = re.compile(r"^REP\d{3}$")

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<ids>REP\d{3}(?:\s*,\s*REP\d{3})*)\])?",
    re.IGNORECASE,
)

#: Directories never descended into by the file walker.
_SKIP_DIRS = {"__pycache__", ".git", ".hg", "node_modules", "build", "dist", ".venv"}


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    snippet: str

    def fingerprint(self) -> str:
        """Line-number-free identity used by the baseline file."""
        return f"{self.rule}:{self.path}:{' '.join(self.snippet.split())}"

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
        }

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} [{self.severity}] {self.message}"


@dataclass(frozen=True)
class RuleMeta:
    """A registered rule: identity, path scope and visitor factory."""

    rule_id: str
    severity: str
    description: str
    rationale: str
    factory: Callable
    applies: Callable[[str], bool]


class Reporter:
    """Per-(file, rule) reporting handle passed to each rule visitor."""

    def __init__(self, meta: RuleMeta, path: str, lines: Sequence[str]) -> None:
        self._meta = meta
        self.path = path
        self._lines = lines
        self.findings: List[Finding] = []

    def report(self, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        snippet = self._lines[line - 1].strip() if 0 < line <= len(self._lines) else ""
        self.findings.append(
            Finding(
                rule=self._meta.rule_id,
                severity=self._meta.severity,
                path=self.path,
                line=line,
                col=col,
                message=message,
                snippet=snippet,
            )
        )


_REGISTRY: Dict[str, RuleMeta] = {}


def rule(
    rule_id: str,
    *,
    severity: str,
    description: str,
    rationale: str = "",
    applies: Optional[Callable[[str], bool]] = None,
) -> Callable[[type], type]:
    """Class decorator registering an :class:`ast.NodeVisitor` as a rule.

    The decorated class must accept a single :class:`Reporter` argument.
    ``applies`` receives the file's POSIX-normalised path and gates the
    rule per file (default: every file).
    """
    if not _RULE_ID_RE.match(rule_id):
        raise ValueError(f"rule id must look like REP123, got {rule_id!r}")
    if severity not in SEVERITIES:
        raise ValueError(f"severity must be one of {SEVERITIES}, got {severity!r}")

    def decorate(cls: type) -> type:
        if rule_id in _REGISTRY:
            raise ValueError(f"duplicate rule id {rule_id}")
        _REGISTRY[rule_id] = RuleMeta(
            rule_id=rule_id,
            severity=severity,
            description=description,
            rationale=rationale,
            factory=cls,
            applies=applies or (lambda path: True),
        )
        return cls

    return decorate


def all_rules() -> Dict[str, RuleMeta]:
    """Every registered rule, importing the rule package on first use."""
    from . import rules  # noqa: F401  (import side effect: registration)

    return dict(sorted(_REGISTRY.items()))


def select_rules(rule_ids: Optional[Sequence[str]]) -> Dict[str, RuleMeta]:
    """Resolve a rule-id selection, raising on unknown ids."""
    registry = all_rules()
    if not rule_ids:
        return registry
    selected: Dict[str, RuleMeta] = {}
    for raw in rule_ids:
        rule_id = raw.strip().upper()
        if rule_id not in registry:
            raise StaticCheckError(
                f"unknown rule {raw!r}; available: {', '.join(registry)}"
            )
        selected[rule_id] = registry[rule_id]
    return dict(sorted(selected.items()))


# ----------------------------------------------------------------------
# Per-source checking
# ----------------------------------------------------------------------
def parse_source(source: str, path: str) -> ast.Module:
    """Parse one source string, mapping syntax errors to check errors."""
    try:
        return ast.parse(source, filename=path)
    except SyntaxError as error:
        raise StaticCheckError(f"{path}: cannot parse: {error}") from error


def noqa_lines(source: str) -> Dict[int, Optional[FrozenSet[str]]]:
    """Map 1-based line numbers to suppressed rule ids (``None`` = all).

    Only real ``COMMENT`` tokens count: a ``# repro: noqa`` *inside a
    string literal* (rule fixtures, docstrings quoting the syntax) is
    data, not a suppression.  Sources that fail to tokenize fall back to
    a plain line scan — they cannot contain string-literal decoys the
    tokenizer would have distinguished anyway.
    """
    suppressed: Dict[int, Optional[FrozenSet[str]]] = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        for number, text in enumerate(source.splitlines(), start=1):
            _record_noqa(suppressed, number, text)
        return suppressed
    for token in tokens:
        if token.type == tokenize.COMMENT:
            _record_noqa(suppressed, token.start[0], token.string)
    return suppressed


def _record_noqa(
    suppressed: Dict[int, Optional[FrozenSet[str]]], number: int, text: str
) -> None:
    match = _NOQA_RE.search(text)
    if not match:
        return
    ids = match.group("ids")
    if ids is None:
        suppressed[number] = None
    else:
        suppressed[number] = frozenset(part.strip().upper() for part in ids.split(","))


def _suppressed(
    finding: Finding, suppressed: Dict[int, Optional[FrozenSet[str]]]
) -> bool:
    if finding.line not in suppressed:
        return False
    ids = suppressed[finding.line]
    return ids is None or finding.rule in ids


def _check_tree(
    tree: ast.Module, source: str, path: str, rules: Dict[str, RuleMeta]
) -> List[Finding]:
    """Run every applicable rule over one parsed file, then apply noqa."""
    lines = source.splitlines()
    findings: List[Finding] = []
    for meta in rules.values():
        if meta.applies(path):
            reporter = Reporter(meta, path, lines)
            meta.factory(reporter).visit(tree)
            findings.extend(reporter.findings)
    if findings:
        # Tokenizing is the costly part of noqa; most files have nothing
        # to suppress.
        suppressed = noqa_lines(source)
        findings = [f for f in findings if not _suppressed(f, suppressed)]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def check_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Dict[str, RuleMeta]] = None,
) -> List[Finding]:
    """Check one source string.

    Fixture tests pass virtual paths (``src/repro/engine/x.py``) to
    exercise path-scoped rules without touching the filesystem.
    """
    tree = parse_source(source, path)
    registry = rules if rules is not None else all_rules()
    return _check_tree(tree, source, Path(path).as_posix(), registry)


def _read_source(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as error:
        raise StaticCheckError(f"cannot read {path}: {error}") from error


# ----------------------------------------------------------------------
# File walking and path identity
# ----------------------------------------------------------------------
def _skippable(parts: Sequence[str]) -> bool:
    return any(part in _SKIP_DIRS or part.startswith(".") for part in parts)


def display_path(path: Path, root: Path) -> str:
    """The root-relative POSIX path findings and fingerprints carry.

    Absolute and relative invocations of the same target produce the
    same display path, so baselines written from either agree.  Files
    outside the root keep their absolute path.
    """
    try:
        return path.relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()


def iter_python_files(
    paths: Sequence[Path], root: Optional[Path] = None
) -> Iterable[Path]:
    """Yield every ``.py`` file under ``paths``, deduplicated.

    Paths are resolved before deduplication, so passing both a directory
    and a file inside it (or the same target absolutely and relatively)
    reports each file once.  The skip rules apply to explicit file
    arguments too: a file under ``__pycache__`` or a hidden directory is
    never checked, however it was named.
    """
    base = (root or Path.cwd()).resolve()
    seen = set()
    for entry in paths:
        if entry.is_file():
            resolved = entry.resolve()
            try:
                parts = resolved.relative_to(base).parts
            except ValueError:
                parts = tuple(part for part in entry.parts if part not in ("/", ".."))
            if _skippable(parts):
                continue
            if resolved not in seen:
                seen.add(resolved)
                yield resolved
            continue
        if not entry.is_dir():
            raise StaticCheckError(f"no such file or directory: {entry}")
        resolved_dir = entry.resolve()
        for candidate in sorted(resolved_dir.rglob("*.py")):
            if _skippable(candidate.relative_to(resolved_dir).parts):
                continue
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


# ----------------------------------------------------------------------
# Whole-tree analysis
# ----------------------------------------------------------------------
@dataclass
class CheckReport:
    """Everything one :func:`analyze` run produced, with its accounting."""

    findings: List[Finding]
    #: Display paths of every file checked, in walk order.
    paths: Tuple[str, ...]
    parse_seconds: float
    analysis_seconds: float
    rule_ids: Tuple[str, ...]

    @property
    def files_checked(self) -> int:
        return len(self.paths)


def analyze(
    paths: Sequence[Path],
    rules: Optional[Dict[str, RuleMeta]] = None,
    *,
    root: Optional[Path] = None,
) -> CheckReport:
    """Check every python file under ``paths``, one file at a time.

    Findings carry paths relative to ``root`` (default: the current
    directory) and come back sorted by location.
    """
    registry = rules if rules is not None else all_rules()
    base = (root or Path.cwd()).resolve()
    findings: List[Finding] = []
    shown_paths: List[str] = []
    parse_seconds = 0.0
    analysis_seconds = 0.0
    for file_path in iter_python_files(paths, root=base):
        shown = display_path(file_path, base)
        shown_paths.append(shown)
        source = _read_source(file_path)
        started = time.perf_counter()
        tree = parse_source(source, shown)
        parsed = time.perf_counter()
        findings.extend(_check_tree(tree, source, shown, registry))
        parse_seconds += parsed - started
        analysis_seconds += time.perf_counter() - parsed
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return CheckReport(
        findings=findings,
        paths=tuple(shown_paths),
        parse_seconds=parse_seconds,
        analysis_seconds=analysis_seconds,
        rule_ids=tuple(registry),
    )


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------
@dataclass
class Baseline:
    """Grandfathered finding counts keyed by :meth:`Finding.fingerprint`."""

    entries: Dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.entries.values())


def load_baseline(path: Path) -> Baseline:
    """Load a baseline JSON document written by ``--write-baseline``."""
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except OSError as error:
        raise StaticCheckError(f"cannot read baseline {path}: {error}") from error
    except json.JSONDecodeError as error:
        raise StaticCheckError(f"baseline {path} is not valid JSON: {error}") from error
    if not isinstance(document, dict) or document.get("version") != 1:
        raise StaticCheckError(f"baseline {path}: expected a version-1 document")
    entries = document.get("entries", {})
    if not isinstance(entries, dict) or not all(
        isinstance(count, int) and count > 0 for count in entries.values()
    ):
        raise StaticCheckError(f"baseline {path}: 'entries' must map fingerprints to counts >= 1")
    return Baseline(entries=dict(entries))


def baseline_from_findings(findings: Sequence[Finding]) -> Baseline:
    entries: Dict[str, int] = {}
    for finding in findings:
        key = finding.fingerprint()
        entries[key] = entries.get(key, 0) + 1
    return Baseline(entries=dict(sorted(entries.items())))


def write_baseline(findings: Sequence[Finding], path: Path) -> Baseline:
    """Persist current findings as the new grandfathered baseline."""
    baseline = baseline_from_findings(findings)
    document = {"version": 1, "entries": baseline.entries}
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return baseline


def _was_checked(
    fingerprint: str,
    rule_ids: Optional[Collection[str]],
    paths: Optional[Collection[str]],
) -> bool:
    """Whether a run restricted to ``rule_ids`` and ``paths`` (None: no
    restriction) could have matched the baseline entry ``fingerprint``."""
    rule_id, _, rest = fingerprint.partition(":")
    if rule_ids is not None and rule_id not in rule_ids:
        return False
    if paths is None:
        return True
    # ``rest`` is ``path:snippet`` and either part may hold a colon, so
    # try every split point.
    end = rest.find(":")
    while end != -1:
        if rest[:end] in paths:
            return True
        end = rest.find(":", end + 1)
    return False


def apply_baseline(
    findings: Sequence[Finding],
    baseline: Baseline,
    *,
    rule_ids: Optional[Collection[str]] = None,
    paths: Optional[Collection[str]] = None,
) -> Tuple[List[Finding], int, List[str]]:
    """Split findings into (new, baselined-count, stale-fingerprints).

    Stale fingerprints — baseline entries no findings matched — signal a
    fixed violation whose grandfather entry should be dropped.  A run
    restricted to some ``rule_ids`` or ``paths`` only judges the entries
    it could have matched; the rest are neither stale nor fixed.
    """
    budget = dict(baseline.entries)
    new: List[Finding] = []
    baselined = 0
    for finding in findings:
        key = finding.fingerprint()
        if budget.get(key, 0) > 0:
            budget[key] -= 1
            baselined += 1
        else:
            new.append(finding)
    checked_paths = None if paths is None else frozenset(paths)
    stale = sorted(
        key
        for key, remaining in budget.items()
        if remaining > 0 and _was_checked(key, rule_ids, checked_paths)
    )
    return new, baselined, stale
