"""Project-native static analysis (``repro check``).

The devtools package encodes the engine's hard-won invariants — typed
``Optional`` defaults, unbuffered ``ufunc.at`` folds, ShmRegistry-mediated
shared-memory lifecycle, non-blocking serve handlers and bounded memory
on the out-of-core path — as enforceable rules.
:mod:`repro.devtools.engine` checks one file at a time in a single serial
pass: parse once, run every rule whose path scope covers the file, drop
``noqa``-suppressed findings.  Released resource handles and honest
``__all__`` lists are checked at run time, by the tier-1 suite's
warning filters and ``tests/test_exports.py``.

:mod:`repro.devtools.rules` holds one module per rule, each registering
itself via the :func:`~repro.devtools.engine.rule` decorator.

Findings can be suppressed inline with ``# repro: noqa[REP###]`` (or a
bare ``# repro: noqa`` for every rule) and grandfathered through a JSON
baseline file; anything not suppressed or baselined fails ``repro check``
with exit code 1.
"""

from .engine import (
    CheckReport,
    Finding,
    RuleMeta,
    all_rules,
    analyze,
    check_source,
    load_baseline,
    rule,
    select_rules,
    write_baseline,
)
from .runner import run_check

__all__ = [
    "CheckReport",
    "Finding",
    "RuleMeta",
    "all_rules",
    "analyze",
    "check_source",
    "load_baseline",
    "rule",
    "run_check",
    "select_rules",
    "write_baseline",
]
