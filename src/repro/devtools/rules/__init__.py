"""Rule registry: importing this package registers every REP rule.

One module per rule.  Each module defines a single
:class:`ast.NodeVisitor` decorated with :func:`repro.devtools.engine.rule`,
which adds it to the engine's registry as an import side effect.  New
rules only need a new module imported here — the engine, CLI, baseline
and ``--list-rules`` all read the shared registry.
"""

from . import (  # noqa: F401
    rep001_optional_defaults,
    rep002_fold_order,
    rep003_shm_lifecycle,
    rep004_blocking_async,
    rep009_whole_graph_materialization,
    rep010_resource_lifecycle,
    rep012_export_drift,
)
