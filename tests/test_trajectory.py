"""``benchmarks/trajectory.py``: one row per side, per-layer medians from traced runs."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "trajectory.py")
_spec = importlib.util.spec_from_file_location("trajectory", _PATH)
trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trajectory)


def _run(workload, trace, **values):
    return {
        "workload": workload,
        "trace": trace,
        "failed": 0,
        "numpy": "x",
        "metrics": {name: {"value": value} for name, value in values.items()},
    }


def _report(*runs):
    environment = {"git_sha": "abc", "nproc": 2, "python": "3", "seed": 17}
    return {"smoke": False, "environment": environment, "runs": list(runs)}


def test_per_layer_medians_come_from_the_traced_runs_only():
    reports = [
        _report(
            _run("pr_dense", False, setup_s=3.0, **{"engine.build_triplets_s": 9.0}),
            _run("pr_dense", True, setup_s=5.0, **{"engine.build_triplets_s": 0.2}),
        ),
        _report(
            _run("pr_dense", False, setup_s=1.0),
            _run("pr_dense", True, **{"engine.build_triplets_s": 0.4,
                                      "partitioning.membership_s": None}),
        ),
    ]
    row = trajectory._row("change", reports)
    assert row["medians"] == {"pr_dense": {"setup_s": 2.0}}
    assert row["per_layer_medians"] == {"pr_dense": {"engine.build_triplets_s": pytest.approx(0.3)}}


def test_no_per_layer_key_without_traced_runs():
    row = trajectory._row("parent", [_report(_run("pr_dense", False, setup_s=1.0))])
    assert "per_layer_medians" not in row


def test_a_failed_traced_run_appends_no_row():
    failed = _run("pr_dense", True, **{"engine.build_triplets_s": 0.2})
    failed["failed"] = 1
    with pytest.raises(SystemExit, match="failed runs"):
        trajectory._row("x", [_report(_run("pr_dense", False, setup_s=1.0), failed)])
