"""Tier-1 smoke test of the e2e benchmark (``--smoke`` sizes, a few seconds).

Runs every workload once untraced and once traced through the same child
processes the benchmark uses, then checks the contract the later PRs lean
on: exactly the metrics and workloads ``BENCHMARK.json`` names come out,
the driver's result line is complete, traces are well-formed and
attribute their wall-clock, the pinned counts hold, and every oracle
flags a deliberately corrupted result.
"""

from __future__ import annotations

import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from surface import Probes  # noqa: E402

SPEC = run.load_spec()
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
END_TO_END = {metric["name"]: metric for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric for metric in SPEC["per_layer"]}


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """``{(workload, traced): result document}`` of one smoke set; two
    children at a time, since nothing here reads a timing."""
    tmp_root = str(tmp_path_factory.mktemp("e2e"))
    jobs = [(workload, traced) for workload in WORKLOADS for traced in (False, True)]

    def one(job):
        document = run.run_child(job[0], 17, float(SPEC["run_seconds"]), job[1], True, tmp_root)
        run.apply_pins(document, 17, smoke=True)
        return document

    with ThreadPoolExecutor(max_workers=2) as pool:
        return {(d["workload"], d["trace"]): d for d in pool.map(one, jobs)}


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert WORKLOADS == ["grid_sweep", "pr_dense", "frontier_sparse", "ooc_stream", "serve_mixed"]
    names = WORKLOADS + list(END_TO_END) + list(PER_LAYER)
    assert len(names) == len(set(names))
    assert all(run.NAME_PATTERN.match(name) and len(name) <= 64 for name in names)
    assert all(len(workload["why"]) <= 200 for workload in SPEC["workloads"])
    assert all(0 < metric["bound"] <= 0.25 for metric in END_TO_END.values())
    assert END_TO_END["setup_s"]["bound"] == max(m["bound"] for m in END_TO_END.values())
    assert all(set(metric) == {"name", "unit", "better"} for metric in PER_LAYER.values())


def test_every_named_metric_is_emitted_and_nothing_unnamed(documents):
    emitted = {False: set(), True: set()}
    for (workload, traced), document in documents.items():
        named = PER_LAYER if traced else END_TO_END
        assert set(document["metrics"]) <= set(named), (workload, traced)
        for name in ("setup_s", "wall_s", "peak_rss_mb"):
            assert traced or document["metrics"][name]["value"] > 0, (workload, name)
        # A layer probe may read None (one core: no parallel engine); an
        # end-to-end metric may not.
        emitted[traced] |= {
            name for name, entry in document["metrics"].items()
            if traced or entry["value"] is not None
        }
    assert emitted[False] == set(END_TO_END)
    assert emitted[True] == set(PER_LAYER)


def test_driver_line_carries_every_metric_with_its_unit(documents):
    for (workload, traced), document in documents.items():
        line = json.loads(run.driver_line(document, SPEC))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        named = PER_LAYER if traced else END_TO_END
        assert set(line["metrics"]) == set(named)
        for name, entry in line["metrics"].items():
            assert entry["unit"] == named[name]["unit"]
            assert isinstance(entry["value"], (int, float))
            assert traced or entry["value"] > 0, (workload, name)


def test_no_failures_no_missing_probes_and_pins_hold(documents):
    for key, document in documents.items():
        assert document["failed"] == 0, (key, document["failures"])
        assert document["probes_missing"] == [], key
        assert document["counts"], key
    with open(run.EXPECTED_PATH, "r", encoding="utf-8") as handle:
        expected = json.load(handle)
    for workload in WORKLOADS:
        assert expected["smoke"][workload] == documents[(workload, False)]["counts"]
        assert expected["full"][workload], workload


def test_traces_are_well_formed_and_attribute_their_wall(documents):
    for workload in WORKLOADS:
        document = documents[(workload, True)]
        assert document["span_problems"] == []
        assert document["layer_table"]["attributed_share"] >= 0.95, workload
        with open(os.path.join(run.REPO_ROOT, document["trace_file"]), encoding="utf-8") as handle:
            spans = [json.loads(line) for line in handle]
        assert len(spans) == document["num_spans"] > 0
        assert tracing.validate_spans(spans) == []
        assert all(seconds >= -1e-9 for seconds in tracing.self_times(spans).values())
        assert {span["workload"] for span in spans} == {workload}
        assert all(run.NAME_PATTERN.match(span["name"]) for span in spans)
        layers = set(document["layer_table"]["layers"])
        assert layers <= {name.split(".")[0] for name in PER_LAYER}, layers


def test_span_validation_flags_malformed_traces():
    good = [
        {"id": 1, "parent": None, "name": "harness.x", "t0": 0.0, "t1": 10.0},
        {"id": 2, "parent": 1, "name": "engine.a", "t0": 1.0, "t1": 6.0},
        {"id": 3, "parent": 1, "name": "serve.b", "t0": 4.0, "t1": 9.0},
    ]
    assert tracing.validate_spans(good) == []
    assert tracing.self_times(good)[1] == pytest.approx(2.0)  # overlap counted once
    table = tracing.layer_table(good, "harness.x")
    assert table["attributed_share"] == pytest.approx(0.8)
    assert sum(row["share"] for row in table["layers"].values()) == pytest.approx(0.8)
    orphan = good + [{"id": 4, "parent": 99, "name": "x.y", "t0": 1.0, "t1": 2.0}]
    assert any("unknown parent" in problem for problem in tracing.validate_spans(orphan))
    escaped = good + [{"id": 4, "parent": 2, "name": "x.y", "t0": 5.0, "t1": 7.0}]
    assert any("outside its parent" in problem for problem in tracing.validate_spans(escaped))


def test_missing_probe_is_counted_not_raised():
    probes = Probes()
    assert probes.call("gone", lambda: getattr(oracles, "no_such_name")) is None
    assert probes.call("here", lambda: 3) == 3
    assert [entry["probe"] for entry in probes.missing] == ["gone"]


# ----------------------------------------------------------------------
# Oracles: right on a correct result, loud on a corrupted one
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_graph():
    rng = np.random.default_rng(5)
    src = rng.integers(0, 60, size=400)
    dst = rng.integers(0, 60, size=400)
    # A second component and a pendant path, so labels and distances vary.
    src = np.concatenate((src, [100, 101, 102, 59]))
    dst = np.concatenate((dst, [101, 102, 100, 200]))
    return src.astype(np.int64), dst.astype(np.int64), np.unique(np.concatenate((src, dst)))


def _corrupt(values: dict, vertex, wrong) -> dict:
    broken = dict(values)
    broken[vertex] = wrong
    return broken


def test_pagerank_oracle(small_graph):
    src, dst, ids = small_graph
    ranks = dict(zip(ids.tolist(), oracles.pagerank_ranks(src, dst, ids, 7).tolist()))
    assert oracles.check_pagerank(ranks, src, dst, ids, 7) == []
    assert oracles.check_pagerank(_corrupt(ranks, 3, ranks[3] * (1 + 1e-6)), src, dst, ids, 7)
    assert oracles.check_pagerank(ranks, src, dst, ids, 6)


def test_component_oracles_agree_and_flag(small_graph):
    src, dst, ids = small_graph
    labels = oracles.cc_labels(src, dst, ids)
    assert np.array_equal(labels, oracles.propagate_min_labels(src, dst, ids, rounds=ids.size))
    assert len(set(labels.tolist())) >= 2
    values = dict(zip(ids.tolist(), labels.tolist()))
    assert oracles.check_components(values, src, dst, ids) == []
    assert oracles.check_components(_corrupt(values, 101, 101), src, dst, ids)
    assert oracles.check_components(values, src, dst, ids, rounds=1)  # one round is not enough


def test_hop_distance_oracle(small_graph):
    src, dst, ids = small_graph
    landmarks = [0, 100]
    hops = {l: oracles.bfs_hops(src, dst, ids, l, towards_origin=True) for l in landmarks}
    values = {
        int(v): {l: int(hops[l][i]) for l in landmarks if hops[l][i] >= 0}
        for i, v in enumerate(ids.tolist())
    }
    assert oracles.check_hop_maps(values, src, dst, ids, landmarks) == []
    far = max(values, key=lambda v: values[v].get(0, -1))
    assert oracles.check_hop_maps(_corrupt(values, far, {0: values[far][0] - 1}), src, dst, ids, landmarks)
    assert oracles.check_hop_maps(_corrupt(values, 200, {0: 1}), src, dst, ids, landmarks)
    forward = oracles.bfs_hops(src, dst, ids, 59, towards_origin=False)
    answer = {"source": 59, "target": 200, "distance": int(forward[np.searchsorted(ids, 200)])}
    assert answer["distance"] == 1
    assert oracles.check_distance_answers([answer], src, dst, ids) == []
    assert oracles.check_distance_answers([dict(answer, distance=2)], src, dst, ids)
    assert oracles.check_distance_answers([{"source": 200, "target": 59, "distance": 1}], src, dst, ids)


def test_triangle_oracle(small_graph):
    src, dst, ids = small_graph
    counts = oracles.triangles_per_vertex(src, dst, ids)
    adjacency = {v: set() for v in ids.tolist()}
    for a, b in zip(src.tolist(), dst.tolist()):
        if a != b:
            adjacency[a].add(b)
            adjacency[b].add(a)
    brute = [
        sum(1 for a in adjacency[v] for b in adjacency[v] if a < b and b in adjacency[a])
        for v in ids.tolist()
    ]
    assert counts.tolist() == brute and sum(brute) > 0
    values = dict(zip(ids.tolist(), brute))
    assert oracles.check_triangles(values, src, dst, ids) == []
    assert oracles.check_triangles(_corrupt(values, 100, 0), src, dst, ids)


def test_placement_oracle(small_graph):
    src, dst, _ = small_graph
    partition_of = (src + dst) % 4
    counts = oracles.placement_counts(src, dst, partition_of, 4)
    assert counts["comm_cost"] >= 2 * counts["cut"] > 0
    assert oracles.check_placement_counts(counts, src, dst, partition_of, 4) == []
    assert oracles.check_placement_counts(
        dict(counts, comm_cost=counts["comm_cost"] + 1), src, dst, partition_of, 4
    )


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def _report(tmp_path, name, walls, cells=20.0):
    runs = [
        {"workload": "grid_sweep", "trace": False, "counts": {"cells": 192},
         "metrics": {"wall_s": {"value": wall, "samples": 1},
                     "cells_per_s": {"value": cells, "samples": 1}}}
        for wall in walls
    ]
    path = tmp_path / name
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def test_compare_verdicts(tmp_path, capsys):
    steady = _report(tmp_path, "a.json", [10.0, 10.1, 9.9, 10.0, 10.05])
    same = _report(tmp_path, "b.json", [10.1, 10.0, 10.0, 9.95, 10.1])
    worse = 1.1 + END_TO_END["wall_s"]["bound"]  # past the bound by a tenth
    slower = _report(tmp_path, "c.json", [w * worse for w in (10.0, 9.9, 10.1, 10.0, 9.95)],
                     cells=20.0 / worse)
    noisy = _report(tmp_path, "d.json", [6.0, 14.0, 10.0, 18.0, 8.0])
    assert run.compare(steady, same, SPEC) == 0
    assert "0 regressed, 0 unresolved" in capsys.readouterr().out
    assert run.compare(steady, slower, SPEC) == 1
    out = capsys.readouterr().out
    assert out.count("regressed  (") == 2 and "0 unresolved" in out
    assert run.compare(steady, noisy, SPEC) == 0
    assert "unresolved  (" in capsys.readouterr().out
