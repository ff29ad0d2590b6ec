"""Tests for the backend protocol, registry and dispatch wiring."""

import pytest

from repro.algorithms.registry import run_algorithm
from repro.backends import (
    Backend,
    available_backends,
    get_backend,
    register_backend,
    validate_backends,
)
from repro.backends.base import _REGISTRY, resolve_graph
from repro.errors import BackendError
from repro.session import Session


class TestRegistry:
    def test_default_backends_registered(self):
        assert "reference" in available_backends()
        assert "vectorized" in available_backends()

    def test_get_backend_unknown_name(self):
        with pytest.raises(BackendError, match="unknown backend"):
            get_backend("gpu")

    def test_register_requires_name(self):
        class Nameless(Backend):
            def _run(self, *args, **kwargs):  # pragma: no cover - never called
                raise NotImplementedError

            def _degrees(self, *args, **kwargs):  # pragma: no cover - never called
                raise NotImplementedError

        with pytest.raises(BackendError, match="non-empty name"):
            register_backend(Nameless())

    def test_custom_backend_is_dispatchable(self, partitioned_social):
        reference = get_backend("reference")

        class EchoBackend(Backend):
            name = "echo-test"

            def _run(self, algorithm, graph, **kwargs):
                return reference.run(algorithm, graph, **kwargs)

            def _degrees(self, graph, direction="out"):
                return reference.degrees(graph, direction)

        register_backend(EchoBackend())
        try:
            result = run_algorithm("CC", partitioned_social, backend="echo-test")
            assert result.backend == "echo-test"
        finally:
            _REGISTRY.pop("echo-test")

    def test_resolve_graph_rejects_other_types(self):
        with pytest.raises(BackendError, match="expected a Graph"):
            resolve_graph(object())


class TestDispatch:
    def test_default_backend_is_reference(self, partitioned_social):
        result = run_algorithm("PR", partitioned_social, num_iterations=2)
        assert result.backend == "reference"
        assert result.report is not None
        assert result.wall_seconds > 0.0
        assert result.simulated_seconds > 0.0

    def test_vectorized_has_no_simulated_time(self, partitioned_social):
        result = run_algorithm("PR", partitioned_social, num_iterations=2, backend="vectorized")
        assert result.backend == "vectorized"
        assert result.report is None
        assert result.simulated_seconds == 0.0
        assert result.wall_seconds > 0.0

    def test_unknown_algorithm_on_vectorized(self, partitioned_social):
        with pytest.raises(BackendError, match="unknown algorithm"):
            run_algorithm("BFS", partitioned_social, backend="vectorized")

    def test_unknown_backend_name(self, partitioned_social):
        with pytest.raises(BackendError, match="unknown backend"):
            run_algorithm("PR", partitioned_social, backend="quantum")


def _plan(graph, *partitioners):
    session = Session(graphs={"small-social": graph})
    return session.plan().datasets("small-social").partitioners(partitioners).granularities(4)


class TestExperimentPlans:
    def test_plan_carries_backend_provenance(self, small_social_graph):
        records = (
            _plan(small_social_graph, "1D", "2D")
            .algorithms("CC")
            .iterations(3)
            .backends("vectorized")
            .run()
        )
        assert len(records) == 2
        for record in records:
            assert record.backend == "vectorized"
            assert record.simulated_seconds == 0.0
            assert record.wall_seconds > 0.0
            assert record.as_row()["backend"] == "vectorized"
            assert record.as_row()["wall_s"] > 0.0
        # Partition-oblivious backends execute once per dataset; every
        # partitioner row reuses that single run.
        assert len({record.wall_seconds for record in records}) == 1

    def test_reference_plan_unchanged(self, small_social_graph):
        (record,) = _plan(small_social_graph, "1D").algorithms("PR").iterations(2).run()
        assert record.backend == "reference"
        assert record.simulated_seconds > 0.0


class TestValidationFailure:
    def test_disagreeing_backend_is_reported(self, partitioned_social):
        vectorized = get_backend("vectorized")

        class OffByOneBackend(Backend):
            name = "off-by-one-test"

            def _run(self, algorithm, graph, **kwargs):
                result = vectorized.run(algorithm, graph, **kwargs)
                vertex = next(iter(result.vertex_values))
                result.vertex_values[vertex] += 1
                return result

            def _degrees(self, graph, direction="out"):  # pragma: no cover
                return vectorized.degrees(graph, direction)

        register_backend(OffByOneBackend())
        try:
            with pytest.raises(BackendError, match="disagree at vertex"):
                validate_backends(
                    partitioned_social,
                    algorithms=("CC",),
                    backends=("reference", "off-by-one-test"),
                )
        finally:
            _REGISTRY.pop("off-by-one-test")

    def test_needs_two_backends(self, partitioned_social):
        with pytest.raises(BackendError, match="at least two"):
            validate_backends(partitioned_social, backends=("reference",))
