"""Pluggable execution backends for the paper's algorithms.

The reproduction has two execution paths for every algorithm:

``reference``
    The Pregel/BSP *simulator* (:mod:`repro.engine`), faithful
    to the paper's GraphX model.  It is the only backend that produces a
    cost-model :class:`~repro.engine.cost_model.SimulationReport`, so
    every partitioning experiment and figure reproduction uses it.

``vectorized``
    Whole-graph numpy kernels over the :class:`~repro.backends.csr.CSRGraph`
    compressed-sparse-row view (:mod:`repro.backends.vectorized`).  Orders
    of magnitude faster; produces identical vertex values (bit-exact for
    CC/TR/SSSP/degrees, floating-point-equal for PR) but no simulated
    cluster timing.  This is the path for real workloads.

Registry
--------
Backends are instances of :class:`~repro.backends.base.Backend` keyed by
name:

>>> from repro.backends import get_backend, available_backends
>>> sorted(available_backends())
['reference', 'vectorized']
>>> backend = get_backend("vectorized")

Adding a backend is two steps: subclass ``Backend`` (implement ``run``
and ``degrees``) and call :func:`register_backend` on an instance.  The
CLI ``--backend`` flag, :func:`repro.algorithms.registry.run_algorithm`'s
``backend=`` argument and the experiment harness all resolve names
through this registry, so a registered backend is immediately usable
everywhere.  :func:`validate_backends` certifies a new backend against
the reference simulator on any graph.
"""

from .base import Backend, available_backends, get_backend, register_backend
from .csr import CSRGraph
from .reference import ReferenceBackend
from .validation import validate_backends
from .vectorized import VectorizedBackend

__all__ = [
    "Backend",
    "CSRGraph",
    "REFERENCE",
    "VECTORIZED",
    "ReferenceBackend",
    "VectorizedBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "validate_backends",
]

#: The default backend instances, registered at import time.
REFERENCE = register_backend(ReferenceBackend())
VECTORIZED = register_backend(VectorizedBackend())
