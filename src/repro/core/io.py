"""Reading and writing edge-list files, and the on-disk array helpers.

The SNAP datasets the paper uses are plain whitespace-separated edge lists
with ``#`` comment lines; this module reads and writes that format so that
real SNAP files can be dropped in as a replacement for the synthetic
analogues shipped in :mod:`repro.datasets`.  :func:`atomic_write_bytes`
and :func:`narrow_int_dtype` are shared by every writer of persisted
arrays (the artifact store and the out-of-core shards).
"""

from __future__ import annotations

import os
from typing import Optional, Union

import numpy as np

from ..errors import GraphIOError
from .graph import Graph

__all__ = [
    "PathLike",
    "atomic_write_bytes",
    "narrow_int_dtype",
    "read_edge_list",
    "write_edge_list",
]

PathLike = Union[str, "os.PathLike[str]"]


def narrow_int_dtype(low: int, high: int) -> np.dtype:
    """The narrowest integer dtype that holds every value in ``[low, high]``.

    Persisted integer arrays are written in it and widened back to int64
    on load: partition ids fit 8 or 16 bits, local slot indices 8 to 32.
    """
    return np.result_type(np.min_scalar_type(int(low)), np.min_scalar_type(int(high)))


def atomic_write_bytes(path: PathLike, data: bytes, make_parents: bool = False) -> None:
    """Write ``data`` to ``path`` via a temporary sibling and ``os.replace``.

    Readers never observe a half-written file: they see either the old
    contents or the new ones, even across concurrent writers and killed
    processes.  ``make_parents`` creates missing parent directories (the
    artifact store's layout) — by default a missing directory is an
    :class:`OSError`, like a plain ``open`` for write.  The ``.part``
    suffix keeps in-flight files out of directory listings that filter by
    extension.  Raises plain :class:`OSError` — callers wrap it in their
    layer's error type.
    """
    target = os.fspath(path)
    directory = os.path.dirname(target) or "."
    if make_parents:
        os.makedirs(directory, exist_ok=True)
    # Not mkstemp: its private 0600 mode would stick to the published file.
    # O_CREAT with mode 0o666 lets the kernel apply the process umask at
    # create time, giving the same permissions a plain open() would have.
    tmp_path = os.path.join(directory, f".tmp-{os.getpid()}-{os.urandom(6).hex()}.part")
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        # Adoption can fail (allocation, interpreter shutdown); until the
        # file object owns fd, it must be closed here or it leaks.
        handle = os.fdopen(fd, "wb")
    except BaseException:
        os.close(fd)
        try:
            os.remove(tmp_path)
        except OSError:
            pass
        raise
    try:
        with handle:
            handle.write(data)
        os.replace(tmp_path, target)
    except BaseException:
        try:
            os.remove(tmp_path)
        except OSError:
            pass
        raise


def read_edge_list(path: PathLike, delimiter: Optional[str] = None, name: str = "") -> Graph:
    """Read a SNAP-style edge list file into a :class:`Graph`.

    Lines starting with ``#`` or ``%`` are treated as comments.  Each other
    line must contain at least two integer fields (source and destination);
    any additional fields are ignored.

    Implemented on the chunked reader from :mod:`repro.ooc.chunks` (the
    seed appended two Python ints per edge into ever-growing lists), so
    parsing runs in bounded batches; accepted values and ``GraphIOError``
    diagnostics are identical to the seed loop.
    """
    # Imported lazily: repro.ooc pulls in the shard/session stack, which
    # itself imports this module.
    from ..ooc.chunks import EdgeListChunkSource, materialize

    source = EdgeListChunkSource(path, delimiter=delimiter)
    return materialize(source, name=name or os.path.basename(str(path)))


def write_edge_list(graph: Graph, path: PathLike, delimiter: str = "\t", header: bool = True) -> None:
    """Write a graph as a SNAP-style edge list file."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            if header:
                handle.write(f"# {graph.name or 'graph'}\n")
                handle.write(f"# vertices: {graph.num_vertices} edges: {graph.num_edges}\n")
            for s, d in graph.edge_pairs():
                handle.write(f"{s}{delimiter}{d}\n")
    except OSError as exc:
        raise GraphIOError(f"cannot write edge list {path}: {exc}") from exc
