"""ResultSet: a queryable, serialisable collection of run records.

:meth:`ExperimentPlan.run` returns one of these.  It behaves like an
immutable sequence of :class:`~repro.analysis.results.RunRecord` and adds
the post-processing verbs the paper's analysis needs — ``filter``,
``group_by``, ``best``, ``pivot`` — plus JSON round-tripping built on the
existing record serialisation, so grids can be archived and re-analysed
without re-running anything.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Union

from ..analysis.results import RunRecord, records_to_rows
from ..analysis.serialization import (
    PathLike,
    load_records,
    record_from_dict,
    record_to_dict,
    save_records,
)
from ..errors import AnalysisError

__all__ = ["ResultSet"]

#: Aliases accepted wherever a field name selects a record value.
_FIELD_ALIASES = {"seconds": "simulated_seconds", "partitions": "num_partitions"}

#: The only backend whose records carry cost-model (simulated) seconds;
#: metrics-only cells record backend ``"none"``.
_SIMULATING_BACKEND = "reference"

#: Direct attributes of RunRecord; anything else resolves as a metric name.
_RECORD_FIELDS = frozenset(
    (
        "dataset",
        "partitioner",
        "num_partitions",
        "algorithm",
        "simulated_seconds",
        "num_supersteps",
        "backend",
        "wall_seconds",
    )
)


def _value_of(record: RunRecord, field: str):
    """A record value by field name: record attributes first, then metrics."""
    name = _FIELD_ALIASES.get(field, field)
    if name in _RECORD_FIELDS:
        return getattr(record, name)
    return record.metrics.value(name)


class ResultSet:
    """An ordered, immutable collection of run records."""

    __slots__ = ("_records",)

    def __init__(self, records: Iterable[RunRecord] = ()) -> None:
        self._records = tuple(records)

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    @property
    def records(self) -> List[RunRecord]:
        """The records as a plain list (a copy; the set itself is immutable)."""
        return list(self._records)

    def __iter__(self) -> Iterator[RunRecord]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            return ResultSet(self._records[index])
        return self._records[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ResultSet):
            return self._records == other._records
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultSet({len(self._records)} records)"

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def filter(
        self,
        predicate: Optional[Callable[[RunRecord], bool]] = None,
        **fields,
    ) -> "ResultSet":
        """Records matching a predicate and/or field constraints.

        Field constraints compare by equality, or by membership when the
        expected value is a list/tuple/set/frozenset::

            results.filter(algorithm="PR", num_partitions=(128, 256))
        """

        def matches(record: RunRecord) -> bool:
            if predicate is not None and not predicate(record):
                return False
            for field, expected in fields.items():
                value = _value_of(record, field)
                if isinstance(expected, (list, tuple, set, frozenset)):
                    if value not in expected:
                        return False
                elif value != expected:
                    return False
            return True

        return ResultSet(record for record in self._records if matches(record))

    def group_by(self, field: str) -> Dict[object, "ResultSet"]:
        """Partition the records by a field value, preserving record order."""
        grouped: Dict[object, List[RunRecord]] = {}
        for record in self._records:
            grouped.setdefault(_value_of(record, field), []).append(record)
        return {key: ResultSet(records) for key, records in grouped.items()}

    def best(self, by: str = "simulated_seconds") -> RunRecord:
        """The record minimising ``by`` (a record field or metric name).

        Ranking by simulated time raises :class:`AnalysisError` when a
        record has none — a metrics-only cell or a backend without the
        cluster cost model records 0.0, which would otherwise always win.
        """
        if not self._records:
            raise AnalysisError("cannot take the best record of an empty result set")
        if _FIELD_ALIASES.get(by, by) == "simulated_seconds":
            untimed = [r for r in self._records if r.backend != _SIMULATING_BACKEND]
            if untimed:
                cells = ", ".join(
                    f"{r.dataset}/{r.partitioner}/{r.num_partitions}/{r.algorithm}/{r.backend}"
                    for r in untimed[:5]
                ) + (", ..." if len(untimed) > 5 else "")
                raise AnalysisError(
                    f"cannot rank by simulated time: {len(untimed)} record(s) carry no "
                    f"cost-model time ({cells}); filter to backend={_SIMULATING_BACKEND!r} "
                    f"algorithm runs or rank by another field"
                )
        return min(self._records, key=lambda record: _value_of(record, by))

    def pivot(
        self,
        rows: str = "dataset",
        cols: str = "partitioner",
        value: str = "simulated_seconds",
    ) -> Dict[object, Dict[object, object]]:
        """A two-axis table ``{row: {col: value}}`` of one value per cell.

        Raises :class:`AnalysisError` when several records land in the same
        cell (filter the set down to one grid slice first).
        """
        table: Dict[object, Dict[object, object]] = {}
        for record in self._records:
            row_key = _value_of(record, rows)
            col_key = _value_of(record, cols)
            row = table.setdefault(row_key, {})
            if col_key in row:
                raise AnalysisError(
                    f"pivot cell ({row_key!r}, {col_key!r}) is ambiguous: several "
                    f"records match; filter the result set to one grid slice first"
                )
            row[col_key] = _value_of(record, value)
        return table

    def to_rows(self) -> List[Dict[str, object]]:
        """Flat dict rows for tabulation (same shape as ``records_to_rows``)."""
        return records_to_rows(self._records)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialise to a JSON string (the ``save_records`` payload format)."""
        return json.dumps([record_to_dict(record) for record in self._records], indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ResultSet":
        """Rebuild a result set from :meth:`to_json` output."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise AnalysisError(f"result set payload is not valid JSON: {exc}") from exc
        if not isinstance(payload, list):
            raise AnalysisError("result set payload must be a JSON list of run records")
        return cls(record_from_dict(item) for item in payload)

    def save(self, path: PathLike, indent: int = 2) -> None:
        """Write the records to a JSON file (readable by ``load_records``)."""
        save_records(self._records, path, indent=indent)

    @classmethod
    def load(cls, path: PathLike) -> "ResultSet":
        """Read a result set from a file written by :meth:`save` (or ``save_records``)."""
        return cls(load_records(path))
