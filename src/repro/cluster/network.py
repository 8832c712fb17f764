"""Simulated network with exact byte and time accounting.

Every inter-worker transfer in the simulated cluster is recorded here.
Computation runs for real (numpy kernels, measured with a wall clock);
communication is *simulated*: each logical operation contributes
``latency + bytes / bandwidth`` seconds according to the collective's cost
decomposition in :mod:`repro.cluster.comm`.  The paper's communication
results (Figures 10, 12; Section 3.1.3) are functions of exactly these two
quantities — bytes on the wire and the bandwidth they cross — so the shape
of every result is preserved.

Fault semantics
---------------
With a :class:`~repro.cluster.faults.FaultInjector` attached, every
recorded operation may be transiently dropped or timed out: each injected
failure re-sends the payload after an exponential backoff, and the extra
bytes and seconds land under a dedicated ``retry:<kind>`` ledger entry.
Crash recovery uses :meth:`SimulatedNetwork.relabel_since` to reclassify a
rolled-back attempt's traffic under ``recovery:<kind>``.  The unprefixed
kinds therefore always total exactly what a fault-free run records — the
invariant the chaos suite pins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

from ..config import NetworkModel
from .faults import FAULT_PREFIXES

if TYPE_CHECKING:
    from .faults import FaultInjector


@dataclass
class CommRecord:
    """One recorded communication operation.

    ``nbytes`` is what actually crossed the (simulated) wire; when a
    codec shrank the payload, ``raw_nbytes`` holds the dense baseline
    size so the ledger can account the saving.  For un-encoded traffic
    the two are equal.
    """

    kind: str
    nbytes: int
    seconds: float
    raw_nbytes: int = -1

    def __post_init__(self) -> None:
        if self.raw_nbytes < 0:
            self.raw_nbytes = self.nbytes


@dataclass
class CommStats:
    """Aggregate snapshot of traffic (totals since construction/reset)."""

    total_bytes: int = 0
    total_seconds: float = 0.0
    bytes_by_kind: Dict[str, int] = field(default_factory=dict)
    seconds_by_kind: Dict[str, float] = field(default_factory=dict)
    raw_bytes_by_kind: Dict[str, int] = field(default_factory=dict)

    def codec_savings_by_kind(self) -> Dict[str, int]:
        """Bytes each codec saved, keyed ``codec:<kind>``.

        This is the reporting dimension for compression: entries exist
        only for kinds where a codec actually shrank the payload
        (``raw > wire``), so with the identity codec the dict is empty
        and the ledger is indistinguishable from the pre-codec one.
        """
        savings: Dict[str, int] = {}
        for kind, raw in self.raw_bytes_by_kind.items():
            wire = self.bytes_by_kind.get(kind, 0)
            if raw > wire:
                savings["codec:" + kind] = raw - wire
        return savings

    @property
    def total_raw_bytes(self) -> int:
        """Dense-baseline total: wire bytes plus every codec saving."""
        return self.total_bytes + sum(
            self.codec_savings_by_kind().values())

    def minus(self, earlier: "CommStats") -> "CommStats":
        """Traffic between two snapshots.

        Zero-delta kinds are omitted; a kind present only in ``earlier``
        (possible after :meth:`SimulatedNetwork.relabel_since` moved its
        traffic to a recovery kind) surfaces as a negative delta rather
        than vanishing silently.
        """
        delta = CommStats(
            total_bytes=self.total_bytes - earlier.total_bytes,
            total_seconds=self.total_seconds - earlier.total_seconds,
        )
        for key in self.bytes_by_kind.keys() | earlier.bytes_by_kind.keys():
            diff = self.bytes_by_kind.get(key, 0) \
                - earlier.bytes_by_kind.get(key, 0)
            if diff:
                delta.bytes_by_kind[key] = diff
        for key in (self.seconds_by_kind.keys()
                    | earlier.seconds_by_kind.keys()):
            diff = self.seconds_by_kind.get(key, 0.0) \
                - earlier.seconds_by_kind.get(key, 0.0)
            if diff:
                delta.seconds_by_kind[key] = diff
        for key in (self.raw_bytes_by_kind.keys()
                    | earlier.raw_bytes_by_kind.keys()):
            diff = self.raw_bytes_by_kind.get(key, 0) \
                - earlier.raw_bytes_by_kind.get(key, 0)
            if diff:
                delta.raw_bytes_by_kind[key] = diff
        return delta


class SimulatedNetwork:
    """Byte/time ledger of the simulated cluster interconnect."""

    def __init__(self, model: NetworkModel,
                 injector: "Optional[FaultInjector]" = None) -> None:
        self.model = model
        self.injector = injector
        self.records: List[CommRecord] = []
        self._stats = CommStats()

    def record(self, kind: str, nbytes: int, seconds: float,
               raw_nbytes: Optional[int] = None) -> None:
        """Account one already-costed operation.

        ``raw_nbytes`` (default: ``nbytes``) is the dense baseline size
        when a codec shrank the payload; the difference surfaces under
        the ``codec:<kind>`` reporting dimension of
        :meth:`CommStats.codec_savings_by_kind` without ever entering
        ``total_bytes`` — wire totals stay what actually crossed.

        With a fault injector attached, transient drops/timeouts of the
        operation are charged first (one ``retry:<kind>`` record per
        failed attempt: re-sent payload plus detection delay and
        exponential backoff), then the successful send.  Retries re-send
        the *encoded* payload, so they carry the same raw/wire pair.
        """
        if not math.isfinite(nbytes):
            raise ValueError(f"bytes must be finite, got {nbytes}")
        nbytes = int(nbytes)
        if not math.isfinite(seconds):
            raise ValueError(f"seconds must be finite, got {seconds}")
        if nbytes < 0 or seconds < 0:
            raise ValueError("bytes and seconds must be >= 0")
        raw_nbytes = nbytes if raw_nbytes is None else int(raw_nbytes)
        if raw_nbytes < nbytes:
            raise ValueError(
                f"raw bytes ({raw_nbytes}) below wire bytes ({nbytes})"
            )
        injector = self.injector
        if injector is not None and not kind.startswith(FAULT_PREFIXES):
            faults = injector.transport_faults(kind)
            for attempt, fault in enumerate(faults):
                self._commit(
                    "retry:" + kind, nbytes,
                    injector.retry_seconds(attempt, seconds, fault),
                    raw_nbytes,
                )
        self._commit(kind, nbytes, seconds, raw_nbytes)

    def _commit(self, kind: str, nbytes: int, seconds: float,
                raw_nbytes: int) -> None:
        self.records.append(CommRecord(kind, nbytes, seconds, raw_nbytes))
        self._stats.total_bytes += nbytes
        self._stats.total_seconds += seconds
        self._stats.bytes_by_kind[kind] = (
            self._stats.bytes_by_kind.get(kind, 0) + nbytes
        )
        self._stats.seconds_by_kind[kind] = (
            self._stats.seconds_by_kind.get(kind, 0.0) + seconds
        )
        self._stats.raw_bytes_by_kind[kind] = (
            self._stats.raw_bytes_by_kind.get(kind, 0) + raw_nbytes
        )

    def transfer(self, kind: str, nbytes: int,
                 raw_nbytes: Optional[int] = None) -> float:
        """Account a point-to-point transfer; returns its simulated time.

        ``raw_nbytes`` is the dense baseline when ``nbytes`` is an
        encoded payload (see :meth:`record`).
        """
        seconds = self.model.transfer_time(nbytes)
        self.record(kind, nbytes, seconds, raw_nbytes)
        return seconds

    def mark(self) -> int:
        """Position in the ledger, for a later :meth:`relabel_since`."""
        return len(self.records)

    def relabel_since(self, mark: int, prefix: str) -> None:
        """Reclassify every record from ``mark`` on under ``prefix``.

        Crash recovery rolls a tree back and replays it; the aborted
        attempt's traffic was real but produced no model state, so it is
        moved under ``prefix + kind`` (e.g. ``recovery:hist-aggregation``)
        and the per-kind totals are rebuilt from the ledger.  Totals stay
        unchanged; only the classification moves.
        """
        if not 0 <= mark <= len(self.records):
            raise ValueError(
                f"mark {mark} outside the ledger (0..{len(self.records)})"
            )
        changed = False
        for rec in self.records[mark:]:
            if not rec.kind.startswith(FAULT_PREFIXES):
                rec.kind = prefix + rec.kind
                changed = True
        if changed:
            self._rebuild_stats()

    def _rebuild_stats(self) -> None:
        """Recompute per-kind totals by replaying the ledger through
        :meth:`_commit`, in order (the same summation as incremental
        recording, so the floats of unaffected kinds are bit-identical)."""
        records, self.records = self.records, []
        self._stats = CommStats()
        for rec in records:
            self._commit(rec.kind, rec.nbytes, rec.seconds, rec.raw_nbytes)

    def snapshot(self) -> CommStats:
        """Copy of the running totals (cheap; safe to diff later)."""
        return CommStats(
            total_bytes=self._stats.total_bytes,
            total_seconds=self._stats.total_seconds,
            bytes_by_kind=dict(self._stats.bytes_by_kind),
            seconds_by_kind=dict(self._stats.seconds_by_kind),
            raw_bytes_by_kind=dict(self._stats.raw_bytes_by_kind),
        )

    @property
    def total_bytes(self) -> int:
        return self._stats.total_bytes

    @property
    def total_seconds(self) -> float:
        return self._stats.total_seconds
