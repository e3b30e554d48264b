"""The streaming, batched design-space-exploration engine.

``iter_sweep`` is the primitive: it resolves every unique point of a
sweep against three cache tiers -- the per-process memo, an optional
persistent store (JSONL or SQLite), and finally a cold evaluation --
and yields a
:class:`SweepRecord` per unique config *as it completes*.  Cache hits
stream out immediately; cold points follow, evaluated in
lowered-workload chunks by the vectorized ``evaluate_points``, each
chunk committed to the store in one write before its records stream
out, so an interrupted run keeps every completed chunk.  Callers can
render partial Pareto frontiers or pipe records downstream without
waiting for the sweep to finish.

``run_sweep`` is the batch API, reimplemented on top of the stream: it
drains the generator and returns records in point order plus per-tier
hit counts.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from ..obs.metrics import get_registry
from .evaluate import _MEMO, EVAL_VERSION, evaluate_points
from .spec import SweepPoint, SweepSpec
from .store import ResultStoreBase, open_store

__all__ = ["SweepRecord", "SweepResult", "iter_sweep", "run_sweep"]

# Tier counts are accumulated in plain locals on the hot path and
# flushed to the registry once per iter_sweep call (its finally), so
# instrumentation costs one dict update per *sweep*, not per record --
# the obs-overhead benchmark gates this at <=5%.
_METRICS = get_registry()
_EVAL_POINTS = _METRICS.counter(
    "repro_eval_points_total",
    "Sweep points resolved, by tier (memo, store, evaluated).",
    labelnames=("tier",),
)
_EVAL_CHUNK_SECONDS = _METRICS.histogram(
    "repro_eval_chunk_seconds",
    "Latency of one vectorized evaluation chunk.",
)


@dataclass(frozen=True)
class SweepRecord:
    """One streamed result: a unique config resolved through some tier."""

    index: int  # position of the first point with this hash in the sweep
    point: SweepPoint
    record: dict = field(repr=False)
    source: str  # "memo" | "store" | "evaluated"

    @property
    def hash(self) -> str:
        return self.record["hash"]


@dataclass
class SweepResult:
    """Outcome of one engine run."""

    records: list[dict] = field(repr=False)
    evaluated: int  # unique points simulated cold this run
    from_store: int  # unique points served from the persistent store
    from_memo: int  # unique points served from the in-process memo

    def __len__(self) -> int:
        return len(self.records)

    @property
    def unique_points(self) -> int:
        return self.evaluated + self.from_store + self.from_memo

    def summary(self) -> str:
        return (
            f"{len(self.records)} points ({self.unique_points} unique): "
            f"{self.evaluated} evaluated, {self.from_store} store hits, "
            f"{self.from_memo} memo hits"
        )


def _lowered_chunks(
    points: list[SweepPoint], chunk_size: int
) -> list[list[SweepPoint]]:
    """Split pending points into vectorizable work units.

    Points are grouped by lowered-workload key -- (kind, workload,
    batch, policy) -- so every chunk shares one
    :class:`~repro.sim.lowered.LoweredNetwork` and evaluates as a single
    batch of array expressions; oversized groups split at ``chunk_size``,
    the group-commit unit.  Group order follows first appearance, so
    evaluation order is deterministic.
    """
    groups: dict[tuple, list[SweepPoint]] = {}
    for point in points:
        key = (point.kind, point.workload, point.batch, point.policy.lower())
        groups.setdefault(key, []).append(point)
    chunks = []
    for group in groups.values():
        for start in range(0, len(group), chunk_size):
            chunks.append(group[start : start + chunk_size])
    return chunks


def iter_sweep(
    sweep: SweepSpec | Iterable[SweepPoint],
    store: ResultStoreBase | str | os.PathLike | None = None,
    chunk_size: int = 32,
    should_cancel: Callable[[], bool] | None = None,
) -> Iterator[SweepRecord]:
    """Stream a sweep's records in completion order, one per unique config.

    Memo and store hits yield first (they are already complete); cold
    points follow, evaluated chunk by chunk through the vectorized
    ``evaluate_points``.  Fresh records -- and memo hits the store has
    not seen -- are persisted before they are yielded: each evaluated
    chunk (at most ``chunk_size`` lowered-workload points) in one store
    write, each memo hit on its own.  A consumer that stops early therefore leaves
    a store warm up to that point, and a crash loses at most the chunk
    being written, which the next run re-evaluates.  An empty sweep,
    e.g. an empty shard of a fine partition, yields nothing.

    ``should_cancel`` is polled at record boundaries -- after a record
    is yielded, before the next one is touched.  When it turns true the
    generator returns early: every record already yielded is fully
    persisted, the rest of the current chunk may be persisted without
    being yielded, and nothing half-written follows.  The sweep-service
    job queue uses this for cooperative ``POST /jobs/{id}/cancel``.
    """
    points = list(sweep.points) if isinstance(sweep, SweepSpec) else list(sweep)

    def cancelled() -> bool:
        return should_cancel is not None and should_cancel()

    if store is not None and not isinstance(store, ResultStoreBase):
        store = open_store(store)
    stored: dict[str, dict] = {}
    if store is not None:
        # Only the sweep's own hashes, only at the current version: the
        # JSONL backend answers from a full load, the SQLite backend
        # from an indexed point lookup -- a huge warm store costs time
        # proportional to the sweep, not the store.
        unique = list(dict.fromkeys(point.config_hash() for point in points))
        stored = store.records_for(unique, version=EVAL_VERSION)

    # One held-open append handle for the whole stream: each completed
    # chunk is committed without a file open (or, on gzipped stores, a
    # fresh gzip member) per chunk.
    sink = store.appender() if store is not None else contextlib.nullcontext()
    tiers = {"memo": 0, "store": 0, "evaluated": 0}
    try:
        with sink as persist:
            seen: set[str] = set()
            pending: list[tuple[int, SweepPoint]] = []
            for index, point in enumerate(points):
                if cancelled():
                    return
                key = point.config_hash()
                if key in seen:
                    continue
                seen.add(key)
                if key in _MEMO:
                    if persist is not None and key not in stored:
                        persist([_MEMO[key]])
                    tiers["memo"] += 1
                    yield SweepRecord(index, point, _MEMO[key], "memo")
                elif key in stored:
                    # A store hit warms the in-process memo: the next
                    # sweep over this config is served without touching
                    # the store.
                    _MEMO[key] = stored[key]
                    tiers["store"] += 1
                    yield SweepRecord(index, point, stored[key], "store")
                else:
                    pending.append((index, point))

            if not pending or cancelled():
                return
            by_hash = {
                point.config_hash(): (index, point) for index, point in pending
            }
            pending_points = [point for _, point in pending]
            for chunk in _lowered_chunks(pending_points, chunk_size):
                chunk_started = time.monotonic()
                records = evaluate_points(chunk)
                _EVAL_CHUNK_SECONDS.observe(time.monotonic() - chunk_started)
                # One store commit per evaluated chunk, before any of
                # its records is yielded.
                if persist is not None:
                    persist(records)
                for record in records:
                    _MEMO[record["hash"]] = record
                    index, point = by_hash[record["hash"]]
                    tiers["evaluated"] += 1
                    yield SweepRecord(index, point, record, "evaluated")
                    if cancelled():
                        return
    finally:
        # One registry touch per tier per sweep (never per record);
        # fires on normal exhaustion, cancellation, errors, and early
        # generator close alike.
        for tier, count in tiers.items():
            if count:
                _EVAL_POINTS.inc(count, tier=tier)


def run_sweep(
    sweep: SweepSpec | Iterable[SweepPoint],
    store: ResultStoreBase | str | os.PathLike | None = None,
    chunk_size: int = 32,
) -> SweepResult:
    """Evaluate a sweep through the memo -> store -> simulate tiers."""
    points = list(sweep.points) if isinstance(sweep, SweepSpec) else list(sweep)
    if not points:
        raise ValueError("empty sweep")
    hashes = [point.config_hash() for point in points]

    resolved: dict[str, dict] = {}
    counts = {"memo": 0, "store": 0, "evaluated": 0}
    for sweep_record in iter_sweep(points, store=store, chunk_size=chunk_size):
        resolved[sweep_record.hash] = sweep_record.record
        counts[sweep_record.source] += 1

    return SweepResult(
        records=[resolved[key] for key in hashes],
        evaluated=counts["evaluated"],
        from_store=counts["store"],
        from_memo=counts["memo"],
    )
