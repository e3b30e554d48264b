"""The three workloads: one client, closed loop, one process.

Every workload repeats the same round -- a cold sweep in a fresh seeded
point order, three warm sweeps of the grid, then three times an upload of
one fleet chunk of fresh records followed by four 1000-record pages (three
seeded cursors and a repeat of one of them) -- against a different program
path:

* ``grid_local``: ``iter_sweep`` into a fresh JSONL store per round, no
  server.  Each warm sweep follows ``clear_memo()``, so it resolves from
  the JSONL store like a second ``repro dse --store`` process; uploads
  and pages call the store directly.
* ``grid_served``: a ``SweepServer`` over a fresh SQLite store and its
  default journal per round, driven through ``ServeClient``.  The warm
  sweeps are served from the memo.
* ``store_100k``: one ``SweepServer`` over a SQLite store pre-filled
  with 100k records.  The cold sweep uses four memories no earlier
  round used, so it is cold and persists into the big store; each warm
  sweep follows ``clear_memo()`` and resolves through ``records_for``.

Operations are timed one by one into a :class:`Recorder`, each after a
few host probes (:func:`~e2e_bench.harness.host_probe`) that measure the
host's speed at that moment; checks run between operations, outside the
timed windows.  An operation that fails with a store or server error
counts as failed, and its checks are skipped.

Every SQLite connection of a run is opened without fsync
(:func:`without_fsync`), as if the stores lived on a tmpfs: the host
disk's sync latency drifts by tens of percent over minutes, and the
benchmark may only write inside its own directory.
"""

from __future__ import annotations

import shutil
import sqlite3
import threading
import time
from bisect import insort
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import repro.dse as dse
from repro.dse import EVAL_VERSION, SQLiteStore, SweepSpec, clear_caches, clear_memo
from repro.serve import (
    ServeClient,
    ServeError,
    SweepServer,
    SweepService,
    default_journal_path,
)
from repro.serve.server import DEFAULT_JOB_RETENTION

from .harness import (
    GRID_POINTS,
    ORACLE_SAMPLE,
    PAGE_RECORDS,
    UPLOAD_RECORDS,
    Inputs,
    canonical,
    digest,
    host_probe,
    host_speed,
    oracle_mismatches,
    page_problems,
)

#: Records in ``store_100k``'s store after set-up: the RecordCache
#: default capacity.  Set-up appends them in batches of FILL_BATCH.
STORE_RECORDS = 100_000
FILL_BATCH = 5000
#: Warm sweeps are short and noisy; three a round give them as many
#: samples as the uploads.
WARM_SWEEPS = 3
UPLOADS_PER_ROUND = 3
PAGES_PER_UPLOAD = 3  # distinct cursors; one of them is then fetched again
#: Cold-sweep points checked against the scalar oracle every
#: ``store_100k`` round (its grids are new each round).
ROUND_ORACLE_SAMPLE = 4


#: Host probes before each operation: with the next operation's, six
#: probes give its speed; a single probe is too easily interrupted.
PROBES_PER_OP = 3

#: Errors that fail one operation without ending the run.
OP_FAILURES = (OSError, ServeError)


class Op:
    """One timed operation: its start, and whether it succeeded."""

    def __init__(self, start: float):
        self.start = start
        self.ok = False


class Recorder:
    """Timed operations, windows and check failures of one phase.

    Before every operation the recorder probes the host's speed
    :data:`PROBES_PER_OP` times.  :meth:`finish` then scales each time
    measured during an operation by the speed that the probes before it
    and before the next operation measured, into ``samples`` in
    reference-host seconds, so a host that speeds up or slows down moves
    no metric.  Probes right after an operation would also time the
    server thread finishing its job.
    """

    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.speeds: list[float] = []
        self.windows: list[tuple[float, float]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self._probes: list[list[float]] = []
        self._times: list[tuple[str, float, int]] = []

    @contextmanager
    def op(self, kind: str):
        """Time one operation; yields its :class:`Op`.

        An :data:`OP_FAILURES` error ends the block and counts as
        failed; the caller skips the checks of an operation whose
        ``ok`` is false.  Any other error propagates.
        """
        self.attempted += 1
        self._probes.append([host_probe() for _ in range(PROBES_PER_OP)])
        handle = Op(time.perf_counter())
        try:
            yield handle
        except OP_FAILURES:
            self.failed += 1
            self.windows.append((handle.start, time.perf_counter()))
            return
        end = time.perf_counter()
        self.windows.append((handle.start, end))
        self.add(kind, end - handle.start)
        handle.ok = True

    def add(self, kind: str, seconds: float) -> None:
        """Record a wall time measured during the latest operation."""
        self._times.append((kind, seconds, len(self._probes) - 1))

    def finish(self) -> None:
        """Scale every recorded time into ``samples``."""
        probes = self._probes + [[host_probe() for _ in range(PROBES_PER_OP)]]
        self.speeds = [host_speed(a + b) for a, b in zip(probes, probes[1:])]
        for kind, seconds, index in self._times:
            self.samples[kind].append(seconds * self.speeds[index])

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


class _NoSyncConnection(sqlite3.Connection):
    """A SQLite connection whose ``PRAGMA synchronous`` is always OFF."""

    def execute(self, sql, *args):
        if sql.replace(" ", "").upper().startswith("PRAGMASYNCHRONOUS="):
            sql = "PRAGMA synchronous=OFF"
        return super().execute(sql, *args)


@contextmanager
def without_fsync():
    """Open every SQLite connection with ``synchronous=OFF`` meanwhile.

    SQLite still writes its rollback journal or WAL and runs every
    commit; it only skips the fsync calls, which cost ~90% of a
    per-record commit on a virtual disk.
    """
    original = sqlite3.connect

    def connect(*args, **kwargs):
        db = original(*args, factory=_NoSyncConnection, **kwargs)
        db.execute("PRAGMA synchronous=OFF")
        return db

    sqlite3.connect = connect
    try:
        yield
    finally:
        sqlite3.connect = original


class _Server:
    """An in-process ``repro serve --store PATH`` and its client."""

    def __init__(self, store_path: Path):
        self.directory = store_path.parent
        self.service = SweepService(
            store=store_path,
            journal=default_journal_path(store_path),
            job_retention=DEFAULT_JOB_RETENTION,
        )
        self.httpd = SweepServer(self.service)
        self.thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        self.thread.start()
        self.client = ServeClient(self.httpd.url)
        self.cache_seen = (0, 0)
        if not self.client.ready():
            raise RuntimeError(f"server at {self.httpd.url} is not ready")

    def count_page_cache(self, rec: Recorder) -> None:
        """Add the record cache's page hits and misses since last call."""
        stats = self.client.stats()["record_cache"]
        hits, misses = stats["hits"], stats["misses"]
        rec.counters["page_cache_hits"] += hits - self.cache_seen[0]
        rec.counters["page_cache_misses"] += misses - self.cache_seen[1]
        self.cache_seen = (hits, misses)

    def close(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self.service.close()
        self.thread.join(timeout=30)
        if self.thread.is_alive():
            raise RuntimeError("server thread did not stop")


class Workload:
    """Set-up, one round, and tear-down of one workload.

    Subclasses say how to sweep, upload and fetch a page; the checks
    and the upload/page loop are shared.
    """

    name = ""

    def __init__(self, work_dir: Path, seed: int):
        self.work_dir = work_dir
        self.seed = seed
        self.inputs: Inputs | None = None
        self.reference: dict[str, dict] = {}
        self.reference_digest = ""
        self._directories = 0

    def _fresh_directory(self) -> Path:
        self._directories += 1
        path = self.work_dir / f"{self.name}-{self._directories}"
        path.mkdir(parents=True)
        return path

    def _prepare(self) -> None:
        """Seeded inputs and the reference records of the grid."""
        self.inputs = Inputs(self.seed)
        clear_caches()
        spec = SweepSpec.from_dict({"points": self.inputs.points})
        self.reference = {item.hash: item.record for item in dse.iter_sweep(spec)}
        self.reference_digest = digest(self.reference.values())

    def setup(self) -> None:
        self._prepare()

    def check_setup(self, rec: Recorder) -> None:
        sample = self.inputs.sample(self.inputs.points, ORACLE_SAMPLE)
        bad = oracle_mismatches(sample, self.reference)
        rec.check(not bad, f"{len(bad)} reference records differ from evaluate_point")
        rec.check(
            len(self.reference) == GRID_POINTS,
            f"reference sweep gave {len(self.reference)} records",
        )

    def round(self, rec: Recorder) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    # -- operations -------------------------------------------------------
    def _sweep(self, rec, kind, points):
        """One timed sweep: ``(records, seconds to first record, tiers)``,
        tiers keyed like a served summary (``evaluated``, ``memo_hits``,
        ``store_hits``); None when the sweep failed."""
        raise NotImplementedError

    def _upload(self, batch: list[dict]) -> int:
        raise NotImplementedError

    def _page(self, cursor: str) -> tuple[list[dict], str | None]:
        raise NotImplementedError

    def _store(self) -> dse.ResultStoreBase:
        raise NotImplementedError

    def _cold_then_warm(self, rec, points, warm_tier, forget_memo):
        """The timed sweeps of a round; returns the cold sweep's records,
        or None when it failed."""
        clear_caches()
        cold = self._sweep(rec, "cold", points)
        if cold is not None:
            records, first, tiers = cold
            rec.add("first_record", first)
            rec.check(
                tiers.get("evaluated") == GRID_POINTS,
                f"cold: {tiers.get('evaluated')} evaluated points",
            )
            info = dse.lowered_for.cache_info()
            rec.counters["lowered_for_hits"] += info.hits
            rec.counters["lowered_for_misses"] += info.misses
        for _ in range(WARM_SWEEPS):
            if forget_memo:
                clear_memo()
            warm = self._sweep(rec, "warm", self.inputs.points)
            if warm is None:
                continue
            records, _, tiers = warm
            # After a failed cold sweep some points are evaluated again.
            rec.check(
                cold is None or tiers.get(warm_tier) == GRID_POINTS,
                f"warm: {tiers.get(warm_tier)} {warm_tier}, wanted {GRID_POINTS}",
            )
            self._check_reference(rec, "warm", records)
        return None if cold is None else cold[0]

    def _check_reference(self, rec, label, records) -> None:
        rec.check(
            digest(records) == self.reference_digest,
            f"{label}: records are not bit-identical to the reference",
        )

    def _uploads_and_pages(self, rec, ordered, known, grow_order) -> None:
        """Three uploads, each followed by four pages; then read-back.

        ``ordered`` (sorted hashes) supplies the cursors and ``known``
        every hash the store may hold.  Every upload joins ``known`` (a
        failed one may have landed in part); one that succeeded also
        joins ``ordered`` when ``grow_order``, and is read back.
        """
        uploaded = []
        for _ in range(UPLOADS_PER_ROUND):
            batch = self.inputs.synthetic(UPLOAD_RECORDS, "upload")
            known.update(record["hash"] for record in batch)
            with rec.op("upload") as op:
                appended = self._upload(batch)
            if op.ok:
                rec.check(
                    appended == len(batch),
                    f"upload appended {appended} of {len(batch)}",
                )
                uploaded += batch
                if grow_order:
                    for record in batch:
                        insort(ordered, record["hash"])
            cursors = self.inputs.cursors(ordered, PAGES_PER_UPLOAD)
            for cursor in cursors + [self.inputs.repeat(cursors)]:
                with rec.op("page") as op:
                    page, next_cursor = self._page(cursor)
                if not op.ok:
                    continue
                for problem in page_problems(page, cursor, next_cursor, known):
                    rec.check(False, f"page after {cursor[:12]}: {problem}")
        stored = self._store().records_for([record["hash"] for record in uploaded])
        rec.check(
            all(
                record["hash"] in stored
                and canonical(stored[record["hash"]]) == canonical(record)
                for record in uploaded
            ),
            "uploaded records do not read back unchanged",
        )


#: SweepRecord.source -> the served summary's tier key.
_TIER_KEYS = {"evaluated": "evaluated", "memo": "memo_hits", "store": "store_hits"}


class GridLocal(Workload):
    name = "grid_local"
    store: dse.ResultStore

    def _sweep(self, rec, kind, points):
        spec = SweepSpec.from_dict({"points": points})
        items, first = [], None
        with rec.op(kind) as op:
            for item in dse.iter_sweep(spec, store=self.store):
                if first is None:
                    first = time.perf_counter()
                items.append(item)
        if not op.ok:
            return None
        tiers = {"evaluated": 0, "memo_hits": 0, "store_hits": 0}
        for item in items:
            tiers[_TIER_KEYS[item.source]] += 1
        return [item.record for item in items], first - op.start, tiers

    def _upload(self, batch):
        return self.store.append(batch)

    def _page(self, cursor):
        page = list(
            self.store.iter_page(after=cursor, limit=PAGE_RECORDS, version=EVAL_VERSION)
        )
        return page, page[-1]["hash"] if page else None

    def _store(self):
        return self.store

    def round(self, rec: Recorder) -> None:
        directory = self._fresh_directory()
        self.store = dse.ResultStore(directory / "results.jsonl")
        # Warm sweeps forget the memo: a second process over the store.
        points = self.inputs.shuffled(self.inputs.points)
        cold = self._cold_then_warm(rec, points, "store_hits", True)
        if cold is not None:
            self._check_reference(rec, "cold", cold)
        ordered = sorted(self.reference)
        self._uploads_and_pages(rec, ordered, set(ordered), grow_order=True)
        shutil.rmtree(directory)


class _Served(Workload):
    """Rounds driven through one client against an in-process server."""

    server: _Server | None = None

    def _sweep(self, rec, kind, points):
        client = self.server.client
        records, first = [], None
        with rec.op(kind) as op:
            for record in client.submit({"points": points}):
                if first is None:
                    first = time.perf_counter()
                records.append(record)
        if not op.ok:
            return None
        return records, first - op.start, client.last_summary or {}

    def _upload(self, batch):
        return self.server.client.post_records(batch).get("appended")

    def _page(self, cursor):
        page, next_cursor, _ = self.server.client._records_page(cursor, PAGE_RECORDS)
        return page, next_cursor

    def _store(self):
        return self.server.service.store

    def close(self) -> None:
        """Stop the server and delete its store and journal."""
        if self.server is not None:
            self.server.close()
            shutil.rmtree(self.server.directory)
            self.server = None


class GridServed(_Served):
    name = "grid_served"

    def _start(self) -> None:
        self.server = _Server(self._fresh_directory() / "store.sqlite")

    def setup(self) -> None:
        self._prepare()
        self._start()

    def round(self, rec: Recorder) -> None:
        if self.server is None:
            self._start()
        points = self.inputs.shuffled(self.inputs.points)
        cold = self._cold_then_warm(rec, points, "memo_hits", False)
        if cold is not None:
            self._check_reference(rec, "cold", cold)
        ordered = sorted(self.reference)
        self._uploads_and_pages(rec, ordered, set(ordered), grow_order=True)
        self.server.count_page_cache(rec)
        self.close()


class Store100k(_Served):
    name = "store_100k"

    def setup(self) -> None:
        self._prepare()
        path = self._fresh_directory() / "store.sqlite"
        store = SQLiteStore(path)
        self.filled = store.append(self.reference.values())
        hashes = list(self.reference)
        for start in range(len(hashes), STORE_RECORDS, FILL_BATCH):
            size = min(FILL_BATCH, STORE_RECORDS - start)
            batch = self.inputs.synthetic(size, "fill")
            self.filled += store.append(batch)
            hashes += (record["hash"] for record in batch)
        # Cursors come from the set-up records only: every later write
        # adds records, so each still has a full page after it.
        self.ordered = sorted(hashes)
        self.known = set(hashes)
        self.server = _Server(path)

    def check_setup(self, rec: Recorder) -> None:
        super().check_setup(rec)
        rec.check(
            self.filled == STORE_RECORDS,
            f"set-up appended {self.filled} of {STORE_RECORDS} records",
        )

    def round(self, rec: Recorder) -> None:
        points = self.inputs.fresh_grid()
        # Warm sweeps forget the memo, so every point resolves through
        # records_for against the big store.
        cold = self._cold_then_warm(rec, points, "store_hits", True)
        if cold is not None:
            by_hash = {record["hash"]: record for record in cold}
            sample = self.inputs.sample(points, ROUND_ORACLE_SAMPLE)
            bad = oracle_mismatches(sample, by_hash)
            rec.check(not bad, f"cold: {len(bad)} records differ from evaluate_point")
            self.known.update(by_hash)
        else:
            # A failed cold sweep may have persisted some of its points.
            spec = SweepSpec.from_dict({"points": points})
            self.known.update(point.config_hash() for point in spec.points)
        self._uploads_and_pages(rec, self.ordered, self.known, grow_order=False)
        self.server.count_page_cache(rec)


WORKLOADS = {cls.name: cls for cls in (GridLocal, GridServed, Store100k)}
