"""Spans recorded from outside the program, and their per-layer split.

The traced run wraps the public entry points of each layer -- module
functions, class methods, the streaming appender's write callable --
with timing wrappers installed on the ``repro.*`` modules and classes
and removed afterwards.  Nothing under ``src/`` changes: the wrappers
only see calls that cross a module attribute, so work inside
``iter_sweep`` shows up as the layers it calls, never as its own
sub-phases.

Every wrapped call becomes one span ``(id, name, start, end, parent,
request, units)`` kept in memory -- tuples of atoms, which the garbage
collector stops tracking, so a long trace does not slow collections.
``parent`` is the enclosing span on the same thread; a span opened on a
server thread with nothing open above it takes the client call that is
waiting on it as its parent, and inherits that call's request id.

:func:`partition` turns spans into self times.  Inside the measured
windows every instant is charged to exactly one span -- the most
recently entered one still open -- or to "unattributed" when none is.
On one thread that is the span's duration minus the part its children
cover; with client and server threads interleaving, the most recent
entry wins.  Self times plus unattributed time therefore add up to the
window time exactly.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import sys
import threading
import time
from bisect import bisect_right
from contextlib import contextmanager

__all__ = ["Tracer", "install", "uninstall", "partition", "analyse"]

# Span record fields.
ID, NAME, START, END, PARENT, REQUEST, UNITS = range(7)


class Tracer:
    """Thread-safe in-memory span recorder."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: (span id, request id) of the open client call; server-thread
        #: spans with no parent on their own thread hang under it.
        self.client_span: tuple[int, int] | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str, client: bool = False) -> list:
        stack = self._stack()
        span_id = next(self._ids)
        if stack:
            parent, request = stack[-1]
        elif self.client_span is not None and not client:
            parent, request = self.client_span
        else:
            parent, request = None, span_id
        stack.append((span_id, request))
        if client:
            self.client_span = (span_id, request)
        return [span_id, name, time.perf_counter(), None, parent, request, 0]

    def exit(self, record: list, units=0, client: bool = False) -> None:
        """Close ``record``; ``units`` is a count or a ``{key: count}`` dict."""
        record[END] = time.perf_counter()
        if isinstance(units, dict):
            units = tuple(sorted(units.items()))
        record[UNITS] = units
        self._stack().pop()
        if client:
            self.client_span = None
        self.spans.append(tuple(record))


# -- wrappers ------------------------------------------------------------
def _wrap_call(tracer: Tracer, name: str, fn, units=None, client=False):
    """Time every call of ``fn``; ``units(args, kwargs, result)`` counts work."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        record = tracer.enter(name, client)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.exit(
                record,
                units(args, kwargs, result) if units is not None else 0,
                client,
            )

    return wrapper


def _wrap_gen(tracer: Tracer, name: str, fn, on_item=None, client=False):
    """Time a generator from its first item to exhaustion or close.

    ``units`` is the number of items yielded, or the dict
    ``on_item(units, item, args, kwargs)`` builds.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        record = tracer.enter(name, client)
        units = {} if on_item is not None else 0
        inner = fn(*args, **kwargs)
        try:
            for item in inner:
                if on_item is None:
                    units += 1
                else:
                    on_item(units, item, args, kwargs)
                yield item
        finally:
            inner.close()
            tracer.exit(record, units, client)

    return wrapper


def _length(position: int, keyword: str):
    def units(args, kwargs, result):
        value = kwargs[keyword] if keyword in kwargs else args[position]
        return len(value)

    return units


def _count_tier(units: dict, item, args, kwargs) -> None:
    units[item.source] = units.get(item.source, 0) + 1
    cancel = kwargs.get("should_cancel")
    job = getattr(cancel, "__self__", None)
    if job is not None:
        units["job"] = job.id


def _appender(tracer: Tracer, original):
    @contextmanager
    def appender(self):
        with original(self) as write:
            yield _wrap_call(tracer, "store.appender_write", write)

    functools.update_wrapper(appender, original)
    return appender


def _class_patches(tracer: Tracer) -> list[tuple[object, str, object]]:
    from repro.dse.spec import SweepPoint, SweepSpec
    from repro.dse.sqlite_store import SQLiteStore
    from repro.dse.store import ResultStore, ResultStoreBase
    from repro.serve.client import ServeClient
    from repro.serve.journal import JobJournal
    from repro.serve.server import SweepService

    patches = [
        (
            SweepSpec,
            "from_dict",
            classmethod(
                _wrap_call(
                    tracer, "spec.from_dict", vars(SweepSpec)["from_dict"].__func__
                )
            ),
        ),
        (
            SweepPoint,
            "config_hash",
            _wrap_call(tracer, "spec.config_hash", SweepPoint.config_hash),
        ),
        (
            SweepService,
            "submit",
            _wrap_call(
                tracer,
                "server.submit",
                SweepService.submit,
                units=lambda args, kwargs, job: {"job": job.id} if job else 0,
            ),
        ),
        (
            SweepService,
            "ingest",
            _wrap_call(tracer, "server.ingest", SweepService.ingest),
        ),
        (
            SweepService,
            "record_page_stream",
            _wrap_gen(
                tracer, "server.record_page_stream", SweepService.record_page_stream
            ),
        ),
        (
            ServeClient,
            "submit",
            _wrap_gen(tracer, "client.sweep", ServeClient.submit, client=True),
        ),
        (
            ServeClient,
            "_records_page",
            _wrap_call(
                tracer, "client.records_page", ServeClient._records_page, client=True
            ),
        ),
        (
            ServeClient,
            "post_records",
            _wrap_call(
                tracer, "client.post_records", ServeClient.post_records, client=True
            ),
        ),
    ]
    for store_class in (ResultStore, SQLiteStore):
        patches += [
            (
                store_class,
                "append",
                _wrap_call(
                    tracer,
                    "store.append",
                    store_class.append,
                    units=_length(1, "records"),
                ),
            ),
            (store_class, "appender", _appender(tracer, store_class.appender)),
            (store_class, "iter_page", _wrap_gen(
                tracer, "store.iter_page", store_class.iter_page
            )),
        ]
    for store_class in (ResultStoreBase, SQLiteStore):
        patches.append(
            (
                store_class,
                "records_for",
                _wrap_call(
                    tracer,
                    "store.records_for",
                    vars(store_class)["records_for"],
                    units=_length(1, "hashes"),
                ),
            )
        )
    for method in (
        "record_submit",
        "record_transition",
        "record_lease",
        "record_merged",
        "evict",
        "mark_clean_shutdown",
        "set_recovery_info",
    ):
        patches.append(
            (
                JobJournal,
                method,
                _wrap_call(tracer, "journal.write", vars(JobJournal)[method]),
            )
        )
    return patches


def _function_patches(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Rebind module-level functions in every ``repro.*`` module that
    imported them by name (``from .engine import iter_sweep``)."""
    from repro.dse import engine, evaluate
    from repro.sim import lowered

    wrapped = {
        engine.iter_sweep: _wrap_gen(
            tracer, "engine.iter_sweep", engine.iter_sweep, on_item=_count_tier
        ),
        evaluate.evaluate_points: _wrap_call(
            tracer, "evaluate.evaluate_points", evaluate.evaluate_points
        ),
        lowered.lower_network: _wrap_call(
            tracer, "lowered.lower_network", lowered.lower_network
        ),
        lowered.evaluate_lowered_many: _wrap_call(
            tracer,
            "lowered.evaluate_lowered_many",
            lowered.evaluate_lowered_many,
            units=_length(1, "points"),
        ),
    }
    by_id = {id(original): wrapper for original, wrapper in wrapped.items()}
    patches = []
    for module_name, module in sorted(sys.modules.items()):
        if module is None or not (
            module_name == "repro" or module_name.startswith("repro.")
        ):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in by_id:
                patches.append((module, attr, by_id[id(value)]))
    return patches


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Install every layer wrapper; returns what :func:`uninstall` restores."""
    saved = []
    for owner, attr, replacement in _class_patches(tracer) + _function_patches(
        tracer
    ):
        saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)
    return saved


def uninstall(saved: list[tuple[object, str, object]]) -> None:
    """Put back the original attributes, last patched first."""
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


# -- analysis --------------------------------------------------------------
def partition(
    windows: list[tuple[float, float]], spans: list[tuple]
) -> tuple[dict[int, float], float]:
    """Self time per span id, and the unattributed time, inside ``windows``.

    ``windows`` are sorted, disjoint ``(start, end)`` intervals.  Each
    span is clipped to the windows; each instant of a window goes to the
    open span entered last (ties to the higher id), or to unattributed.
    The returned self times plus unattributed sum to the window time.
    """
    starts = [start for start, _ in windows]
    # One segment per (span, window) overlap; a span crossing a window
    # boundary re-opens in the next window as a new segment.
    segments: list[tuple[float, int]] = []  # (entered, span id)
    events: list[tuple[float, int, int]] = []  # (time, open?, segment)
    for span in spans:
        index = bisect_right(starts, span[START]) - 1
        for window_start, window_end in windows[max(index, 0):]:
            if window_start >= span[END]:
                break
            lo, hi = max(span[START], window_start), min(span[END], window_end)
            if hi > lo:
                # Order by time; at equal times close before open so a
                # zero-length handover charges nothing to either.
                events.append((lo, 1, len(segments)))
                events.append((hi, 0, len(segments)))
                segments.append((span[START], span[ID]))
    events.sort()
    self_time: dict[int, float] = {}
    unattributed = 0.0
    active: list[tuple[float, int, int]] = []  # max-heap on (entered, id)
    closed: set[int] = set()
    position = 0
    for window_start, window_end in windows:
        cursor = window_start
        while position < len(events) and events[position][0] <= window_end:
            when, opening, segment = events[position]
            while active and active[0][2] in closed:
                heapq.heappop(active)
            if when > cursor:
                if active:
                    top = -active[0][1]
                    self_time[top] = self_time.get(top, 0.0) + (when - cursor)
                else:
                    unattributed += when - cursor
                cursor = when
            if opening:
                entered, span_id = segments[segment]
                heapq.heappush(active, (-entered, -span_id, segment))
            else:
                closed.add(segment)
            position += 1
        while active and active[0][2] in closed:
            heapq.heappop(active)
        if window_end > cursor:
            unattributed += window_end - cursor
    return self_time, unattributed


def analyse(windows: list[tuple[float, float]], spans: list[tuple]) -> dict:
    """Per-name totals over the measured ``windows``.

    ``self`` is each name's share of :func:`partition`; ``inclusive``,
    ``calls`` and ``units`` count the spans that start inside a window.
    ``units`` is a number, or a ``{key: n}`` dict for spans that count
    several things (recorded as ``((key, n), ...)``).  ``queue_wait``
    adds up, per job, the gap from ``server.submit`` returning to
    ``engine.iter_sweep`` starting on the job thread.  ``wall`` is the
    total window time.
    """
    windows = sorted(windows)
    starts = [start for start, _ in windows]
    self_time, unattributed = partition(windows, spans)
    totals: dict = {"self": {}, "inclusive": {}, "calls": {}, "units": {}}
    submitted: dict[str, float] = {}
    started: dict[str, float] = {}
    for span in spans:
        name = span[NAME]
        totals["self"][name] = totals["self"].get(name, 0.0) + self_time.get(
            span[ID], 0.0
        )
        index = bisect_right(starts, span[START]) - 1
        if index < 0 or span[START] >= windows[index][1]:
            continue
        totals["inclusive"][name] = (
            totals["inclusive"].get(name, 0.0) + span[END] - span[START]
        )
        totals["calls"][name] = totals["calls"].get(name, 0) + 1
        units = span[UNITS]
        if not isinstance(units, tuple):
            totals["units"][name] = totals["units"].get(name, 0) + units
            continue
        merged = totals["units"].setdefault(name, {})
        for key, value in units:
            if key != "job":
                merged[key] = merged.get(key, 0) + value
            elif name == "server.submit":
                submitted[value] = span[END]
            else:
                started[value] = span[START]
    totals["unattributed"] = unattributed
    totals["wall"] = sum(end - start for start, end in windows)
    totals["queue_wait"] = sum(
        started[job] - submitted[job] for job in started if job in submitted
    )
    return totals
