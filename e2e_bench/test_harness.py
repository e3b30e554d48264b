"""Self-tests for the benchmark harness.

Run from the repository root: ``python3 -m pytest e2e_bench -q``.
"""

import json
import math
import sys

import pytest

from e2e_bench.harness import (
    WORKLOADS,
    Inputs,
    oracle_mismatches,
    page_problems,
    tail_percentile,
)
from e2e_bench.tracing import Tracer, analyse, install, partition, uninstall


def _span(span_id, name, start, end, units=0):
    return (span_id, name, start, end, None, span_id, units)


# -- self-time arithmetic ----------------------------------------------------
def test_nested_spans_charge_children_to_themselves():
    spans = [
        _span(1, "root", 0.0, 10.0),
        _span(2, "child", 1.0, 4.0),
        _span(3, "grandchild", 2.0, 3.0),
        _span(4, "child", 5.0, 7.0),
    ]
    self_time, unattributed = partition([(0.0, 10.0)], spans)
    assert self_time == pytest.approx({1: 5.0, 2: 2.0, 3: 1.0, 4: 2.0})
    assert unattributed == 0.0


def test_uncovered_time_is_unattributed_and_spans_clip_to_windows():
    spans = [_span(1, "a", -1.0, 2.0), _span(2, "b", 4.0, 12.0)]
    self_time, unattributed = partition([(0.0, 5.0), (8.0, 10.0)], spans)
    # a: 0..2; b: 4..5 and 8..10; the rest of both windows is uncovered.
    assert self_time == pytest.approx({1: 2.0, 2: 3.0})
    assert unattributed == pytest.approx(2.0)


def test_interleaved_threads_charge_the_latest_entered_span():
    # A on the client thread, B entered later on a server thread, C
    # nested in A but entered after B: each instant goes to the most
    # recently entered open span, and the shares add up to the window.
    spans = [
        _span(1, "A", 0.0, 10.0),
        _span(2, "B", 3.0, 8.0),
        _span(3, "C", 5.0, 6.0),
    ]
    self_time, unattributed = partition([(0.0, 10.0)], spans)
    assert self_time == pytest.approx({1: 5.0, 2: 4.0, 3: 1.0})
    assert sum(self_time.values()) + unattributed == pytest.approx(10.0)


def test_analyse_counts_only_spans_starting_inside_windows():
    spans = [
        _span(1, "sweep", 1.0, 3.0, (("evaluated", 4), ("job", "j1"))),
        _span(2, "sweep", 6.0, 7.0, (("memo", 2),)),  # outside: not counted
        _span(3, "server.submit", 0.5, 0.8, (("job", "j1"),)),
    ]
    totals = analyse([(0.0, 4.0)], spans)
    assert totals["calls"] == {"sweep": 1, "server.submit": 1}
    assert totals["units"]["sweep"] == {"evaluated": 4}
    assert totals["queue_wait"] == pytest.approx(0.2)
    assert totals["wall"] == 4.0
    attributed = sum(totals["self"].values()) + totals["unattributed"]
    assert attributed == pytest.approx(totals["wall"])


# -- tail percentiles ------------------------------------------------------------
def test_p90_needs_ten_samples_beyond_it():
    assert tail_percentile(range(100), 0.9) == 89
    assert tail_percentile(range(99), 0.9) is None
    assert tail_percentile(range(20), 0.5) == 9
    assert tail_percentile(range(19), 0.5) is None


# -- correctness checks --------------------------------------------------------------
def test_oracle_check_catches_a_one_ulp_perturbation():
    from repro.dse import SweepSpec, evaluate_point

    points = Inputs(seed=3).points[:2]
    records = {}
    for point in SweepSpec.from_dict({"points": points}).points:
        records[point.config_hash()] = evaluate_point(point)
    assert oracle_mismatches(points, records) == []

    victim = next(iter(records))
    metrics = dict(records[victim]["metrics"])
    metrics["total_seconds"] = math.nextafter(metrics["total_seconds"], math.inf)
    records[victim] = {**records[victim], "metrics": metrics}
    assert oracle_mismatches(points, records) == [victim]


def test_page_problems_flag_short_unordered_and_unknown_pages():
    keys = [f"{i:04d}" for i in range(1, 1001)]
    page = [{"hash": key} for key in keys]
    known = set(keys)
    assert page_problems(page, "0000", keys[-1], known) == []
    assert page_problems(page[:-1], "0000", keys[-2], known)
    assert page_problems(page, "0500", keys[-1], known)  # cursor not below
    assert page_problems(page, "0000", keys[-1], known - {"0007"})


def test_inputs_are_a_function_of_the_seed():
    first, again, other = Inputs(5), Inputs(5), Inputs(6)
    assert first.points == again.points != other.points
    assert first.synthetic(3, "x") == again.synthetic(3, "x")
    assert first.fresh_grid() == again.fresh_grid()
    leaders = [other.shuffled(other.points)[0]["workload"] for _ in WORKLOADS]
    assert leaders == list(WORKLOADS)


# -- failed operations -----------------------------------------------------------
def test_a_failed_op_counts_without_a_sample_and_other_errors_propagate():
    from e2e_bench.workloads import Recorder

    rec = Recorder()
    with rec.op("upload") as op:
        raise OSError("store is gone")
    assert (op.ok, rec.attempted, rec.failed, dict(rec.samples)) == (False, 1, 1, {})
    with rec.op("upload") as op:
        pass
    rec.finish()
    assert op.ok and len(rec.samples["upload"]) == 1 and rec.failed == 1
    with pytest.raises(KeyError):
        with rec.op("page"):
            raise KeyError("a bug, not a failed operation")


def test_op_times_are_scaled_by_the_probes_before_them_and_the_next(monkeypatch):
    from e2e_bench import workloads
    from e2e_bench.harness import REFERENCE_PROBE_S

    # The host runs at half the reference speed for the first operation
    # and its probes, then at the reference speed.
    probes = iter([2 * REFERENCE_PROBE_S] * 3 + [REFERENCE_PROBE_S] * 9)
    monkeypatch.setattr(workloads, "host_probe", lambda: next(probes))
    rec = workloads.Recorder()
    for _ in range(2):
        with rec.op("page"):
            pass
    rec.add("first_record", 0.1)
    rec.finish()
    assert rec.speeds == pytest.approx([2 / 3, 1.0])
    assert rec.samples["first_record"] == [0.1]
    slow, fast = rec.samples["page"]
    first, second = [end - start for start, end in rec.windows]
    assert slow == pytest.approx(first * 2 / 3) and fast == pytest.approx(second)


class _FlakyWorkload:
    """Every timed operation kind, instantly; the first upload fails."""

    def __init__(self, work_dir, seed):
        self.uploads = 0

    def setup(self):
        pass

    def check_setup(self, rec):
        pass

    def close(self):
        pass

    def round(self, rec):
        for kind in ("cold", "warm", "upload") + ("page",) * 12:
            with rec.op(kind):
                if kind == "upload":
                    self.uploads += 1
                    if self.uploads == 1:
                        raise OSError("upload refused")
        rec.add("first_record", 1e-3)


def test_a_failing_op_lowers_ok_ops_share_and_the_run_still_prints(
    monkeypatch, capsys
):
    import e2e_bench.run as bench
    from e2e_bench import workloads

    monkeypatch.setitem(workloads.WORKLOADS, "grid_local", _FlakyWorkload)
    monkeypatch.setattr(bench, "SETUP_SECONDS", 0.0)
    args = bench._parse(["--workload", "grid_local", "--seed", "1", "--seconds", "1"])
    assert bench.run(args) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    attempted = result["attempted"]
    assert result["correct"] and result["failed"] == 1
    share = result["metrics"]["ok_ops_share"]["value"]
    assert share == (attempted - 1) / attempted < 1


def test_without_fsync_turns_sync_off_and_restores_connect(tmp_path):
    import sqlite3

    from e2e_bench.workloads import without_fsync

    original = sqlite3.connect
    with without_fsync():
        db = sqlite3.connect(tmp_path / "store.sqlite")
        db.execute("PRAGMA synchronous=FULL")
        assert db.execute("PRAGMA synchronous").fetchone() == (0,)
        db.close()
    assert sqlite3.connect is original


# -- wrapper installation ------------------------------------------------------------
def _owners():
    from repro.dse.spec import SweepPoint, SweepSpec
    from repro.dse.sqlite_store import SQLiteStore
    from repro.dse.store import ResultStore, ResultStoreBase
    from repro.serve.client import ServeClient
    from repro.serve.journal import JobJournal
    from repro.serve.server import SweepService

    owners = [m for n, m in sys.modules.items() if n.split(".")[0] == "repro" and m]
    owners += [
        SweepPoint,
        SweepSpec,
        SQLiteStore,
        ResultStore,
        ResultStoreBase,
        ServeClient,
        JobJournal,
        SweepService,
    ]
    return owners


def _attributes(owners):
    return {
        (id(owner), key): value
        for owner in owners
        for key, value in vars(owner).items()
    }


def test_uninstall_restores_every_attribute():
    import repro.dse as dse
    import repro.serve.server as server
    from repro.dse import engine
    from repro.dse.spec import SweepSpec

    owners = _owners()
    before = _attributes(owners)
    original = engine.iter_sweep
    tracer = Tracer()
    saved = install(tracer)
    try:
        assert engine.iter_sweep is not original
        assert dse.iter_sweep is engine.iter_sweep is server.iter_sweep
        SweepSpec.from_dict({"points": Inputs(1).points[:1]})
    finally:
        uninstall(saved)
    assert [span[1] for span in tracer.spans] == ["spec.from_dict"]
    after = _attributes(owners)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
