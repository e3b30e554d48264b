"""Tests for the sweep engine: caching tiers, dedup, vectorized chunk
evaluation, and the streaming ``iter_sweep`` API the batch API is built
on."""

import pytest

from repro.dse import (
    EVAL_VERSION,
    ResultStore,
    SweepPoint,
    SweepSpec,
    clear_memo,
    evaluate_point,
    iter_sweep,
    run_sweep,
)
from repro.dse.sqlite_store import SQLiteStore
from repro.hw import BPVEC, DDR4, HBM2, scaled_memory


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_memo()
    yield
    clear_memo()


def _points(*workloads, platform=BPVEC, memory=DDR4, batch=1):
    return [
        SweepPoint(workload=w, platform=platform, memory=memory, batch=batch)
        for w in workloads
    ]


class TestRunSweep:
    def test_records_in_point_order(self):
        points = _points("LSTM", "RNN") + _points("LSTM", memory=HBM2)
        result = run_sweep(points)
        assert [r["workload"] for r in result.records] == ["LSTM", "RNN", "LSTM"]
        assert [r["memory"] for r in result.records] == ["DDR4", "DDR4", "HBM2"]

    def test_accepts_spec_and_iterable(self):
        spec = SweepSpec.grid(
            workloads=("LSTM",), platforms=("bpvec",), memories=("ddr4",)
        )
        assert run_sweep(spec).records == run_sweep(list(spec.points)).records

    def test_duplicates_evaluated_once(self):
        points = _points("LSTM", "LSTM", "LSTM")
        result = run_sweep(points)
        assert result.evaluated == 1
        assert len(result.records) == 3
        assert result.records[0] is result.records[1] is result.records[2]

    def test_memo_hit_on_second_run(self):
        points = _points("LSTM")
        first = run_sweep(points)
        second = run_sweep(points)
        assert first.evaluated == 1
        assert (second.evaluated, second.from_memo) == (0, 1)
        assert second.records == first.records

    def test_store_warm_skip(self, tmp_path):
        store = tmp_path / "s.jsonl"
        points = _points("LSTM", "RNN")
        cold = run_sweep(points, store=store)
        clear_memo()
        warm = run_sweep(points, store=store)
        assert cold.evaluated == 2
        assert (warm.evaluated, warm.from_store) == (0, 2)
        assert warm.records == cold.records  # bit-identical through JSON

    def test_memo_hits_still_persisted_to_store(self, tmp_path):
        """A sweep warmed by the memo must still fill a fresh store."""
        points = _points("LSTM")
        run_sweep(points)  # memo only, no store
        store = ResultStore(tmp_path / "s.jsonl")
        result = run_sweep(points, store=store)
        assert result.from_memo == 1
        assert len(store) == 1
        clear_memo()
        warm = run_sweep(points, store=store)
        assert (warm.evaluated, warm.from_store) == (0, 1)

    def test_store_extends_incrementally(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        run_sweep(_points("LSTM"), store=store)
        clear_memo()
        result = run_sweep(_points("LSTM", "RNN"), store=store)
        assert result.evaluated == 1
        assert result.from_store == 1
        assert len(store) == 2

    def test_stale_version_reevaluated(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        (point,) = _points("LSTM")
        record = dict(evaluate_point(point), version=EVAL_VERSION - 1)
        store.append([record])
        result = run_sweep([point], store=store)
        assert result.evaluated == 1
        assert store.load()[point.config_hash()]["version"] == EVAL_VERSION

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            run_sweep([])

    def test_summary_mentions_tiers(self):
        result = run_sweep(_points("LSTM"))
        text = result.summary()
        assert "evaluated" in text and "store" in text and "memo" in text
        assert result.unique_points == 1


class TestRecords:
    def test_asic_record_shape(self):
        (record,) = run_sweep(_points("LSTM")).records
        assert record["kind"] == "asic"
        assert record["platform"] == "BPVeC"
        assert record["memory"] == "DDR4"
        assert record["version"] == EVAL_VERSION
        for key in (
            "total_cycles",
            "total_seconds",
            "total_energy_pj",
            "total_energy_j",
            "perf_per_watt",
            "memory_bound_fraction",
        ):
            assert key in record["metrics"]

    def test_gpu_record_shape(self):
        from repro.baselines.gpu import RTX_2080_TI

        point = SweepPoint(
            workload="LSTM", gpu=RTX_2080_TI, gpu_precision=4, batch=1
        )
        (record,) = run_sweep([point]).records
        assert record["kind"] == "gpu"
        assert record["platform"] == "RTX 2080 TI"
        assert record["memory"] is None
        for key in ("total_seconds", "total_energy_j", "perf_per_watt"):
            assert key in record["metrics"]

    def test_record_matches_direct_simulation(self):
        from repro.dse import build_network, resolve_policy
        from repro.sim import simulate_network

        (record,) = run_sweep(_points("RNN", batch=4)).records
        net = build_network("RNN", batch=4)
        resolve_policy("homogeneous-8bit")(net)
        direct = simulate_network(net, BPVEC, DDR4)
        assert record["metrics"]["total_seconds"] == direct.total_seconds
        assert record["metrics"]["total_energy_pj"] == direct.total_energy_pj
        assert record["metrics"]["perf_per_watt"] == direct.perf_per_watt


class TestIterSweep:
    def test_yields_every_unique_record_of_run_sweep(self):
        points = _points("LSTM", "RNN", "LSTM") + _points("LSTM", memory=HBM2)
        batch = run_sweep(points)
        by_hash = {r["hash"]: r for r in batch.records}
        clear_memo()
        streamed = list(iter_sweep(points))
        assert len(streamed) == 3  # unique configs only
        assert {sr.hash for sr in streamed} == set(by_hash)
        assert all(sr.record == by_hash[sr.hash] for sr in streamed)

    def test_cache_hits_stream_before_cold_evaluations(self):
        warm_points = _points("LSTM")
        run_sweep(warm_points)  # prime the memo
        sources = [
            sr.source for sr in iter_sweep(warm_points + _points("RNN"))
        ]
        assert sources == ["memo", "evaluated"]

    def test_store_hits_stream_first(self, tmp_path):
        store = tmp_path / "s.jsonl"
        run_sweep(_points("LSTM"), store=store)
        clear_memo()
        sources = [
            sr.source
            for sr in iter_sweep(_points("RNN", "LSTM"), store=store)
        ]
        assert sources == ["store", "evaluated"]

    def test_indices_point_at_first_occurrence(self):
        points = _points("LSTM", "LSTM", "RNN")
        indices = {sr.record["workload"]: sr.index for sr in iter_sweep(points)}
        assert indices == {"LSTM": 0, "RNN": 2}

    def test_records_appended_to_store_as_they_complete(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        stream = iter_sweep(_points("LSTM", "RNN"), store=store)
        next(stream)
        assert len(store) == 1  # first record persisted before the second runs
        stream.close()  # abandoning the stream keeps what finished
        assert len(store) == 1
        clear_memo()
        warm = run_sweep(_points("LSTM", "RNN"), store=store)
        assert (warm.evaluated, warm.from_store) == (1, 1)

    def test_empty_sweep_streams_nothing(self):
        assert list(iter_sweep([])) == []
        assert list(iter_sweep(SweepSpec(points=()))) == []

class TestShardedRuns:
    def test_two_shard_run_merges_to_unsharded_result(self, tmp_path):
        spec = SweepSpec.grid(
            workloads=("LSTM", "RNN"),
            platforms=("tpu", "bpvec"),
            memories=("ddr4", "hbm2"),
            batches=(1, 2),
        )
        single = ResultStore(tmp_path / "single.jsonl")
        full = run_sweep(spec, store=single)

        shard_paths = []
        for index in range(2):
            clear_memo()  # each shard behaves like its own machine
            shard = spec.shard(index, 2)
            path = tmp_path / f"shard{index}.jsonl"
            result = run_sweep(shard, store=path)
            assert result.evaluated == len(shard)
            shard_paths.append(path)

        merged = ResultStore(tmp_path / "merged.jsonl")
        merged.merge(shard_paths)
        assert merged.load() == single.load()

        from repro.dse import pareto_frontier

        merged_front = pareto_frontier(list(merged.load().values()))
        single_front = pareto_frontier(list(single.load().values()))
        assert {r["hash"] for r in merged_front} == {
            r["hash"] for r in single_front
        }

        clear_memo()
        warm = run_sweep(spec, store=merged)
        assert (warm.evaluated, warm.from_store) == (0, len(spec))
        assert warm.records == full.records


class TestVectorizedEvaluation:
    """Vectorized chunks agree bit-for-bit with the scalar oracle."""

    def _grid(self):
        return SweepSpec.grid(
            workloads=("AlexNet", "RNN", "LSTM"),
            platforms=("tpu", "bpvec"),
            memories=("ddr4", "hbm2"),
            policies=("homogeneous-8bit", "paper-heterogeneous"),
            batches=(1, 4),
        )

    def test_records_match_scalar_oracle(self):
        spec = self._grid()
        vectorized = run_sweep(spec)
        clear_memo()
        scalar = [evaluate_point(point) for point in spec.points]
        assert vectorized.records == scalar
        assert vectorized.evaluated == len(spec)

    def test_chunks_respect_chunk_size(self):
        spec = self._grid()
        result = run_sweep(spec, chunk_size=1)
        clear_memo()
        default = run_sweep(spec)
        assert result.records == default.records

    def test_mixed_gpu_and_asic_chunk(self):
        from repro.dse import resolve_gpu

        points = _points("LSTM", "RNN")
        points.insert(1, SweepPoint(workload="LSTM", gpu=resolve_gpu("rtx-2080-ti")))
        result = run_sweep(points)
        assert [r["kind"] for r in result.records] == ["asic", "gpu", "asic"]
        for point, record in zip(points, result.records):
            assert record == evaluate_point(point)

class TestShouldCancel:
    """Cooperative cancellation: the hook behind POST /jobs/{id}/cancel."""

    def test_cancelled_before_start_yields_nothing(self):
        run_sweep(_points("LSTM"))  # even a warm memo must not leak out
        stream = iter_sweep(_points("LSTM"), should_cancel=lambda: True)
        assert list(stream) == []

    def test_cancel_after_first_record_keeps_only_it(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        yielded = []
        stream = iter_sweep(
            _points("LSTM", "RNN"),
            store=store,
            should_cancel=lambda: len(yielded) >= 1,
        )
        for sweep_record in stream:
            yielded.append(sweep_record)
        assert len(yielded) == 1
        # The one yielded record is fully persisted; nothing half-done
        # follows it -- cancel lands exactly on a record boundary.
        assert set(store.load()) == {yielded[0].hash}

    def test_uncancelled_hook_changes_nothing(self):
        points = _points("LSTM", "RNN")
        plain = [sr.record for sr in iter_sweep(points)]
        clear_memo()
        hooked = [
            sr.record
            for sr in iter_sweep(points, should_cancel=lambda: False)
        ]
        assert hooked == plain



class TestGroupCommit:
    """The durability boundary is the evaluated chunk, not the record."""

    # 6 workloads x 3 platforms x 4 memories x 2 policies x 7 batches:
    # 84 lowered-workload chunks of 12 points each.
    SPEC = SweepSpec.grid(
        workloads=("AlexNet", "Inception-v1", "ResNet-18", "ResNet-50", "RNN", "LSTM"),
        platforms=("tpu", "bitfusion", "bpvec"),
        memories=(DDR4, HBM2, scaled_memory(DDR4, 64), scaled_memory(HBM2, 512)),
        policies=("homogeneous-8bit", "paper-heterogeneous"),
        batches=(1, 2, 4, 8, 16, 32, 64),
    )
    CHUNKS = 84

    def test_sqlite_commits_one_transaction_per_chunk(self, tmp_path, monkeypatch):
        assert len(self.SPEC) == 1008
        plain = run_sweep(self.SPEC)
        clear_memo()
        statements = []
        connect = SQLiteStore._connect

        def traced(store):
            db = connect(store)
            db.set_trace_callback(statements.append)
            return db

        monkeypatch.setattr(SQLiteStore, "_connect", traced)
        store = SQLiteStore(tmp_path / "s.sqlite")
        stored = run_sweep(self.SPEC, store=store)
        commits = [sql for sql in statements if sql.strip().upper() == "COMMIT"]
        assert len(commits) == self.CHUNKS
        # Bit-identical to the storeless run, streamed and stored.
        assert stored.records == plain.records
        assert store.load() == {r["hash"]: r for r in plain.records}

    def test_jsonl_flushes_once_per_chunk(self, tmp_path, monkeypatch):
        plain = run_sweep(self.SPEC)
        clear_memo()
        flushes = []
        open_append = ResultStore._open_append

        def counted(store):
            handle = open_append(store)
            flush = handle.flush
            handle.flush = lambda: (flushes.append(1), flush())
            return handle

        monkeypatch.setattr(ResultStore, "_open_append", counted)
        store = ResultStore(tmp_path / "s.jsonl")
        stored = run_sweep(self.SPEC, store=store)
        assert len(flushes) == self.CHUNKS + 1  # close() flushes too
        assert stored.records == plain.records
        assert store.load() == {r["hash"]: r for r in plain.records}

    def test_whole_chunk_is_durable_before_its_first_record(self, tmp_path):
        store = SQLiteStore(tmp_path / "s.sqlite")
        points = [
            SweepPoint(workload="LSTM", platform=BPVEC, memory=memory)
            for memory in (DDR4, HBM2, scaled_memory(DDR4, 64))
        ]
        stream = iter_sweep(points, store=store)
        assert next(stream).source == "evaluated"
        assert len(store) == len(points)  # one chunk, committed whole
        stream.close()
