"""DSE engine at scale: a 1000+-point sweep, cold vs warm store.

The acceptance bar for the engine: evaluate a >= 1000-point design-space
sweep, persist it to the JSONL result store, and show that re-running
the identical sweep against the warm store is at least 5x faster than
the cold run (in practice it is orders of magnitude faster -- the warm
path is pure hashing plus one JSONL load, no simulation).
"""

import time

from repro.dse import SweepSpec, clear_memo, pareto_frontier, run_sweep
from repro.hw import DDR4, HBM2, scaled_memory
from repro.sim import format_table

# 6 workloads x 3 platforms x 4 memories x 2 policies x 7 batches = 1008.
MEMORIES = (
    DDR4,
    HBM2,
    scaled_memory(DDR4, 64),
    scaled_memory(HBM2, 512),
)
POLICIES = ("homogeneous-8bit", "paper-heterogeneous")
BATCHES = (1, 2, 4, 8, 16, 32, 64)


def _sweep_spec() -> SweepSpec:
    return SweepSpec.grid(
        workloads=(
            "AlexNet", "Inception-v1", "ResNet-18", "ResNet-50", "RNN", "LSTM"
        ),
        platforms=("tpu", "bitfusion", "bpvec"),
        memories=MEMORIES,
        policies=POLICIES,
        batches=BATCHES,
    )


def test_dse_engine_cold_vs_warm(benchmark, show, tmp_path):
    spec = _sweep_spec()
    assert len(spec) >= 1000

    store = tmp_path / "dse-results.jsonl"
    clear_memo()
    t0 = time.perf_counter()
    cold = run_sweep(spec, store=store)
    cold_seconds = time.perf_counter() - t0
    assert cold.evaluated == len(spec)

    def warm_run():
        clear_memo()  # only the persistent store may serve hits
        return run_sweep(spec, store=store)

    warm = benchmark(warm_run)
    assert warm.evaluated == 0
    assert warm.from_store == len(spec)
    assert warm.records == cold.records  # bit-identical through the store

    t0 = time.perf_counter()
    warm_run()
    warm_seconds = time.perf_counter() - t0
    speedup = cold_seconds / warm_seconds
    assert speedup >= 5.0, (
        f"warm store run only {speedup:.1f}x faster than cold "
        f"({cold_seconds:.2f}s vs {warm_seconds:.2f}s)"
    )

    frontier = pareto_frontier(cold.records)
    show(
        f"DSE engine: {len(spec)}-point sweep, cold {cold_seconds * 1e3:.0f} ms "
        f"vs warm {warm_seconds * 1e3:.0f} ms ({speedup:.0f}x); "
        f"Pareto frontier {len(frontier)} points",
        format_table(
            ["Workload", "Platform", "Memory", "Policy", "Batch", "Time (ms)"],
            [
                (
                    r["workload"], r["platform"], r["memory"], r["policy"],
                    r["batch"], r["metrics"]["total_seconds"] * 1e3,
                )
                for r in frontier
            ],
        ),
    )
    benchmark.extra_info["points"] = len(spec)
    benchmark.extra_info["cold_seconds"] = round(cold_seconds, 3)
    benchmark.extra_info["warm_vs_cold_speedup"] = round(speedup, 1)
