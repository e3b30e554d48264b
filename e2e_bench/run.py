"""End-to-end sweep benchmark: one workload, one seed, one JSON result.

Run from the repository root::

    python3 e2e_bench/run.py --workload grid_local --seed 1 --seconds 30 --trace 0

``--trace 0`` sets the workload up at least three times (``setup_s`` is
the median), measures rounds for ``--seconds`` (and at least enough
rounds for a page p90), and prints the end-to-end metrics, timings
scaled to a reference host speed.  ``--trace 1`` sets up once, measures
an untraced phase and then a traced phase of the same length, prints
the per-layer metrics and writes the spans to
``e2e_bench/traces/<workload>.jsonl``.  The last line of standard
output is the JSON result; the exit code is 0 only when every check
passed.  See README.md in this directory for the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: Set-ups per untraced run: at least 3, and until 2 s have been spent,
#: so a cheap set-up is timed often enough for a steady median.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
#: Host probes before and after each set-up, for its speed factor.
SETUP_PROBES = 10
#: 9 rounds x 12 pages: at least 10 pages lie beyond the p90.  The
#: peak resident size is the median of the first this many rounds' own
#: peaks, so it measures a fixed amount of work: store_100k's server
#: keeps its finished jobs (up to the default retention of 1000), which
#: grows it every round.
MIN_ROUNDS = 9

E2E_UNITS = {
    "setup_s": "s",
    "cold_points_per_s": "points/s",
    "warm_points_per_s": "points/s",
    "first_record_ms": "ms",
    "ingest_records_per_s": "records/s",
    "page_p50_ms": "ms",
    "page_p90_ms": "ms",
    "ok_ops_share": "share",
    "peak_rss_mb": "MiB",
}
#: The end-to-end metrics a traced run compares with its untraced phase.
OVERHEAD_METRICS = (
    "cold_points_per_s",
    "warm_points_per_s",
    "first_record_ms",
    "ingest_records_per_s",
    "page_p50_ms",
    "page_p90_ms",
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("grid_local", "grid_served", "store_100k")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def _measure(workload, rec, seconds: int) -> float:
    """Run rounds; return the median, over the first :data:`MIN_ROUNDS`
    rounds, of each round's peak resident size in MiB."""
    deadline = time.perf_counter() + seconds
    peaks = []
    while rec.rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        _reset_peak_rss()
        workload.round(rec)
        rec.rounds += 1
        if rec.rounds <= MIN_ROUNDS:
            peaks.append(_peak_rss_mb())
    rec.finish()
    return median(peaks)


def _reset_peak_rss() -> None:
    """Restart the process's peak resident size from its current size."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def _peak_rss_mb() -> float:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("/proc/self/status has no VmHWM")


def _end_to_end(
    rec, setups: list[float], peak_rss_mb: float
) -> dict[str, tuple[float, int]]:
    """``{name: (value, samples)}`` for one measured phase.

    Timings are in reference-host seconds (README.md, Noise): the
    recorder scaled each operation's, and ``setups`` are scaled already.
    """
    from e2e_bench.harness import GRID_POINTS, UPLOAD_RECORDS, tail_percentile

    s = rec.samples
    empty = [kind for kind in ("cold", "warm", "upload", "page") if not s[kind]]
    if empty:
        raise RuntimeError(f"no {', '.join(empty)} operation succeeded")
    p90 = tail_percentile(s["page"], 0.9)
    if p90 is None:
        raise RuntimeError(f"{len(s['page'])} pages are too few for a p90")
    values = {
        "cold_points_per_s": (GRID_POINTS / median(s["cold"]), len(s["cold"])),
        "warm_points_per_s": (GRID_POINTS / median(s["warm"]), len(s["warm"])),
        "first_record_ms": (
            1e3 * median(s["first_record"]),
            len(s["first_record"]),
        ),
        "ingest_records_per_s": (
            UPLOAD_RECORDS / median(s["upload"]),
            len(s["upload"]),
        ),
        "page_p50_ms": (1e3 * median(s["page"]), len(s["page"])),
        "page_p90_ms": (1e3 * p90, len(s["page"])),
        "ok_ops_share": ((rec.attempted - rec.failed) / rec.attempted, rec.attempted),
        "peak_rss_mb": (peak_rss_mb, 1),
    }
    if setups:
        values["setup_s"] = (median(setups), len(setups))
    return values


def _per_layer(rec, tracer, traced, untraced) -> dict[str, float]:
    from e2e_bench.tracing import analyse

    totals = analyse(rec.windows, tracer.spans)
    rounds = rec.rounds

    def self_s(name):
        return totals["self"].get(name, 0.0) / rounds

    def calls(name):
        return totals["calls"].get(name, 0) / rounds

    def units(name, key=None):
        value = totals["units"].get(name, {} if key else 0)
        return (value.get(key, 0) if key else value) / rounds

    def ratio(part, whole):
        return part / whole if whole else 0.0

    counters = rec.counters
    metrics = {
        "spec.from_dict_s": self_s("spec.from_dict"),
        "spec.config_hash_s": self_s("spec.config_hash"),
        "spec.config_hash_calls": calls("spec.config_hash"),
        "lowered.lower_network_s": self_s("lowered.lower_network"),
        "lowered.lower_network_calls": calls("lowered.lower_network"),
        "lowered.evaluate_lowered_many_s": self_s("lowered.evaluate_lowered_many"),
        "lowered.evaluate_lowered_many_calls": calls("lowered.evaluate_lowered_many"),
        "lowered.points_per_call": ratio(
            units("lowered.evaluate_lowered_many"),
            calls("lowered.evaluate_lowered_many"),
        ),
        "evaluate.evaluate_points_s": self_s("evaluate.evaluate_points"),
        "evaluate.evaluate_points_calls": calls("evaluate.evaluate_points"),
        "evaluate.lowered_for_hit_ratio": ratio(
            counters["lowered_for_hits"],
            counters["lowered_for_hits"] + counters["lowered_for_misses"],
        ),
        "store.appender_write_s": self_s("store.appender_write"),
        "store.appender_writes": calls("store.appender_write"),
        "store.append_s": self_s("store.append"),
        "store.append_records": units("store.append"),
        "store.records_for_s": self_s("store.records_for"),
        "store.records_for_hashes": units("store.records_for"),
        "store.iter_page_s": self_s("store.iter_page"),
        "store.iter_page_records": units("store.iter_page"),
        "engine.iter_sweep_self_s": self_s("engine.iter_sweep"),
        "engine.memo_hits": units("engine.iter_sweep", "memo"),
        "engine.store_hits": units("engine.iter_sweep", "store"),
        "engine.evaluated": units("engine.iter_sweep", "evaluated"),
        "server.submit_s": self_s("server.submit"),
        "server.ingest_s": self_s("server.ingest"),
        "server.record_page_stream_s": self_s("server.record_page_stream"),
        "jobs.queue_wait_s": totals["queue_wait"] / rounds,
        "journal.write_s": self_s("journal.write"),
        "journal.writes": calls("journal.write"),
        "cache.page_hit_ratio": ratio(
            counters["page_cache_hits"],
            counters["page_cache_hits"] + counters["page_cache_misses"],
        ),
        "client.sweep_s": totals["inclusive"].get("client.sweep", 0.0) / rounds,
        "client.records_page_s": (
            totals["inclusive"].get("client.records_page", 0.0) / rounds
        ),
        "client.post_records_s": (
            totals["inclusive"].get("client.post_records", 0.0) / rounds
        ),
        "wire.sweep_s": self_s("client.sweep"),
        "wire.page_s": self_s("client.records_page"),
        "wire.ingest_s": self_s("client.post_records"),
        "unattributed_s": totals["unattributed"] / rounds,
        "trace.wall_s": totals["wall"] / rounds,
    }
    for name in OVERHEAD_METRICS:
        metrics[f"trace.overhead_ratio.{name}"] = traced[name][0] / untraced[name][0]
    attributed = sum(totals["self"].values()) + totals["unattributed"]
    if not math.isclose(attributed, totals["wall"], rel_tol=1e-9, abs_tol=1e-9):
        rec.check(
            False, f"self times add up to {attributed} s, wall is {totals['wall']} s"
        )
    return metrics


def _write_spans(tracer, workload: str) -> Path:
    out = BENCH_DIR / "traces" / f"{workload}.jsonl"
    out.parent.mkdir(exist_ok=True)
    with open(out, "w") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span, separators=(",", ":")) + "\n")
    return out


def _print_table(rows) -> None:
    for name, value, unit, samples in rows:
        tail = f"  (n={samples})" if samples is not None else ""
        print(f"  {name:42s} {value:16.6f} {unit}{tail}")


def _phases(args, workload, phases: list) -> dict:
    """Set up, measure, and return the metrics to print; every phase's
    :class:`Recorder` is appended to ``phases``."""
    from e2e_bench import tracing
    from e2e_bench.harness import host_probe, host_speed
    from e2e_bench.workloads import Recorder

    # Wall times of the set-ups, and each scaled by the host speed the
    # probes around it measured.
    setups: list[float] = []
    reference_setups: list[float] = []
    while not setups or (
        not args.trace
        and (len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS)
    ):
        if setups:
            workload.close()
        probes = [host_probe() for _ in range(SETUP_PROBES)]
        started = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - started)
        probes += (host_probe() for _ in range(SETUP_PROBES))
        reference_setups.append(setups[-1] * host_speed(probes))
    phases.append(Recorder())
    workload.check_setup(phases[0])
    peak_rss_mb = _measure(workload, phases[0], args.seconds)
    untraced = _end_to_end(phases[0], reference_setups, peak_rss_mb)
    if not args.trace:
        print(
            f"{args.workload} seed {args.seed}: {phases[0].rounds} rounds, "
            f"median host speed {median(phases[0].speeds):.3f} x reference "
            f"({median(reference_setups) / median(setups):.3f} in set-up)"
        )
        _print_table(
            (name, value, E2E_UNITS[name], samples)
            for name, (value, samples) in untraced.items()
        )
        return {
            name: {"value": untraced[name][0], "unit": E2E_UNITS[name]}
            for name in E2E_UNITS
        }
    tracer = tracing.Tracer()
    phases.append(Recorder())
    saved = tracing.install(tracer)
    try:
        peak_rss_mb = _measure(workload, phases[1], args.seconds)
    finally:
        tracing.uninstall(saved)
    traced = _end_to_end(phases[1], [], peak_rss_mb)
    layer = _per_layer(phases[1], tracer, traced, untraced)
    out = _write_spans(tracer, args.workload)
    print(
        f"{args.workload} seed {args.seed}: {phases[1].rounds} traced "
        f"rounds, {len(tracer.spans)} spans -> {out.relative_to(ROOT)}"
    )
    units = {name: _layer_unit(name) for name in layer}
    _print_table((name, value, units[name], None) for name, value in layer.items())
    return {
        name: {"value": value, "unit": units[name]} for name, value in layer.items()
    }


def run(args) -> int:
    from e2e_bench.workloads import WORKLOADS, without_fsync

    work_root = BENCH_DIR / ".work"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    workload = WORKLOADS[args.workload](work_dir, args.seed)
    phases: list = []
    metrics: dict = {}
    crashed = False
    try:
        with without_fsync():
            metrics = _phases(args, workload, phases)
    except Exception:  # noqa: BLE001 - report, then fail the run
        traceback.print_exc()
        crashed = True
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)
    problems = [problem for phase in phases for problem in phase.problems]
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    if crashed:
        return 1
    correct = not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(phase.attempted for phase in phases),
                "failed": sum(phase.failed for phase in phases),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def _layer_unit(name: str) -> str:
    if name.endswith("_ratio") or name.startswith("trace.overhead_ratio."):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    if name == "lowered.points_per_call":
        return "points/call"
    return "count"


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"e2e_bench: no src/repro under {ROOT}; run it from a checkout "
            "of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
