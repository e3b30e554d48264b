"""Seeded inputs, statistics, the host probe and correctness checks
shared by the workloads.

Everything a run feeds the program comes from :class:`Inputs`, built
from ``--seed`` alone: the order of the grid's points, the synthetic
records that fill and grow stores, upload batches, page cursors and
the fresh memories of ``store_100k``'s cold sweeps.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import statistics
import time
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.dse import EVAL_VERSION, SweepSpec, evaluate_point
from repro.hw import DDR4, HBM2, scaled_memory

#: The 1008-point grid of ``benchmarks/bench_vectorized_eval.py``:
#: 6 workloads x 3 platforms x 4 memories x 2 policies x 7 batches.
WORKLOADS = ("AlexNet", "Inception-v1", "ResNet-18", "ResNet-50", "RNN", "LSTM")
PLATFORMS = ("tpu", "bitfusion", "bpvec")
MEMORIES = (DDR4, HBM2, scaled_memory(DDR4, 64), scaled_memory(HBM2, 512))
POLICIES = ("homogeneous-8bit", "paper-heterogeneous")
BATCHES = (1, 2, 4, 8, 16, 32, 64)
GRID_POINTS = 1008

#: One fleet chunk of the grid: ceil(1008 / DEFAULT_FLEET_CHUNKS=16).
UPLOAD_RECORDS = 63
PAGE_RECORDS = 1000
ORACLE_SAMPLE = 16
#: A tail percentile is reported only with this many samples above it.
TAIL_BEYOND = 10

_METRIC_KEYS = (
    "total_cycles",
    "total_seconds",
    "total_macs",
    "total_traffic_bytes",
    "compute_energy_pj",
    "sram_energy_pj",
    "dram_energy_pj",
    "uncore_energy_pj",
    "total_energy_pj",
    "total_energy_j",
    "ops_per_second",
    "average_power_w",
    "perf_per_watt",
    "memory_bound_fraction",
)
_INTEGER_METRICS = {"total_cycles", "total_macs", "total_traffic_bytes"}
#: Every (workload, platform, memory, policy, batch) a synthetic record
#: may name; one draw picks all five, which keeps a 100k-record fill cheap.
_LABELS = tuple(
    itertools.product(
        WORKLOADS, ("TPU", "BitFusion", "BPVeC"), ("DDR4", "HBM2"), POLICIES, BATCHES
    )
)


def grid_points(memories: Sequence = MEMORIES) -> list[dict]:
    """The grid's points in their JSON wire spelling, grid order."""
    spec = SweepSpec.grid(
        workloads=WORKLOADS,
        platforms=PLATFORMS,
        memories=memories,
        policies=POLICIES,
        batches=BATCHES,
    )
    return spec.to_dict()["points"]


class Inputs:
    """Every generated input of one run, drawn from one seeded stream."""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self.points = grid_points()
        self.rng.shuffle(self.points)
        self._serial = 0
        self._cold_rounds = 0
        self._shuffles = 0
        # Fresh-memory bandwidths of store_100k's cold sweeps step by 4
        # GB/s a round from a seeded fractional base, so no two rounds
        # (and no round and the base grid) share a config hash.
        self._bandwidth_base = 1000 + self.rng.random()

    def synthetic(self, count: int, tag: str) -> list[dict]:
        """``count`` fresh DSE-shaped records with seeded contents."""
        records = []
        rng = self.rng
        for _ in range(count):
            self._serial += 1
            key = f"e2e:{self.seed}:{tag}:{self._serial}"
            workload, platform, memory, policy, batch = rng.choice(_LABELS)
            records.append(
                {
                    "hash": hashlib.sha256(key.encode()).hexdigest(),
                    "version": EVAL_VERSION,
                    "kind": "asic",
                    "workload": workload,
                    "platform": platform,
                    "memory": memory,
                    "policy": policy,
                    "batch": batch,
                    "metrics": {
                        name: (
                            1 + rng.getrandbits(40)
                            if name in _INTEGER_METRICS
                            else rng.random() * 10.0 ** (15 * rng.random() - 3)
                        )
                        for name in _METRIC_KEYS
                    },
                }
            )
        return records

    def cursors(self, ordered: Sequence[str], count: int) -> list[str]:
        """``count`` seeded cursors, each with a full page after it."""
        last = len(ordered) - PAGE_RECORDS - 1
        return [ordered[self.rng.randint(0, last)] for _ in range(count)]

    def repeat(self, cursors: Sequence[str]) -> str:
        return self.rng.choice(cursors)

    def fresh_grid(self) -> list[dict]:
        """A grid no earlier round has swept: four unseen memories."""
        base = self._bandwidth_base + 4 * self._cold_rounds
        self._cold_rounds += 1
        memories = (
            scaled_memory(DDR4, base),
            scaled_memory(DDR4, base + 1),
            scaled_memory(HBM2, base + 2),
            scaled_memory(HBM2, base + 3),
        )
        return self.shuffled(grid_points(memories))

    def shuffled(self, points: Sequence[dict]) -> list[dict]:
        """``points`` in a fresh seeded order, led by a point of the next
        network in turn.

        A sweep's first chunk is the group of its first point, so the
        time to the first record depends on which network leads.  Taking
        the leaders in turn gives every run the same mix of them,
        whatever the seed, where a seeded draw of a dozen leaders would
        tie the median to the seed.
        """
        points = list(points)
        self.rng.shuffle(points)
        leader = WORKLOADS[self._shuffles % len(WORKLOADS)]
        self._shuffles += 1
        first = next(i for i, point in enumerate(points) if point["workload"] == leader)
        points.insert(0, points.pop(first))
        return points

    def sample(self, points: Sequence[dict], count: int) -> list[dict]:
        return self.rng.sample(list(points), count)


# -- statistics ------------------------------------------------------------
def tail_percentile(values: Sequence[float], q: float):
    """Nearest-rank ``q`` percentile, or None with under
    :data:`TAIL_BEYOND` samples above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    if len(ordered) - rank < TAIL_BEYOND:
        return None
    return ordered[rank - 1]


# -- host speed ------------------------------------------------------------
#: :func:`host_probe`'s median inside runs on an uncontended stretch of
#: the reference host (2-vCPU shared-host VM, CPython 3.11, numpy 2.4).
#: Timings are reported as they would read on a host whose probe takes
#: this long.
REFERENCE_PROBE_S = 0.0015

_PROBE_RECORD = {
    "hash": "0" * 64,
    "workload": "ResNet-50",
    "platform": "BPVeC",
    "metrics": {f"m{i}": 1.0 / (i + 3) for i in range(14)},
}
_PROBE_ARRAY = np.linspace(0.0, 1.0, 4096)


def host_probe() -> float:
    """Seconds one fixed slice (~1.5 ms) of the program's kinds of work
    takes now: interpreted loops, JSON encoding and decoding, SHA-256
    and numpy arithmetic.

    The benchmark runs it before every timed operation, on the same
    thread, so the probe sees the same host speed as the program.
    """
    start = time.perf_counter()
    for _ in range(30):
        text = json.dumps(_PROBE_RECORD, sort_keys=True)
        hashlib.sha256(text.encode()).digest()
        json.loads(text)
    total = 0
    for i in range(8000):
        total += i * i % 7
    for _ in range(60):
        float((_PROBE_ARRAY * 1.5 + 2.0).sum())
    return time.perf_counter() - start


def host_speed(probes: Sequence[float]) -> float:
    """How much faster than the reference host the probes ran: the
    factor that turns a time measured beside them into reference time."""
    return REFERENCE_PROBE_S / statistics.median(probes)


# -- correctness -------------------------------------------------------------
def canonical(record: Mapping) -> str:
    """Bit-exact text of a record: floats print their shortest repr."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def digest(records: Iterable[Mapping]) -> str:
    """Order-free fingerprint of a record set, for bit-identity checks."""
    text = "\n".join(sorted(canonical(record) for record in records))
    return hashlib.sha256(text.encode()).hexdigest()


def oracle_mismatches(
    points: Iterable[Mapping], records: Mapping[str, Mapping]
) -> list[str]:
    """Points whose record differs from the scalar ``evaluate_point``.

    ``records`` maps config hash to record; a point with no record
    counts as a mismatch too.
    """
    spec = SweepSpec.from_dict({"points": list(points)})
    bad = []
    for point in spec.points:
        expected = evaluate_point(point)
        got = records.get(point.config_hash())
        if got is None or canonical(got) != canonical(expected):
            bad.append(point.config_hash())
    return bad


def page_problems(
    page: Sequence[Mapping], cursor: str, next_cursor, known: set
) -> list[str]:
    """What is wrong with one ``limit=PAGE_RECORDS`` page after ``cursor``."""
    problems = []
    keys = [record["hash"] for record in page]
    if len(keys) != PAGE_RECORDS:
        problems.append(f"{len(keys)} records, wanted {PAGE_RECORDS}")
    if any(b <= a for a, b in zip([cursor] + keys, keys)):
        problems.append("hashes do not strictly increase from the cursor")
    if keys and next_cursor != keys[-1]:
        problems.append(f"next cursor {next_cursor!r} is not the last hash")
    if not known.issuperset(keys):
        problems.append("page holds records the store was never given")
    return problems
