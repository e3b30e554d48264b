"""Shard orchestration: run one sweep as N coordinated shard processes.

``repro dse-launch`` turns the coordination-free hash-range partition
(:meth:`SweepSpec.shard <repro.dse.spec.SweepSpec.shard>`) into a
one-command workflow: shard the spec ``n`` ways, spawn one local
``repro dse --shard i/n`` process per shard (or ``--print-cmds`` the
exact per-machine command lines), auto-merge the per-shard stores into
the destination store on completion, and optionally post the merged
records to a running sweep server
(:mod:`repro.serve.server`).  Every shard evaluates into its own JSONL
store, so a crashed shard keeps its partials and a re-launch resumes
warm.

This is the one local launcher.  Sweeps shared by remote machines go
through a running server's elastic fleet instead (``repro dse --server
URL --fleet`` plus ``repro worker``, :mod:`repro.serve.fleet`).
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from ..dse.store import ResultStoreBase, open_store

__all__ = [
    "LaunchResult",
    "launch",
    "shard_commands",
    "shard_store_path",
]

def shard_store_path(dest: str | os.PathLike, index: int) -> Path:
    """Where shard ``index``'s private store lives, next to the dest store."""
    dest = Path(dest)
    return dest.with_name(f"{dest.name}.shard{index}.jsonl")


def _shard_argv(
    spec_path: str | os.PathLike,
    index: int,
    count: int,
    store_path: str | os.PathLike,
) -> list[str]:
    return [
        "dse",
        "--spec",
        str(spec_path),
        "--shard",
        f"{index}/{count}",
        "--store",
        str(store_path),
        "--format",
        "jsonl",
    ]


def shard_commands(
    spec_path: str | os.PathLike,
    count: int,
    dest: str | os.PathLike,
    program: tuple[str, ...] = ("repro",),
) -> list[list[str]]:
    """The ``count`` command lines that together cover the sweep.

    Each line is independent -- run them on one machine or many, in any
    order; the hash-range partition guarantees disjoint coverage.  The
    default ``program`` spells the installed console script (what
    ``--print-cmds`` emits for other machines); the launcher itself
    substitutes ``sys.executable -m repro`` so it works from a source
    tree too.
    """
    return [
        list(program)
        + _shard_argv(spec_path, index, count, shard_store_path(dest, index))
        for index in range(count)
    ]


def render_commands(commands: list[list[str]]) -> str:
    """Shell-quoted, one command per line (the ``--print-cmds`` output)."""
    return "\n".join(shlex.join(command) for command in commands)


@dataclass
class LaunchResult:
    """What one orchestrated launch produced."""

    shards: int
    merged_records: int
    store_path: Path
    shard_paths: list[Path]
    posted: int | None = None  # records posted to --post, if any

    def summary(self) -> str:
        text = (
            f"{self.shards} shards -> merged {self.merged_records} records "
            f"into {self.store_path}"
        )
        if self.posted is not None:
            text += f"; posted {self.posted} records to the server"
        return text


def _subprocess_env() -> dict[str, str]:
    """Child env that can import this exact ``repro``, installed or not.

    The launcher may run from a source tree (``PYTHONPATH=src``) where
    the child's ``python -m repro`` would otherwise not resolve; put the
    package's parent directory first on the child's path either way.
    """
    src_dir = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_dir if not existing else src_dir + os.pathsep + existing
    )
    return env


def _wait_for_shards(
    processes: list[subprocess.Popen],
    shards: int,
    fail_fast: bool,
    poll_interval: float = 0.05,
) -> list[str]:
    """Wait for shard children; returns failure descriptions (if any).

    With ``fail_fast`` the first non-zero exit terminates every still
    running sibling immediately, so a poisoned shard surfaces in
    seconds instead of after the surviving N-1 shards burn to
    completion.  Terminated siblings are reaped but not reported as
    failures -- the shard that actually crashed is the story.  Without
    ``fail_fast`` every child runs to its own exit (the pre-existing
    behaviour, kept behind ``--no-fail-fast`` for runs where maximal
    partial coverage matters more than fast failure).
    """
    terminated: set[int] = set()
    if fail_fast:
        pending = set(range(len(processes)))
        while pending:
            crashed = False
            for index in sorted(pending):
                code = processes[index].poll()
                if code is None:
                    continue
                pending.discard(index)
                if code != 0:
                    crashed = True
            if crashed:
                for index in pending:
                    processes[index].terminate()
                    terminated.add(index)
                break
            if pending:
                time.sleep(poll_interval)
    failures = []
    for index, process in enumerate(processes):
        _, stderr = process.communicate()
        if process.returncode != 0 and index not in terminated:
            detail = stderr.decode(errors="replace").strip().splitlines()
            failures.append(
                f"shard {index}/{shards} exited {process.returncode}"
                + (f": {detail[-1]}" if detail else "")
            )
    return failures


def launch(
    spec_path: str | os.PathLike,
    shards: int,
    store: "ResultStoreBase | str | os.PathLike",
    backend: str | None = None,
    post: str | None = None,
    keep_shards: bool = False,
    fail_fast: bool = True,
) -> LaunchResult:
    """Run every shard of ``spec_path`` locally and merge the stores.

    Spawns ``shards`` child processes (each ``repro dse --shard i/n``
    against its own JSONL shard store), waits for them, then merges the
    shard stores into ``store`` (either backend, forced by ``backend``
    or sniffed from the path).  A shard failure raises ``RuntimeError``
    naming the shard and its last stderr line; with ``fail_fast`` (the
    default) the failure surfaces promptly -- surviving siblings are
    terminated instead of burning to completion -- while
    ``fail_fast=False`` waits for every child.  Either way the
    per-shard partial stores are kept on failure, so a re-launch
    resumes warm.  With ``post``, the records this launch produced
    (the shard delta, not the whole destination store) are uploaded to
    a running server's ``/records`` endpoint in chunks.  Shard stores
    are deleted after a successful merge unless ``keep_shards``.
    """
    if shards < 1:
        raise ValueError("shard count must be >= 1")
    dest = open_store(store, backend=backend)
    commands = shard_commands(
        spec_path,
        shards,
        dest.path,
        program=(sys.executable, "-m", "repro"),
    )
    env = _subprocess_env()
    processes = [
        subprocess.Popen(
            command,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=env,
        )
        for command in commands
    ]
    failures = _wait_for_shards(processes, shards, fail_fast=fail_fast)
    if failures:
        raise RuntimeError("; ".join(failures))

    shard_paths = [shard_store_path(dest.path, i) for i in range(shards)]
    # Parse each shard store once: the same loaded records feed the
    # merge and (when posting) the upload delta.  Shards are
    # hash-disjoint, so a plain union is exact.
    delta: dict[str, dict] = {}
    for path in shard_paths:
        if path.exists():
            delta.update(open_store(path).load())
    merged_records = dest.merge([delta])

    posted = None
    if post:
        from .client import ServeClient

        # Only this launch's delta goes up, not everything the
        # destination store accumulated over earlier runs;
        # ``post_records`` splits it into requests under the server's
        # body cap.
        posted = ServeClient(post).post_records(list(delta.values()))["appended"]

    if not keep_shards:
        for path in shard_paths:
            path.unlink(missing_ok=True)

    return LaunchResult(
        shards=shards,
        merged_records=merged_records,
        store_path=dest.path,
        shard_paths=shard_paths,
        posted=posted,
    )
