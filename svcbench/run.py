"""Service benchmark: verdicts/s and latency as a client of ``repro serve`` sees them.

Run from the root of a checkout::

    python3 svcbench/run.py --workload batch-unique --seed 1 --seconds 20 --trace 0

It spawns real ``python -m repro serve`` processes, drives them from this
one process with a closed loop (the next request leaves when the last
reply is in), checks every verdict against the in-process kernel, and
prints one JSON object as the last line of standard output::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
same workload with the wire ``trace`` field set on alternate blocks of
requests, times each layer's public functions on the workload's
documents, scrapes the server's ``metrics``/``stats`` ops, and reports
the per-layer metrics (see ``layers.py``).  A line of run metadata
(CPU, affinity, Python, code digest, sample counts) precedes the result.

The load generator pins itself to one CPU before spawning anything, so
the servers (which inherit the mask) and the client share that CPU:
with both sides on one CPU a run measures work, not cross-CPU wake-ups.
That CPU's speed drifts, so every 0.2 s of requests the run times a
fixed probe (``hostspeed.py``) and scales each slice's timings to the
probe's reference speed; the metadata keeps the wall-clock figures.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: Where the servers' Unix sockets live, relative to the checkout root
#: (relative keeps the path far below the socket-path length limit).
SOCKETS = ".svcbench-sockets"
#: The socket path (a ring's shards add ``.0``, ``.1``).  Ring members
#: are placed by hashing this label, so it is fixed: a per-run name
#: would move the six schemas between the two shards from run to run.
#: With this one they split three and three.
SOCKET = f"{SOCKETS}/shard"
#: Servers started per run; ``setup_s`` is their median set-up time.
SETUPS = 7
#: Request time per slice, seconds.  The host probe (one round, about
#: 7 ms) is timed at every slice boundary: the host's speed changes
#: within a second, so one-second slices follow it too loosely.
SLICE_S = 0.2
#: Probe rounds on either side of each set-up.
SETUP_PROBE_ROUNDS = 6
#: Traced runs alternate untraced and traced blocks of this length.
TRACE_BLOCK_S = 0.5


@dataclass
class Loop:
    """One timed closed loop: per-request records."""

    began: float
    ended: float = 0.0
    #: ``(start, end, items, traced)`` per request.
    requests: list[tuple[float, float, int, bool]] = field(default_factory=list)
    #: Latencies, seconds; a request with a failed item reads infinite.
    latencies: list[float] = field(default_factory=list)
    #: The slice each request ran in.
    slice_of: list[int] = field(default_factory=list)
    #: Host probe seconds at each slice boundary (one more than slices).
    probes: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    broken: bool = False
    #: ``(client s, server ms, items, traced)`` per timed wire request.
    hops: list[tuple[float, float, int, bool]] = field(default_factory=list)
    server_cpu_s: float = 0.0
    client_cpu_s: float = 0.0

    def slowdowns(self) -> list[float]:
        """Per slice: the host probe's time over its nominal time, from
        the probes on both sides of the slice (2 = host at half speed)."""
        return [
            (before + after) / 2 / hostspeed.NOMINAL_S
            for before, after in zip(self.probes, self.probes[1:])
        ]


def run_loop(driver, seconds: float, alternate_trace: bool) -> Loop:
    """Drive *driver* for *seconds* of requests, in ``SLICE_S`` slices
    with the host probe timed at every slice boundary; with
    *alternate_trace* every other ``TRACE_BLOCK_S`` block carries a
    wire trace id."""
    slices = max(1, round(seconds / SLICE_S))
    cpu0 = driver.server.cpu_seconds()
    client0 = process_time()
    loop = Loop(began=perf_counter())
    loop.probes.append(hostspeed.probe_seconds())
    serial = 0
    busy = 0.0
    now = perf_counter()
    while len(loop.probes) <= slices:
        traced = alternate_trace and int(busy / TRACE_BLOCK_S) % 2 == 1
        serial += 1
        trace = f"svcbench-{serial}" if traced else None
        outcome = driver.request(trace)
        end = perf_counter()
        busy += end - now
        loop.requests.append((now, end, outcome.items, traced))
        loop.latencies.append(end - now if not outcome.failed else math.inf)
        loop.slice_of.append(len(loop.probes) - 1)
        loop.attempted += outcome.items
        loop.failed += outcome.failed
        loop.hops.extend((*hop, traced) for hop in outcome.hops)
        if outcome.broken:
            loop.broken = True
            loop.probes.append(hostspeed.probe_seconds())
            break
        if busy >= len(loop.probes) * SLICE_S:
            loop.probes.append(hostspeed.probe_seconds())
        now = perf_counter()
    loop.ended = perf_counter()
    loop.client_cpu_s = process_time() - client0
    loop.server_cpu_s = driver.server.cpu_seconds() - cpu0
    return loop


def slice_rates(loop: Loop, normalized: bool = True) -> list[float]:
    """Items per second of request time in each slice; *normalized*
    scales each to the nominal host speed."""
    count = len(loop.probes) - 1
    items = [0] * count
    spent = [0.0] * count
    for (start, end, done, _traced), index in zip(loop.requests, loop.slice_of):
        items[index] += done
        spent[index] += end - start
    slowdowns = loop.slowdowns() if normalized else [1.0] * count
    return [
        done / took * slow
        for done, took, slow in zip(items, spent, slowdowns) if took > 0
    ]


def quantile(values: list[float], q: float) -> float:
    """The *q* quantile, linear between closest ranks (inclusive)."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    if fraction == 0.0 or math.isinf(ordered[high]):
        return ordered[low] if fraction == 0.0 else ordered[high]
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def latency_ms(loop: Loop, q: float, normalized: bool = True) -> float:
    """A latency quantile in ms, each latency scaled to the nominal host
    speed by its slice's probe when *normalized*.  Failed requests read
    infinite; where one sets the quantile it is reported as the whole
    run's length, a finite number no latency limit admits."""
    slowdowns = loop.slowdowns() if normalized else [1.0] * (len(loop.probes) - 1)
    latencies = [
        latency / slowdowns[index]
        for latency, index in zip(loop.latencies, loop.slice_of)
    ]
    value = quantile(latencies, q)
    if math.isinf(value):
        value = loop.ended - loop.began
    return value * 1000.0


def end_to_end(loop: Loop, setups: list[float], rss_mib: float) -> dict:
    return {
        "docs_per_s": {"value": statistics.median(slice_rates(loop)), "unit": "1/s"},
        "request_p50_ms": {"value": latency_ms(loop, 0.5), "unit": "ms"},
        "request_p90_ms": {"value": latency_ms(loop, 0.9), "unit": "ms"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "server_rss_mb": {"value": rss_mib, "unit": "MiB"},
    }


def source_digest() -> str:
    """SHA-256 (16 hex) of every ``src`` Python file: names the code
    measured where no commit id is at hand."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return result.stdout.strip() or None


def pin_cpu() -> tuple[int, list[int]]:
    """Confine this process (and so every child) to one allowed CPU;
    returns it and the CPUs that were allowed before."""
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[-1]})
    return allowed[-1], allowed


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("batch-unique", "check-repeat",
                                 "ring-schema-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (
        ROOT / "tests" / "corpusgen.py"
    ).is_file():
        print("error: run from the root of a checkout of the repository "
              "(src/repro and tests/corpusgen.py are needed)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]
    os.environ.pop("REPRO_PARSER", None)
    os.environ.pop("REPRO_KERNEL_PURE", None)
    # A terminated run still stops its servers (the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    cpu, allowed = pin_cpu()
    os.chdir(ROOT)

    import drivers
    import layers

    driver = drivers.make(args.workload, args.seconds)
    driver.prepare(args.seed)
    # The inputs and their oracle live for the whole run; keep the
    # collector from rescanning them while the loop is timed.
    gc.freeze()
    raw_setups: list[float] = []
    sockets = Path(SOCKETS)
    sockets.mkdir(exist_ok=True)
    try:
        # Each set-up is scaled by the host probes on either side of it.
        probes = [hostspeed.probe_seconds(SETUP_PROBE_ROUNDS)]
        for attempt in range(1 if args.trace else SETUPS):
            if attempt:
                driver.close()
            raw_setups.append(driver.start(ROOT, SOCKET, args.seed))
            probes.append(hostspeed.probe_seconds(SETUP_PROBE_ROUNDS))
        setups = [
            took * hostspeed.NOMINAL_S * 2 / (before + after)
            for took, before, after in zip(raw_setups, probes, probes[1:])
        ]
        driver.preroll()
        before = driver.scrape() if args.trace else None
        loop = run_loop(driver, args.seconds, alternate_trace=bool(args.trace))
        rss_mib = driver.server.peak_rss_mib()
        after = driver.scrape() if args.trace else None
        if args.trace:
            metrics = layers.per_layer(driver, loop, before, after)
    finally:
        driver.close()
        for leftover in sockets.iterdir():
            leftover.unlink()
        sockets.rmdir()

    finite = sum(1 for latency in loop.latencies if not math.isinf(latency))
    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "allowed_cpus": allowed, "pinned_cpu": cpu,
        "python": platform.python_version(), "commit": commit(),
        "source_digest": source_digest(),
        "requests": len(loop.latencies), "completed_requests": finite,
        "p90_tail_samples": len(loop.latencies) - int(0.9 * len(loop.latencies)),
        "mismatches": driver.mismatches,
        "setups_s": setups,
        "host_slowdown": statistics.median(loop.slowdowns()),
        "wall_clock": {
            "docs_per_s": statistics.median(slice_rates(loop, normalized=False)),
            "request_p50_ms": latency_ms(loop, 0.5, normalized=False),
            "request_p90_ms": latency_ms(loop, 0.9, normalized=False),
            "setup_s": statistics.median(raw_setups),
        },
        "slice_rates": [round(rate, 1) for rate in slice_rates(loop)],
        "slice_slowdowns": [round(slow, 3) for slow in loop.slowdowns()],
    }
    if not args.trace:
        metrics = end_to_end(loop, setups, rss_mib)
    print(json.dumps(meta))
    correct = loop.failed == 0 and not loop.broken and loop.attempted > 0
    print(json.dumps({
        "correct": correct, "attempted": loop.attempted,
        "failed": loop.failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
