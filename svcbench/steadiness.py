"""Record how steady the end-to-end metrics are on one commit.

Runs every workload ``--runs`` times, each with another seed, one run at
a time, and writes the per-metric values, median, quartiles and spread
(quartile distance ÷ median, from ``statistics.quantiles(values, n=4)``)
to ``--out``, with the same for the unscaled wall-clock figures.  The
bounds in ``BENCHMARK.json`` are based on this record.
Run from the root of a checkout::

    python3 svcbench/steadiness.py --runs 10 --out svcbench/STEADINESS.json
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    completed = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = completed.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    first, median, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return {
        "values": values, "median": middle, "q1": first, "q3": third,
        "spread": (third - first) / middle if middle else 0.0,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = [sys.executable, *spec["command"][1:]]
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record: dict = {
        "recorded": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    for workload in workloads:
        values: dict[str, list[float]] = {}
        wall: dict[str, list[float]] = {}
        failed = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            meta, result = run_once(command, workload, seed, spec["run_seconds"])
            record.setdefault("source_digest", meta["source_digest"])
            record.setdefault("nproc", meta["nproc"])
            failed += result["failed"]
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
            for name, value in meta["wall_clock"].items():
                wall.setdefault(name, []).append(value)
            print(workload, seed, result["correct"], " ".join(
                f"{name}={entry['value']:.4g}"
                for name, entry in result["metrics"].items()
            ), file=sys.stderr, flush=True)
        metrics = {name: summary(vals) for name, vals in values.items()}
        record["workloads"][workload] = {
            "failed": failed, "metrics": metrics,
            "wall_clock": {name: summary(vals) for name, vals in wall.items()},
        }
        for name, entry in metrics.items():
            print(f"{workload:16} {name:15} median {entry['median']:10.4g} "
                  f"spread {entry['spread']:.3f} (bound {bounds[name]})",
                  file=sys.stderr)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
