"""Spawn, watch and stop ``repro serve`` processes."""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

#: How long a server may take to print that it listens (and, on a
#: ring, that the view is published).
READY_TIMEOUT_S = 60.0

_LISTENING = re.compile(r"listening on unix:(\S+)$")


class ServerProcess:
    """One ``python -m repro serve`` child listening on Unix sockets.

    The constructor returns once every shard prints its address (and a
    ring prints its published view); :attr:`spawned_at` is the
    ``perf_counter`` reading just before the spawn.  The child inherits
    this process's CPU affinity.
    """

    def __init__(
        self, root: Path, socket: str, flags: list[str], shards: int,
        hash_seed: int,
    ) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        # String hashing decides dict and set layouts in the server; tie
        # it to the run's seed so one seed reproduces one server.
        env["PYTHONHASHSEED"] = str(hash_seed)
        env.pop("REPRO_PARSER", None)
        env.pop("REPRO_KERNEL_PURE", None)
        self.spawned_at = perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--no-tcp",
             "--unix", socket, *flags],
            cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self.addresses: list[str] = []
        self._log: list[str] = []
        ready = threading.Event()
        self._reader = threading.Thread(
            target=self._read, args=(shards, ready), daemon=True
        )
        self._reader.start()
        if not ready.wait(READY_TIMEOUT_S) or len(self.addresses) < shards:
            self.stop()
            raise RuntimeError(
                "server did not come up:\n" + "".join(self._log[-20:])
            )

    def _read(self, shards: int, ready: threading.Event) -> None:
        # Drains stderr for the child's whole life so it can never block
        # on a full pipe; readiness is the last address (and the ring
        # view line when there are several shards).
        assert self.process.stderr is not None
        for line in self.process.stderr:
            self._log.append(line)
            match = _LISTENING.search(line.strip())
            if match:
                self.addresses.append(match.group(1))
            if len(self.addresses) == shards and (
                shards == 1 or "ring view published" in line
            ):
                ready.set()
        ready.set()

    @property
    def pid(self) -> int:
        return self.process.pid

    def peak_rss_mib(self) -> float:
        """``VmHWM`` of the server process, MiB."""
        for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def cpu_seconds(self) -> float:
        """User + system CPU time of the server process so far."""
        stat = Path(f"/proc/{self.pid}/stat").read_text()
        fields = stat[stat.rindex(")") + 2:].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        """Interrupt (graceful drain), then kill if it lingers; always
        waits for the child and the stderr reader to end."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._reader.join(timeout=15)
        if self.process.stderr is not None:
            self.process.stderr.close()
