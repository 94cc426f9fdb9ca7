"""The three workloads: inputs, server flags, warm-up and one request.

Every driver runs a closed loop over one load-generator process: the
next request is sent only once the previous reply is in.  A request's
replies are checked against the in-process oracle as they arrive; an
``ok: false`` item, a transport error and an oracle mismatch each count
the item as failed.
"""

from __future__ import annotations

import random
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from time import perf_counter
from typing import Any

import inputs
from serverproc import ServerProcess

from repro.obs.metrics import counter_value
from repro.server.client import ServerError, ValidationClient
from repro.server.ring import ShardedClient

#: ``--verdict-cache`` size of every workload's server: below each
#: workload's distinct documents, so the cache always evicts.
VERDICT_CACHE = 1024

#: The golden ratio's fractional part: a low-discrepancy step.
_GOLDEN = (5 ** 0.5 - 1) / 2

#: Mismatches printed to stderr per run (all of them are counted).
_REPORTED_MISMATCHES = 5


@dataclass
class Outcome:
    """What one closed-loop request did."""

    items: int
    failed: int = 0
    #: ``(client-observed s, server-reported ms, items)`` of each wire
    #: request it made that was timed on both sides.
    hops: list[tuple[float, float, int]] = field(default_factory=list)
    #: Set when the connection broke: the loop stops.
    broken: bool = False


class Driver:
    """Common surface; subclasses fill in the workload."""

    name = ""
    shards = 1
    flags: list[str] = []
    #: The server's admission mode (the ladder's dispatcher mirrors it).
    admission = "off"

    def __init__(self) -> None:
        self.mismatches = 0
        self.server: ServerProcess | None = None
        #: A few raw replies, kept for the traced run's decode timing.
        self.sample_replies: list[dict[str, Any]] = []

    # -- the pieces a run calls -----------------------------------------

    def prepare(self, seed: int) -> None:
        """Generate the seeded inputs and their oracle verdicts."""
        raise NotImplementedError

    def start(self, root: Path, socket: str, seed: int) -> float:
        """Spawn the server and warm it up; returns set-up seconds."""
        self.server = ServerProcess(
            root, socket, self.flags, shards=self.shards, hash_seed=seed
        )
        self.connect()
        self.warm()
        return perf_counter() - self.server.spawned_at

    def connect(self) -> None:
        self.client = ValidationClient.connect_unix(self.server.addresses[0])

    def warm(self) -> None:
        """Compile every schema (and, on a ring, replicate it)."""
        raise NotImplementedError

    def preroll(self) -> None:
        """Untimed traffic run once before timing starts."""

    def request(self, trace: str | None) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        if getattr(self, "client", None) is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            self.server.stop()
            self.server = None

    # -- the traced run -------------------------------------------------

    def ladder_inputs(self) -> list[tuple[inputs.Schema, list[str]]]:
        """The documents the layer ladder times, per schema."""
        return [(self.schema, self.docs)]

    def scrape(self) -> dict[str, Any]:
        """``{"server": metrics snapshot}`` of the one shard."""
        return {"server": self.client.metrics()["metrics"]}

    def ring_counters(self, before, after) -> dict[str, float]:
        """Routing counters; a single shard serves every read itself."""
        return {"ring.handoffs": 0.0, "ring.max_member_read_share": 1.0,
                "ring.failovers": 0.0, "ring.requeues": 0.0}

    # -- shared checks --------------------------------------------------

    def check_item(
        self, reply: dict[str, Any], expected: inputs.Expected
    ) -> bool:
        """Whether one item reply is right; counts and reports misses."""
        if len(self.sample_replies) < 256:
            self.sample_replies.append(reply)
        pv, failures = expected
        good = reply.get("ok") is True and reply.get("potentially_valid") is pv
        if good:
            served = len(reply.get("failures") or ())
            if reply.get("algorithm") == "coarse":
                # The admission stage names one blocking node, where
                # the kernel lists every failing node.
                good = (served == 0) if pv else (served == 1 <= failures)
            else:
                good = served == failures
        if not good:
            self.mismatches += 1
            if self.mismatches <= _REPORTED_MISMATCHES:
                print(f"oracle mismatch ({self.name}): expected "
                      f"pv={pv} failures={failures}, got {reply}",
                      file=sys.stderr)
        return good


def _ok_count(check, replies, expected) -> int:
    return sum(1 for reply, want in zip(replies, expected) if check(reply, want))


class BatchUnique(Driver):
    """``check-batch`` of 32 distinct manuscript documents per request;
    no document repeats within a run."""

    name = "batch-unique"
    flags = ["--verdict-cache", str(VERDICT_CACHE)]
    #: Documents per ``check-batch`` request.
    BATCH = 32
    #: Generated documents per shape preset (the variant bases).
    BASES_PER_SHAPE = 200
    #: Distinct documents in the pool per second of run time.  A run
    #: faster than this wraps around; with the pool above the cache
    #: size, the LRU still never hits.
    POOL_PER_SECOND = 1000

    def __init__(self, seconds: float) -> None:
        super().__init__()
        self.seconds = seconds

    def prepare(self, seed: int) -> None:
        self.schema = inputs.schema("manuscript")
        bases = inputs.generated_documents(
            self.schema, self.BASES_PER_SHAPE, seed
        )
        size = max(4 * self.BATCH, int(self.POOL_PER_SECOND * self.seconds))
        self.docs = inputs.unique_pool(bases, size, seed)
        self.expected = inputs.oracle(self.schema, self.docs)
        self.warm_docs = [
            inputs.variant(text, f"w{index}")
            for index, text in enumerate(bases[: self.BATCH])
        ]
        self.cursor = 0

    def warm(self) -> None:
        self.client.check_batch(
            self.schema.text, [d for d in self.warm_docs if d],
            root=self.schema.root,
        )

    def request(self, trace: str | None) -> Outcome:
        start = self.cursor
        stop = start + self.BATCH
        self.cursor = stop % (len(self.docs) - self.BATCH)
        docs = self.docs[start:stop]
        began = perf_counter()
        try:
            replies, trailer = self.client.check_batch(
                self.schema.text, docs, root=self.schema.root, trace=trace
            )
        except ServerError:
            return Outcome(items=len(docs), failed=len(docs))
        except OSError:
            return Outcome(items=len(docs), failed=len(docs), broken=True)
        took = perf_counter() - began
        good = _ok_count(self.check_item, replies, self.expected[start:stop])
        return Outcome(
            items=len(docs), failed=len(docs) - good,
            hops=[(took, trailer["elapsed_ms"], len(docs))],
        )


class CheckRepeat(Driver):
    """Single ``check`` requests over mid-edit manuscript documents,
    revisited with a Zipf-skewed popularity: mostly verdict-cache hits,
    over a working set larger than the cache."""

    name = "check-repeat"
    flags = ["--verdict-cache", str(VERDICT_CACHE)]
    #: Valid documents degraded into the working set (four fractions
    #: each, so about four times as many mid-edit documents).
    BASES = 400
    #: Zipf exponent of document popularity.  With the working set and
    #: cache above, about 95 % of requests hit: the misses stay well
    #: below the 10 % tail, so p90 is a cache-hit latency.
    ZIPF_S = 1.1
    #: Untimed requests that fill the cache before timing.
    PREROLL = 6000

    def prepare(self, seed: int) -> None:
        self.schema = inputs.schema("manuscript")
        # ``docs[rank]`` is the document of that popularity rank.  The
        # ranks step through the documents in size order by the golden
        # ratio, so a rank sits at the same size quantile for every
        # seed and the few most requested documents (which carry most
        # of the traffic) span the size range evenly: the seed picks
        # which documents are hot, not how big they are.
        by_size = sorted(
            inputs.mid_edit_documents(self.schema, self.BASES, seed), key=len
        )
        order = sorted(range(len(by_size)), key=lambda i: (i * _GOLDEN) % 1.0)
        self.docs = [by_size[i] for i in order]
        self.expected = inputs.oracle(self.schema, self.docs)
        self.cumulative = list(accumulate(
            1.0 / (rank + 1) ** self.ZIPF_S for rank in range(len(self.docs))
        ))
        self.rng = random.Random(seed)
        self.warm_doc = next(
            w for w in (inputs.variant(doc, "w") for doc in self.docs) if w
        )

    def warm(self) -> None:
        self.client.check(self.schema.text, self.warm_doc, root=self.schema.root)

    def _pick(self) -> int:
        draw = self.rng.random() * self.cumulative[-1]
        return bisect_left(self.cumulative, draw)

    def preroll(self) -> None:
        for _ in range(self.PREROLL):
            self.client.check(
                self.schema.text, self.docs[self._pick()], root=self.schema.root
            )

    def request(self, trace: str | None) -> Outcome:
        index = self._pick()
        began = perf_counter()
        try:
            reply = self.client.check(
                self.schema.text, self.docs[index], root=self.schema.root,
                trace=trace,
            )
        except ServerError:
            return Outcome(items=1, failed=1)
        except OSError:
            return Outcome(items=1, failed=1, broken=True)
        took = perf_counter() - began
        good = self.check_item(reply, self.expected[index])
        return Outcome(items=1, failed=0 if good else 1,
                       hops=[(took, reply["elapsed_ms"], 1)])


class RingSchemaMix(Driver):
    """``check_corpus`` over a two-shard, two-replica ring with coarse
    admission: 8 distinct documents of each of six catalog schemas per
    call, through one :class:`ShardedClient`."""

    name = "ring-schema-mix"
    shards = 2
    admission = "on"
    flags = ["--ring", "2", "--replicas", "2", "--admission", "on",
             "--verdict-cache", str(VERDICT_CACHE)]
    #: Documents per schema per ``check_corpus`` call: small enough that
    #: a run holds well over 100 calls, so p90 has 10 samples beyond it.
    PER_SCHEMA = 8
    #: Distinct documents per schema, sent in a cycle.  Each shard's
    #: cycle is then longer than its verdict cache, so the LRU never
    #: hits, whichever shards own the schemas.
    POOL = VERDICT_CACHE + 76
    #: Generated documents per shape preset (of three): about the whole
    #: pool, not variants of a few dozen bases.  A run cycles through its pool
    #: about once, so its cost is the pool's mean; with only 40 bases
    #: per shape that mean (and so docs_per_s) moved by 10 % from one
    #: seed to another.
    BASES_PER_SHAPE = -(-POOL // 3)

    def prepare(self, seed: int) -> None:
        self.schemas = [inputs.schema(name) for name in inputs.RING_SCHEMAS]
        self.docs: list[list[str]] = []
        self.expected: list[list[inputs.Expected]] = []
        self.warm_docs: list[str] = []
        for offset, target in enumerate(self.schemas):
            bases = inputs.generated_documents(
                target, self.BASES_PER_SHAPE, seed * 31 + offset
            )
            pool = inputs.unique_pool(bases, self.POOL, seed * 31 + offset)
            self.docs.append(pool)
            self.expected.append(inputs.oracle(target, pool))
            self.warm_docs.append(
                next(w for w in (inputs.variant(b, "w") for b in bases) if w)
            )
        self.cursor = 0

    def connect(self) -> None:
        self.client = ShardedClient(self.server.addresses, replica_count=2)

    def warm(self) -> None:
        results = self.client.check_corpus([
            (target.text, [doc], target.root)
            for target, doc in zip(self.schemas, self.warm_docs)
        ])
        for replies, trailer in results:
            if replies is None:
                raise RuntimeError(f"ring warm-up failed: {trailer}")

    def request(self, trace: str | None) -> Outcome:
        start = self.cursor
        stop = start + self.PER_SCHEMA
        self.cursor = stop % (len(self.docs[0]) - self.PER_SCHEMA)
        batches = [
            (target.text, pool[start:stop], target.root)
            for target, pool in zip(self.schemas, self.docs)
        ]
        items = self.PER_SCHEMA * len(batches)
        outcome = Outcome(items=items)
        if trace is not None:
            # check_corpus carries no wire trace; time each routed
            # batch it makes through the client's public primitive.
            self.client.routed_batch = self._timed(outcome.hops)
        try:
            results = self.client.check_corpus(batches)
        except OSError:
            outcome.failed = items
            outcome.broken = True
            return outcome
        finally:
            if trace is not None:
                del self.client.routed_batch
        for (replies, trailer), expected in zip(results, self.expected):
            if replies is None:
                outcome.failed += self.PER_SCHEMA
                continue
            good = _ok_count(self.check_item, replies, expected[start:stop])
            outcome.failed += self.PER_SCHEMA - good
        return outcome

    def ladder_inputs(self) -> list[tuple[inputs.Schema, list[str]]]:
        return list(zip(self.schemas, self.docs))

    def scrape(self) -> dict[str, Any]:
        scraped = self.client.metrics()
        return {"server": scraped["merged"], "client": scraped["client"]}

    def ring_counters(self, before, after) -> dict[str, float]:
        reads = {}
        for entry in after.get("counters", []):
            if entry["name"] == "repro_ring_reads_total":
                member = entry["labels"].get("member")
                reads[member] = entry["value"] - counter_value(
                    before, "repro_ring_reads_total", member=member
                )
        stats = self.client.ring_stats
        return {
            "ring.handoffs": float(stats["handoffs"]),
            "ring.max_member_read_share": (
                max(reads.values()) / sum(reads.values())
                if sum(reads.values()) else 0.0
            ),
            "ring.failovers": float(stats["failovers"]),
            "ring.requeues": (
                counter_value(after, "repro_ring_requeues_total")
                - counter_value(before, "repro_ring_requeues_total")
            ),
        }

    def _timed(self, hops: list[tuple[float, float, int]]):
        routed = self.client.routed_batch

        def timed_routed_batch(*args: Any, **kwargs: Any):
            began = perf_counter()
            result = routed(*args, **kwargs)
            took = perf_counter() - began
            hops.append((took, result[1]["elapsed_ms"], len(result[0])))
            return result

        return timed_routed_batch


def make(name: str, seconds: float) -> Driver:
    if name == "batch-unique":
        return BatchUnique(seconds)
    if name == "check-repeat":
        return CheckRepeat()
    if name == "ring-schema-mix":
        return RingSchemaMix()
    raise ValueError(f"unknown workload {name!r}")
