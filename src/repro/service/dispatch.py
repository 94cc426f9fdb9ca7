"""Backend contract and the per-schema dispatcher with a decision log.

The checking backends trade constant factors for generality (the full
contract lives in ``docs/BACKENDS.md``, kept in lockstep with
:data:`BACKENDS` by a test):

* ``kernel`` — the machine's merged-GSS semantics over dense integer
  tables; exact for every DTD class with the smallest exact constant, and
  the only backend that checks straight off the event stream.  ``auto``
  serves every document on it;
* ``figure5`` — the paper's greedy recognizer; its verdict for PV-strong
  recursive DTDs is only "within depth D";
* ``machine`` — the exact GSS machine over object graphs; the semantics
  reference the kernel is differentially pinned against;
* ``earley`` — the Section 3.3 content-grammar reference; slow, the
  target of ``auto``'s 1-in-N audit slice.

:class:`BackendDispatcher` binds the verdict pipeline
(:func:`repro.service.pipeline.run_pipeline`: admission, routing, verdict)
to one compiled schema, numbers its documents for the audit slice, and
records every :class:`DispatchDecision` in a bounded log, so a serving
deployment can answer "why did request 4711 run on the Earley reference?"
after the fact.
"""

from __future__ import annotations

import threading
from collections import Counter, deque
from dataclasses import dataclass

from repro.config import CheckerConfig, DEFAULT_CONFIG
from repro.dtd.model import DTD
from repro.service.cache import VerdictCache
from repro.service.compiled import CompiledSchema
from repro.service.pipeline import (
    DEFAULT_POLICY,
    DispatchDecision,
    DispatchedVerdict,
    DispatchPolicy,
    cache_mode,
    run_pipeline,
)
from repro.service.registry import DEFAULT_REGISTRY, SchemaRegistry

__all__ = [
    "BackendInfo",
    "BACKENDS",
    "DispatchPolicy",
    "DEFAULT_POLICY",
    "DispatchDecision",
    "DispatchedVerdict",
    "BackendDispatcher",
]


@dataclass(frozen=True)
class BackendInfo:
    """One row of the backend contract (mirrored by ``docs/BACKENDS.md``).

    Attributes
    ----------
    name:
        The ``--algorithm`` token.
    exactness:
        What the verdict means: ``"exact"`` (Problem PV decided for every
        DTD class, no bound), ``"depth-bounded"`` (exact only up to the
        configured insertion depth; PV-strong recursive DTDs may need
        more), or ``"bounded-oracle"`` (the Definitions 2-3 brute-force
        search, only total for small bounds — a test oracle, not a
        serving backend).
    auto:
        Whether ``auto`` ever serves a document on it (the kernel, and
        the Earley reference for the audit slice).
    summary:
        One line of what the backend is.
    """

    name: str
    exactness: str
    auto: bool
    summary: str


#: Every verdict tier, fastest exact first.  ``docs/BACKENDS.md`` renders
#: this table; ``tests/test_docs.py`` fails if the two drift apart.
BACKENDS: tuple[BackendInfo, ...] = (
    BackendInfo(
        name="kernel",
        exactness="exact",
        auto=True,
        summary="merged-GSS semantics over dense integer tables and bitmasks",
    ),
    BackendInfo(
        name="machine",
        exactness="exact",
        auto=False,
        summary="the exact GSS machine over object graphs (semantics reference)",
    ),
    BackendInfo(
        name="figure5",
        exactness="depth-bounded",
        auto=False,
        summary="the paper's greedy Figure 5 recognizer (smallest per-node cost)",
    ),
    BackendInfo(
        name="earley",
        exactness="exact",
        auto=True,
        summary="the Section 3.3 content-grammar Earley reference (audit tier)",
    ),
    BackendInfo(
        name="naive",
        exactness="bounded-oracle",
        auto=False,
        summary="brute-force Ext(w, T) search straight from Definitions 2-3",
    ),
)


class BackendDispatcher:
    """The verdict pipeline for one schema, remembering every decision.

    Checkers come from the shared compiled artifact, so dispatching never
    recompiles schema work; the dispatcher is exactly as warm as the
    registry entry behind it.  Safe to share between threads.
    """

    def __init__(
        self,
        schema: CompiledSchema | DTD,
        policy: DispatchPolicy = DEFAULT_POLICY,
        config: CheckerConfig = DEFAULT_CONFIG,
        registry: SchemaRegistry | None = None,
        log_size: int = 256,
        verdict_cache: VerdictCache | int | None = None,
    ) -> None:
        if log_size < 0:
            raise ValueError("log_size must be >= 0")
        if isinstance(schema, DTD):
            schema = (registry or DEFAULT_REGISTRY).get(schema)
        self.schema = schema
        self.policy = policy
        self.config = config
        if isinstance(verdict_cache, int):
            verdict_cache = VerdictCache(verdict_cache) if verdict_cache > 0 else None
        self.verdict_cache = verdict_cache
        self._cache_mode = cache_mode("auto", policy)
        self._log: deque[DispatchDecision] = deque(maxlen=log_size)
        self._counts: Counter[str] = Counter()
        self._sequence = 0
        # The log, the counters and the sequence are the only shared
        # mutable state.
        self._lock = threading.Lock()

    def check_text(
        self,
        text: str,
        timings: dict[str, float] | None = None,
    ) -> tuple[DispatchedVerdict, bool]:
        """Check document *text*, serving repeats from the verdict cache.

        Returns ``(dispatched, cached)``.  A hit replays the stored
        :class:`DispatchedVerdict` without reading the text — the decision
        log and counters are untouched (the cache sits *in front of* the
        dispatcher), which is why callers surface the ``cached`` flag.
        On a miss the pipeline runs (*timings*, when given, receives its
        step durations) and the result is stored under
        ``(fingerprint, blake2b(text), auto:<admission>)``.
        """
        cache = self.verdict_cache
        key = None
        if cache is not None:
            key = cache.key(self.schema.fingerprint, text, self._cache_mode)
            hit = cache.get(key)
            if hit is not None:
                return hit, True
        with self._lock:
            self._sequence += 1
            sequence = self._sequence
        dispatched = run_pipeline(
            self.schema, text, self.policy, sequence=sequence,
            config=self.config, timings=timings,
        )
        with self._lock:
            self._log.append(dispatched.decision)
            self._counts[dispatched.decision.algorithm] += 1
        if key is not None:
            cache.put(key, dispatched)
        return dispatched, False

    # -- the audit log ------------------------------------------------------

    @property
    def decisions(self) -> tuple[DispatchDecision, ...]:
        """The most recent decisions, oldest first (bounded by ``log_size``)."""
        with self._lock:
            return tuple(self._log)

    @property
    def counts(self) -> dict[str, int]:
        """Total decisions per backend over the dispatcher's lifetime."""
        with self._lock:
            return dict(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BackendDispatcher({self.schema.fingerprint[:12]}..., "
            f"counts={self.counts})"
        )
