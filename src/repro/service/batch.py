"""Parallel batch potential-validity checking.

:class:`BatchChecker` turns the per-document :class:`~repro.core.pv.PVChecker`
into a corpus engine: one compiled artifact, N documents, optionally a
``multiprocessing`` pool.  The design follows the streaming/bulk-validation
literature's cost model — schema compilation is the fixed cost, documents
are the traffic — so the artifact crosses the process boundary exactly
once per worker (via the pool initializer), and each task message carries
only the document text.

Worker protocol
---------------
Documents are shipped as serialized XML rather than pickled DOM trees:
the text form is smaller, immune to recursion-depth pickle hazards on
deep trees, and makes ``check_paths`` a zero-copy dispatch (workers read
and parse locally).  Results come back as plain
:class:`~repro.core.pv.PVVerdict` dataclasses.  A document that fails to
parse does not poison the batch — it yields a :class:`BatchItem` with
``error`` set and counts as "not potentially valid" in the aggregate.

With ``workers <= 1`` everything runs inline on one shared checker — the
same code path the differential tests compare against — so worker count
can never change a verdict, only the wall time.

Every document, inline or in a worker, goes through the one verdict
pipeline (:func:`repro.service.pipeline.run_pipeline`), so the
coarse-to-fine **admission stage** composes with both paths: with
``admission="on"`` definite coarse outcomes are served without touching
the full backend (``BatchItem.coarse`` is set), and only the uncertain
middle escalates; with ``"audit"`` the full backend always runs and
disagreements are flagged per item.  The coarse summary rides inside the
compiled artifact, so pool workers admit locally for free.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Iterable, Sequence

from repro.config import CheckerConfig, DEFAULT_CONFIG
from repro.core.pv import Algorithm, PVVerdict
from repro.dtd.model import DTD
from repro.errors import ReproError
from repro.service.cache import VerdictCache
from repro.service.compiled import CompiledSchema
from repro.service.pipeline import (
    DispatchedVerdict,
    DispatchPolicy,
    cache_mode,
    run_pipeline,
)
from repro.service.registry import DEFAULT_REGISTRY, RegistryStats, SchemaRegistry
from repro.xmlmodel.serialize import to_xml
from repro.xmlmodel.tree import XmlDocument

__all__ = ["BatchItem", "BatchResult", "BatchChecker", "check_batch"]


@dataclass(frozen=True)
class BatchItem:
    """The outcome for one document of a batch.

    ``admission`` is the coarse outcome when the admission stage ran
    (``None`` when off); ``coarse`` marks verdicts the admission stage
    served without running a full backend; ``admission_mismatch`` flags
    an audit-mode disagreement between a definite coarse outcome and the
    full verdict (which is the one served).
    """

    index: int
    label: str
    verdict: PVVerdict | None
    error: str | None = None
    admission: str | None = None
    coarse: bool = False
    admission_mismatch: bool = False

    @property
    def ok(self) -> bool:
        """True iff the document parsed and is potentially valid."""
        return self.error is None and bool(self.verdict)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.error is not None:
            return f"{self.label}: error: {self.error}"
        assert self.verdict is not None
        if self.verdict.potentially_valid:
            return f"{self.label}: potentially valid"
        return (
            f"{self.label}: NOT potentially valid "
            f"({len(self.verdict.failures)} blocked node(s))"
        )


@dataclass(frozen=True)
class BatchResult:
    """Per-document verdicts plus aggregate throughput statistics."""

    items: tuple[BatchItem, ...]
    elapsed: float
    workers: int
    algorithm: str
    fingerprint: str
    #: One registry snapshot per pool worker (empty when checked inline).
    worker_stats: tuple[RegistryStats, ...] = field(default=())
    #: The admission mode the batch ran under (``off``/``on``/``audit``).
    admission: str = "off"

    @property
    def pool_registry(self) -> RegistryStats | None:
        """Counter-wise sum of the workers' registry statistics.

        ``None`` for inline runs; for pooled runs, ``hits`` counts the
        documents each worker answered from its warm artifact, so the
        parent's single compile plus these hits is the whole pool's cache
        story.
        """
        if not self.worker_stats:
            return None
        total = RegistryStats()
        for stats in self.worker_stats:
            total = total.merged(stats)
        return total

    @property
    def total(self) -> int:
        return len(self.items)

    @property
    def ok_count(self) -> int:
        return sum(1 for item in self.items if item.ok)

    @property
    def rejected_count(self) -> int:
        """Documents that parsed but are not potentially valid."""
        return sum(
            1 for item in self.items if item.error is None and not item.ok
        )

    @property
    def error_count(self) -> int:
        return sum(1 for item in self.items if item.error is not None)

    @property
    def coarse_count(self) -> int:
        """Documents the admission stage served without a full backend."""
        return sum(1 for item in self.items if item.coarse)

    @property
    def mismatch_count(self) -> int:
        """Audit-mode coarse/full disagreements (should stay at zero)."""
        return sum(1 for item in self.items if item.admission_mismatch)

    @property
    def all_ok(self) -> bool:
        return self.ok_count == self.total

    @property
    def documents_per_second(self) -> float:
        return self.total / self.elapsed if self.elapsed > 0 else float("inf")

    def summary(self) -> str:
        """One-line aggregate the batch CLI prints after the verdicts."""
        line = (
            f"{self.total} document(s): {self.ok_count} potentially valid, "
            f"{self.rejected_count} not, {self.error_count} error(s) — "
            f"{self.elapsed:.3f}s with {self.workers} worker(s) "
            f"({self.documents_per_second:.1f} docs/s, "
            f"algorithm={self.algorithm})"
        )
        if self.admission != "off":
            line += (
                f" [admission {self.admission}: {self.coarse_count} "
                f"short-circuited, {self.mismatch_count} mismatch(es)]"
            )
        return line


# -- worker-side state ------------------------------------------------------
#
# Set once per worker process by the pool initializer; tasks then carry only
# (index, label, xml_text).  Top-level (module) names so the fork/spawn
# pickling of the initializer and task function resolves by reference.

_WORKER_SCHEMA: CompiledSchema | None = None
_WORKER_REGISTRY: SchemaRegistry | None = None
_WORKER_ALGORITHM: str = "machine"
_WORKER_POLICY: DispatchPolicy = DispatchPolicy()
_WORKER_CONFIG: CheckerConfig = DEFAULT_CONFIG


def _init_worker(
    schema: CompiledSchema, algorithm: str, config: CheckerConfig, admission: str
) -> None:
    global _WORKER_SCHEMA, _WORKER_REGISTRY, _WORKER_ALGORITHM
    global _WORKER_POLICY, _WORKER_CONFIG
    # A fresh registry (never the fork-inherited process default, whose
    # counters belong to the parent) seeded with the shipped artifact:
    # its statistics then describe exactly this worker's cache traffic.
    _WORKER_REGISTRY = SchemaRegistry()
    _WORKER_REGISTRY.put(schema)
    # The coarse summary travels inside the pickled artifact, so each
    # worker admits locally without recompiling anything.
    _WORKER_SCHEMA = schema
    _WORKER_ALGORITHM = algorithm
    _WORKER_POLICY = DispatchPolicy(admission=admission)
    _WORKER_CONFIG = config
    schema.checker(algorithm, config)  # fail at pool start, not per item


def _check_one(task: tuple[int, str, str]) -> tuple[BatchItem, int, RegistryStats]:
    index, label, text = task
    assert _WORKER_SCHEMA is not None, "pool initializer did not run"
    assert _WORKER_REGISTRY is not None
    # The per-document cache access, recorded: each task is one lookup of
    # the shipped artifact, so pool-wide hit counts mean "documents
    # answered without recompiling anywhere".
    _WORKER_REGISTRY.lookup(_WORKER_SCHEMA.fingerprint, count=True)
    item = _check_text(
        _WORKER_SCHEMA, _WORKER_ALGORITHM, _WORKER_POLICY, _WORKER_CONFIG,
        index, label, text,
    )
    return item, os.getpid(), _WORKER_REGISTRY.stats


def _check_text(
    schema: CompiledSchema,
    algorithm: str,
    policy: DispatchPolicy,
    config: CheckerConfig,
    index: int,
    label: str,
    text: str,
    cache: VerdictCache | None = None,
) -> BatchItem:
    """One document through the verdict pipeline, as a :class:`BatchItem`.

    A verdict cache — keyed by schema fingerprint, content digest and
    mode — serves repeats without reading the text.  Parse and check
    failures become item errors, never batch failures.
    """
    key = None
    dispatched: DispatchedVerdict | None = None
    if cache is not None:
        key = cache.key(schema.fingerprint, text, cache_mode(algorithm, policy))
        dispatched = cache.get(key)
    if dispatched is None:
        try:
            dispatched = run_pipeline(schema, text, policy, algorithm, config=config)
        except ReproError as error:
            return BatchItem(
                index=index, label=label, verdict=None, error=str(error)
            )
        if cache is not None:
            cache.put(key, dispatched)
    decision = dispatched.decision
    return BatchItem(
        index=index,
        label=label,
        verdict=dispatched.verdict,
        admission=decision.admission,
        coarse=decision.algorithm == "coarse",
        admission_mismatch=decision.admission_mismatch,
    )


class BatchChecker:
    """Checks document corpora against one compiled schema.

    Parameters
    ----------
    schema:
        A :class:`CompiledSchema`, or a bare :class:`DTD` which is resolved
        through *registry* (the process default unless overridden).
    algorithm:
        Backend for every document
        (``machine``/``kernel``/``figure5``/``earley``).
    workers:
        Pool size.  ``1`` (the default) checks inline in this process;
        ``N > 1`` forks a pool whose workers each receive the compiled
        artifact once.
    admission:
        The coarse-to-fine admission stage: ``"off"`` (default), ``"on"``
        (definite coarse outcomes short-circuit the full backend), or
        ``"audit"`` (coarse runs and is compared, full verdict served).
    verdict_cache:
        A :class:`VerdictCache` (or a positive int size; ``0``/``None``
        disables) serving repeat documents in O(1) on the inline path.
        Pool workers never share it — cache state lives in the parent
        process only.
    """

    def __init__(
        self,
        schema: CompiledSchema | DTD,
        algorithm: Algorithm = "machine",
        workers: int = 1,
        config: CheckerConfig = DEFAULT_CONFIG,
        registry: SchemaRegistry | None = None,
        admission: str = "off",
        verdict_cache: VerdictCache | int | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        policy = DispatchPolicy(admission=admission)
        if isinstance(schema, DTD):
            schema = (registry or DEFAULT_REGISTRY).get(schema)
        self.schema = schema
        self.algorithm: Algorithm = algorithm
        self.workers = workers
        self.config = config
        self.admission = admission
        self.policy = policy
        if isinstance(verdict_cache, int):
            verdict_cache = VerdictCache(verdict_cache) if verdict_cache > 0 else None
        self.verdict_cache = verdict_cache

    # -- corpus entry points -----------------------------------------------

    def check_texts(
        self, texts: Sequence[str], labels: Sequence[str] | None = None
    ) -> BatchResult:
        """Check serialized documents (the native batch representation)."""
        if labels is None:
            labels = [f"doc[{index}]" for index in range(len(texts))]
        if len(labels) != len(texts):
            raise ValueError("labels must pair 1:1 with texts")
        tasks = [
            (index, label, text)
            for index, (label, text) in enumerate(zip(labels, texts))
        ]
        return self._run(tasks)

    def check_paths(self, paths: Iterable[str | Path]) -> BatchResult:
        """Check documents stored in files; labels are the paths.

        An unreadable file (missing, permissions, a directory) does not
        abort the batch: it yields a :class:`BatchItem` with ``error`` set,
        like a document that fails to parse.
        """
        tasks: list[tuple[int, str, str]] = []
        unreadable: list[BatchItem] = []
        for index, path in enumerate(Path(path) for path in paths):
            try:
                tasks.append((index, str(path), path.read_text()))
            except OSError as error:
                unreadable.append(
                    BatchItem(
                        index=index, label=str(path), verdict=None, error=str(error)
                    )
                )
        return self._run(tasks, pre_errors=unreadable)

    def _run(
        self,
        tasks: list[tuple[int, str, str]],
        pre_errors: list[BatchItem] | None = None,
    ) -> BatchResult:
        started = perf_counter()
        worker_stats: tuple[RegistryStats, ...] = ()
        if self.workers == 1 or len(tasks) <= 1:
            used_workers = 1
            self.schema.checker(self.algorithm, self.config)  # fail fast
            items = [
                _check_text(
                    self.schema, self.algorithm, self.policy, self.config,
                    *task, cache=self.verdict_cache,
                )
                for task in tasks
            ]
        else:
            used_workers = self.workers
            items, worker_stats = self._check_parallel(tasks)
        elapsed = perf_counter() - started
        items.extend(pre_errors or ())
        items.sort(key=lambda item: item.index)
        return BatchResult(
            items=tuple(items),
            elapsed=elapsed,
            workers=used_workers,
            algorithm=self.algorithm,
            fingerprint=self.schema.fingerprint,
            worker_stats=worker_stats,
            admission=self.admission,
        )

    def check_documents(self, documents: Sequence[XmlDocument]) -> BatchResult:
        """Check in-memory documents (serialized for worker transport)."""
        return self.check_texts([to_xml(document) for document in documents])

    # -- the pool -----------------------------------------------------------

    def _check_parallel(
        self, tasks: list[tuple[int, str, str]]
    ) -> tuple[list[BatchItem], tuple[RegistryStats, ...]]:
        context = multiprocessing.get_context()
        chunksize = max(1, len(tasks) // (self.workers * 4))
        with context.Pool(
            processes=self.workers,
            initializer=_init_worker,
            initargs=(self.schema, self.algorithm, self.config, self.admission),
        ) as pool:
            outcomes = list(pool.map(_check_one, tasks, chunksize=chunksize))
        items = [item for item, _pid, _stats in outcomes]
        # Each task ships its worker's running counters; the last snapshot
        # per pid (the one with the most lookups) is that worker's total.
        latest: dict[int, RegistryStats] = {}
        for _item, pid, stats in outcomes:
            current = latest.get(pid)
            if current is None or stats.lookups > current.lookups:
                latest[pid] = stats
        return items, tuple(latest[pid] for pid in sorted(latest))


def check_batch(
    dtd: DTD | CompiledSchema,
    documents: Sequence[XmlDocument],
    algorithm: Algorithm = "machine",
    workers: int = 1,
    config: CheckerConfig = DEFAULT_CONFIG,
    admission: str = "off",
) -> BatchResult:
    """One-call convenience: batch-check *documents* against *dtd*."""
    checker = BatchChecker(
        dtd,
        algorithm=algorithm,
        workers=workers,
        config=config,
        admission=admission,
    )
    return checker.check_documents(documents)
