"""The one-time schema compilation artifact.

A :class:`CompiledSchema` bundles everything any checking backend derives
from a DTD — the reachability/classification analysis (Definition 5-8),
the Section 4.2 DAG model consumed by the exact :class:`PVMachine` and the
Figure-5 recognizer, the dense integer tables consumed by the kernel
backend, and (lazily, because only the Earley backend needs it) the
per-element content grammar of Section 3.3.  Once built, verdicts never
touch DTD text again; that is the paper's amortization argument made
into an object.

Identity is a **content hash** (:func:`schema_fingerprint`): the SHA-256
of the canonical serialization plus the designated root.  Two DTD sources
that differ only in formatting, comments or entity sugar parse to equal
models, serialize identically, and therefore share one artifact — the
property the registry's cache key relies on.

The artifact is immutable after construction (the lazy Earley members are
memoized, never rebound to different values) and **picklable**, so a
``multiprocessing`` pool can ship it to workers once at startup.  The
lazy members are dropped from the pickle: they are derived data and each
worker rebuilds them on first use only if its backend needs them.
"""

from __future__ import annotations

import hashlib
from time import perf_counter

from repro.core.coarse import CoarseSummary, compile_coarse
from repro.core.dag import DtdDag, build_dag
from repro.core.tables import CompiledTables, compile_tables
from repro.dtd.analysis import DTDAnalysis, DTDClass, analyze
from repro.dtd.model import DTD
from repro.dtd.serialize import dtd_to_text
from repro.grammar.build import build_content_cfg
from repro.grammar.earley import EarleyRecognizer

__all__ = [
    "CompiledSchema",
    "schema_fingerprint",
    "compile_schema",
    "clear_compile_caches",
]


def schema_fingerprint(dtd: DTD) -> str:
    """Content hash identifying *dtd* up to canonical serialization.

    The hash covers the declarations (in order) and the designated root —
    everything potential validity depends on — and deliberately excludes
    the cosmetic ``name``.  Equivalent serializations of the same DTD
    (whitespace, formatting) produce equal models and thus equal hashes.
    """
    canonical = f"root={dtd.root}\n{dtd_to_text(dtd)}"
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class CompiledSchema:
    """Everything derived from one DTD, compiled once.

    Attributes
    ----------
    dtd:
        The source model.
    fingerprint:
        :func:`schema_fingerprint` of the source — the registry cache key.
    analysis:
        Reachability table, productivity, recursion class (Defs 5-8).
    dag:
        ``DAG_T`` with both the flattened and the exact position tables.
    tables:
        The kernel backend's dense integer tables
        (:class:`~repro.core.tables.CompiledTables`).  Built eagerly by
        :func:`compile_schema` and carried inside the pickle (artifact
        format version 2); artifacts unpickled from the version-1 layout
        rebuild them lazily on first kernel use.
    coarse:
        The admission summary (:class:`~repro.core.coarse.CoarseSummary`)
        the coarse-to-fine pipeline pre-filters with.  Built eagerly by
        :func:`compile_schema` and carried inside the pickle (artifact
        format version 3); older artifacts rebuild it lazily on first
        admission use.
    compile_seconds:
        Wall time the compilation took (feeds registry statistics and the
        E10 benchmark's amortization table).
    """

    __slots__ = (
        "dtd",
        "fingerprint",
        "analysis",
        "dag",
        "compile_seconds",
        "_tables",
        "_coarse",
        "_content_cfg",
        "_earley",
        "_checkers",
    )

    def __init__(
        self,
        dtd: DTD,
        fingerprint: str,
        analysis: DTDAnalysis,
        dag: DtdDag,
        compile_seconds: float = 0.0,
        tables: CompiledTables | None = None,
        coarse: CoarseSummary | None = None,
    ) -> None:
        self.dtd = dtd
        self.fingerprint = fingerprint
        self.analysis = analysis
        self.dag = dag
        self.compile_seconds = compile_seconds
        self._tables = tables
        self._coarse = coarse
        self._content_cfg = None
        self._earley: EarleyRecognizer | None = None
        self._checkers: dict = {}

    # -- derived members ---------------------------------------------------

    @property
    def is_pv_strong(self) -> bool:
        return self.analysis.dtd_class is DTDClass.PV_STRONG_RECURSIVE

    def content_cfg(self):
        """The Section 3.3 per-element content grammar (built on demand)."""
        if self._content_cfg is None:
            self._content_cfg = build_content_cfg(self.dtd)
        return self._content_cfg

    def earley(self) -> EarleyRecognizer:
        """A shared Earley recognizer over :meth:`content_cfg`."""
        if self._earley is None:
            self._earley = EarleyRecognizer(self.content_cfg())
        return self._earley

    @property
    def tables(self) -> CompiledTables:
        """The kernel backend's dense tables (rebuilt if the pickle lacked
        them — i.e. the artifact predates format version 2)."""
        if self._tables is None:
            self._tables = compile_tables(self.dag)
        return self._tables

    @property
    def has_tables(self) -> bool:
        """Whether the tables are already present (no rebuild needed)."""
        return self._tables is not None

    @property
    def coarse(self) -> CoarseSummary:
        """The admission summary (rebuilt if the pickle lacked it — i.e.
        the artifact predates format version 3)."""
        if self._coarse is None:
            self._coarse = compile_coarse(self.dag)
        return self._coarse

    @property
    def has_coarse(self) -> bool:
        """Whether the admission summary is present (no rebuild needed)."""
        return self._coarse is not None

    def checker(self, algorithm: str = "machine", config=None):
        """The :class:`~repro.core.pv.PVChecker` backed by this artifact.

        Checkers are immutable, so one per ``(algorithm, config)`` is
        memoized on the artifact and lives exactly as long as it does.
        """
        from repro.config import DEFAULT_CONFIG
        from repro.core.pv import PVChecker

        if config is None:
            config = DEFAULT_CONFIG
        checker = self._checkers.get((algorithm, config))
        if checker is None:
            checker = PVChecker(
                self.dtd,
                config=config,
                algorithm=algorithm,  # type: ignore[arg-type]
                compiled=self,
            )
            checker = self._checkers.setdefault((algorithm, config), checker)
        return checker

    # -- pickling ----------------------------------------------------------

    def __getstate__(self):
        return {
            "dtd": self.dtd,
            "fingerprint": self.fingerprint,
            "analysis": self.analysis,
            "dag": self.dag,
            "compile_seconds": self.compile_seconds,
            "tables": self._tables,
            "coarse": self._coarse,
        }

    def __setstate__(self, state) -> None:
        self.dtd = state["dtd"]
        self.fingerprint = state["fingerprint"]
        self.analysis = state["analysis"]
        self.dag = state["dag"]
        self.compile_seconds = state["compile_seconds"]
        # Version-1 artifacts predate the kernel tables and version-1/-2
        # artifacts predate the admission summary; absent means "rebuild
        # lazily", so old pickles keep loading.
        self._tables = state.get("tables")
        self._coarse = state.get("coarse")
        self._content_cfg = None
        self._earley = None
        self._checkers = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledSchema({self.dtd.name!r}, root={self.dtd.root!r}, "
            f"fingerprint={self.fingerprint[:12]}...)"
        )


def compile_schema(dtd: DTD, fingerprint: str | None = None) -> CompiledSchema:
    """Compile *dtd* into a fresh :class:`CompiledSchema`.

    Builds ``DAG_T`` directly (no memoization) so the reported
    ``compile_seconds`` is the honest one-time cost; callers wanting
    sharing go through :class:`~repro.service.registry.SchemaRegistry`,
    which *is* the cache.
    """
    started = perf_counter()
    dag = DtdDag(dtd)
    tables = compile_tables(dag)
    coarse = compile_coarse(dag)
    elapsed = perf_counter() - started
    return CompiledSchema(
        dtd=dtd,
        fingerprint=fingerprint or schema_fingerprint(dtd),
        analysis=dag.analysis,
        dag=dag,
        compile_seconds=elapsed,
        tables=tables,
        coarse=coarse,
    )


def clear_compile_caches() -> None:
    """Drop every process-wide memoized compilation product.

    Clears the ``analyze``/``build_dag`` LRU caches (and nothing else).
    Used by cold-start benchmarks so a "cold" arm really recompiles, and
    by long-lived services that want to bound memory after schema churn.
    """
    analyze.cache_clear()
    build_dag.cache_clear()
