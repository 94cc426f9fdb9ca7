"""The throughput-oriented service layer.

The paper's promise is *amortized* schema work: after a one-time
compilation of the DTD (parse → analyze → ``DAG_T`` → machine tables →
content grammars) every potential-validity verdict is answered from the
compiled artifact alone.  The library layers below this package deliver
the per-verdict side of that promise; this package delivers the
amortization and the bulk-throughput side:

* :mod:`repro.service.compiled` — :class:`CompiledSchema`, the immutable
  one-time compilation artifact, keyed by a content hash of the DTD.
* :mod:`repro.service.registry` — :class:`SchemaRegistry`, an LRU cache of
  compiled artifacts with hit/miss/eviction statistics.  A process-wide
  default registry backs every :class:`~repro.core.pv.PVChecker`
  construction, so repeated checkers over the same schema share one
  artifact instead of recompiling.
* :mod:`repro.service.batch` — :class:`BatchChecker`, which fans a corpus
  of documents out over a ``multiprocessing`` pool.  Workers receive the
  compiled artifact once (at pool start), not per document, and the
  result carries aggregate throughput statistics.
* :mod:`repro.service.store` — :class:`ArtifactStore`, the persistent
  on-disk artifact cache (atomic writes, corruption-tolerant loads) that
  backs a registry across process restarts.
* :mod:`repro.service.pipeline` — :func:`run_pipeline`, the one verdict
  pipeline every surface calls: coarse admission, then the fused
  kernel (``auto``) or a named backend, with a 1-in-N audit slice.
* :mod:`repro.service.dispatch` — the backend contract and
  :class:`BackendDispatcher`, the pipeline bound to one schema with an
  auditable decision log.

This is the architectural seam scaling work builds on: anything that can
obtain a :class:`CompiledSchema` — from memory, disk, or a peer — can
answer verdicts without ever touching DTD text again.  The asyncio
serving front over this layer lives in :mod:`repro.server`.
"""

from repro.service.batch import BatchChecker, BatchItem, BatchResult, check_batch
from repro.service.compiled import (
    CompiledSchema,
    clear_compile_caches,
    compile_schema,
    schema_fingerprint,
)
from repro.service.dispatch import (
    DEFAULT_POLICY,
    BackendDispatcher,
    DispatchDecision,
    DispatchedVerdict,
    DispatchPolicy,
)
from repro.service.pipeline import run_pipeline
from repro.service.registry import (
    DEFAULT_REGISTRY,
    RegistryStats,
    SchemaRegistry,
    default_registry,
)
from repro.service.store import (
    ArtifactStore,
    StoreStats,
    default_store_dir,
)

__all__ = [
    "CompiledSchema",
    "compile_schema",
    "schema_fingerprint",
    "clear_compile_caches",
    "SchemaRegistry",
    "RegistryStats",
    "DEFAULT_REGISTRY",
    "default_registry",
    "BatchChecker",
    "BatchItem",
    "BatchResult",
    "check_batch",
    "ArtifactStore",
    "StoreStats",
    "default_store_dir",
    "BackendDispatcher",
    "DispatchPolicy",
    "DEFAULT_POLICY",
    "DispatchDecision",
    "DispatchedVerdict",
    "run_pipeline",
]
