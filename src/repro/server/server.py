"""The asyncio validation server.

:class:`ValidationServer` is the long-running serving front over the
service layer: one warm :class:`~repro.service.registry.SchemaRegistry`
(optionally backed by a persistent
:class:`~repro.service.store.ArtifactStore`) answers potential-validity
requests for many concurrent connections, speaking the newline-delimited
JSON protocol of :mod:`repro.server.protocol` over TCP and/or a Unix
domain socket.

Execution model
---------------
The event loop owns all registry and schema-resolution state, and the
verdict cache: a repeat document is answered there without leaving the
loop.  Every other check runs the one verdict pipeline
(:func:`repro.service.pipeline.run_pipeline`) off-loop:

* ``workers == 0`` — each check runs on a thread (``asyncio.to_thread``).
  The artifact is shared in-process; fine for tests and modest loads.
* ``workers > 0`` — checks run on a :class:`ProcessPoolExecutor` whose
  workers hold their own fingerprint-keyed artifact caches.  A task
  message normally carries only ``(fingerprint, document)``; the compiled
  artifact itself is shipped (pickled) to the pool **only when a worker
  reports a miss**, and workers with a disk store load by fingerprint
  without any shipping at all.  This is the batch layer's
  ship-the-artifact-once discipline extended to a long-lived pool.

Shutdown is graceful by default: :meth:`ValidationServer.stop` closes the
listeners, lets every in-flight request finish and its response flush,
then tears down connections and the pool.

:class:`ServerThread` runs a server on a dedicated event-loop thread —
the form the test suite, the benchmark, and embedders use.
"""

from __future__ import annotations

import asyncio
import base64
import binascii
import errno
import os
import pickle
import socket
import stat
import threading
from collections import Counter, OrderedDict
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import replace as dataclass_replace
from time import monotonic
from typing import Any

from repro.config import CheckerConfig, DEFAULT_CONFIG
from repro.core.classify import classify_dtd
from repro.core.coarse import encode_coarse
from repro.dtd.parser import parse_dtd
from repro.errors import ReproError, XmlError
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry, Stopwatch
from repro.obs.promtext import render as render_prometheus
from repro.server import protocol
from repro.server.client import ServerError, ValidationClient
from repro.server.gossip import DEFAULT_PROBE_INTERVAL, GossipAgent
from repro.server.placement import Member, PlacementView, parse_member
from repro.server.protocol import ProtocolError, Request
from repro.service.cache import VerdictCache
from repro.service.compiled import CompiledSchema
from repro.service.pipeline import (
    DEFAULT_POLICY,
    DispatchPolicy,
    cache_mode,
    run_pipeline,
)
from repro.service.registry import SchemaRegistry
from repro.service.store import ArtifactStore, decode_artifact, encode_artifact
from repro.validity.validator import DTDValidator
from repro.xmlmodel.parser import parse_xml

__all__ = ["ValidationServer", "ServerThread", "ArtifactMissError", "HANDLED_OPS"]

#: Every op :class:`ValidationServer` dispatches.  Kept in lockstep with
#: :data:`repro.server.protocol.OPS` (and with ``docs/PROTOCOL.md``) by a
#: test that diffs the three.
HANDLED_OPS = (
    "check",
    "classify",
    "validate",
    "stats",
    "check-batch",
    "put-artifact",
    "get-artifact",
    "get-coarse",
    "health",
    "ring-config",
    "metrics",
    "probe",
)

#: Socket timeout for the indirect-probe relay's reach attempt.
_PROBE_TIMEOUT = 2.0

#: Default for how many of the most-requested fingerprints ``stats``
#: reports — the list a joining shard's prefetch is computed from.
#: Configurable per server via ``hot_limit`` / ``serve --hot-limit``.
HOT_FINGERPRINTS = 32

#: The request phases the server times into ``repro_phase_seconds``
#: (``docs/OBSERVABILITY.md`` defines each).
_PHASES = ("parse", "queue", "admission", "verdict", "artifact")

#: The pipeline policy for requests that name their backend: admission
#: and the audit slice belong to ``auto`` traffic only.
_NAMED_POLICY = DispatchPolicy()

#: Bound on the per-fingerprint request counter; past this the counter is
#: compacted to its hottest half (exact counts are a prefetch heuristic,
#: not an accounting invariant).
_HOT_COUNTER_SIZE = 4096

#: Bound on the (dtd text, root) -> fingerprint memo that lets warm
#: requests skip DTD re-parsing entirely.
_TEXT_INDEX_SIZE = 1024

#: Bound on each pool worker's fingerprint-keyed caches.
_POOL_CACHE_SIZE = 64

#: Above this many fingerprints the shipped-hint set is reset; correctness
#: is unaffected (a wrongly assumed-shipped artifact triggers the
#: ArtifactMissError retry, which always ships).
_SHIPPED_HINT_SIZE = 4096


class _BoundedCache(OrderedDict):
    """A small LRU mapping: inserting past *maxsize* evicts the oldest.

    The server and its pool workers key derived objects (validators,
    artifacts) by schema fingerprint; without a
    bound, every schema ever served would stay pinned in memory and
    defeat the registry's LRU budget.
    """

    def __init__(self, maxsize: int) -> None:
        super().__init__()
        self.maxsize = maxsize

    def __setitem__(self, key: Any, value: Any) -> None:
        super().__setitem__(key, value)
        self.move_to_end(key)
        while len(self) > self.maxsize:
            self.popitem(last=False)

    def get(self, key: Any, default: Any = None) -> Any:
        value = super().get(key, default)
        if key in self:
            self.move_to_end(key)
        return value


#: Sentinel :meth:`ValidationServer._read_line` returns for an over-limit
#: request line (distinct from ``None``, which means EOF/shutdown).
_OVERLONG = b"\x00overlong\x00"


def _remove_stale_unix_socket(path: str) -> None:
    """Unlink *path* when it is a socket nobody is listening on.

    A crashed server leaves its socket file behind, and binding over it
    raises ``EADDRINUSE`` even though no process serves it.  Probing with
    a connect distinguishes the two cases: connection refused (or a
    similar failure) means stale — remove it; a successful connect means
    another live server owns the path — leave it so the bind fails loudly.
    Non-socket files are never touched: clobbering a user's regular file
    because they mistyped a path would be worse than the bind error.
    """
    try:
        mode = os.stat(path).st_mode
    except OSError:
        return  # nothing there: the normal fresh-start case
    if not stat.S_ISSOCK(mode):
        return
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        probe.settimeout(1.0)
        probe.connect(path)
    except OSError:
        try:
            os.unlink(path)
        except OSError as error:
            if error.errno != errno.ENOENT:
                raise
    else:
        raise OSError(
            errno.EADDRINUSE,
            f"unix socket {path!r} is in use by a live server",
        )
    finally:
        probe.close()


class ArtifactMissError(Exception):
    """A pool worker does not hold the artifact for this fingerprint.

    Crosses the process boundary as the worker's way of asking the server
    to ship the pickled artifact along with the retry.
    """

    def __init__(self, fingerprint: str) -> None:
        super().__init__(fingerprint)
        self.fingerprint = fingerprint


# -- pool-worker state -------------------------------------------------------
#
# One artifact cache per worker process, keyed by fingerprint.  Module-level
# so the initializer and task function pickle by reference.

_POOL_STORE: ArtifactStore | None = None
_POOL_SCHEMAS: "_BoundedCache" = _BoundedCache(_POOL_CACHE_SIZE)


def _init_pool_worker(store_dir: str | None) -> None:
    global _POOL_STORE
    _POOL_STORE = ArtifactStore(store_dir) if store_dir else None


def _pool_schema(fingerprint: str, blob: bytes | None) -> CompiledSchema:
    schema = _POOL_SCHEMAS.get(fingerprint)
    if schema is None and blob is not None:
        schema = pickle.loads(blob)
        _POOL_SCHEMAS[fingerprint] = schema
    if schema is None and _POOL_STORE is not None:
        schema = _POOL_STORE.load(fingerprint)
        if schema is not None:
            _POOL_SCHEMAS[fingerprint] = schema
    if schema is None:
        raise ArtifactMissError(fingerprint)
    return schema


def _check_fields(
    schema: CompiledSchema,
    doc_text: str,
    algorithm: str,
    policy: DispatchPolicy,
    sequence: int,
    config: CheckerConfig,
) -> dict[str, Any]:
    """One document through the verdict pipeline, as response fields.

    Runs on a worker thread or inside a pool worker, so the two execution
    modes cannot differ.  Step durations travel back as plain floats (no
    cross-process clock is assumed); the server counts dispatch and
    admission metrics from these fields on its side of the process
    boundary (a pool worker's registry is invisible to scrapers).
    """
    timings: dict[str, Any] = {}
    try:
        dispatched = run_pipeline(
            schema, doc_text, policy, algorithm, sequence, config, timings
        )
    except XmlError as error:
        return {"error": ("bad-document", str(error))}
    decision = dispatched.decision
    timings["backend"] = decision.algorithm
    fields: dict[str, Any] = {
        "verdict": protocol.verdict_fields(dispatched.verdict),
        "algorithm": decision.algorithm,
        "reason": decision.reason,
        "timings": timings,
    }
    if decision.admission is not None:
        fields["admission"] = decision.admission
        if decision.admission_mismatch:
            fields["admission_mismatch"] = True
    return fields


def _pool_check(
    fingerprint: str,
    blob: bytes | None,
    doc_text: str,
    algorithm: str,
    policy: DispatchPolicy,
    sequence: int,
    config: CheckerConfig,
) -> dict[str, Any]:
    """:func:`_check_fields` in a pool worker, by artifact fingerprint."""
    schema = _pool_schema(fingerprint, blob)
    return _check_fields(schema, doc_text, algorithm, policy, sequence, config)


class ValidationServer:
    """A long-running NDJSON potential-validity service.

    Dispatches every op of the wire protocol (:data:`HANDLED_OPS`;
    specified in full in ``docs/PROTOCOL.md``): the verdict ops
    ``check`` / ``classify`` / ``validate``, the streaming
    ``check-batch``, ``stats`` (including the ``hot`` most-requested
    fingerprint list that feeds a ring coordinator's join-prefetch),
    the artifact hand-off pair ``put-artifact`` / ``get-artifact`` (and
    the lightweight ``get-coarse`` admission-summary fetch), the
    ``health`` liveness probe, and ``ring-config``.  When a ring view
    has been published (:meth:`set_ring_view` or the ``ring-config``
    op), every success reply is stamped with the view's epoch and a
    request routed under an older epoch is answered ``wrong-epoch``
    together with the current membership.

    Parameters
    ----------
    registry:
        The warm artifact cache shared by every connection.  A fresh one
        is created when omitted (optionally backed by *store*).
    store:
        Persistent artifact store.  Attached to the registry (so restarts
        skip recompilation) and, when a process pool is used, passed to
        workers so they can load artifacts by fingerprint from disk.
    workers:
        ``0`` checks on threads in this process; ``N > 0`` uses a process
        pool of that size.
    default_algorithm:
        Backend when a request names none; ``"auto"`` (the default) serves
        on the fused kernel (see :mod:`repro.service.pipeline`).
    admission:
        Overrides ``policy.admission`` (``"off"`` / ``"on"`` / ``"audit"``)
        — the coarse-to-fine pre-filter that runs before the verdict on
        ``auto`` checks.  The policy (admission
        mode included) pickles to pool workers, so the stage behaves
        identically on threads and on a process pool.
    verdict_cache:
        Entries in the verdict memo cache (``serve --verdict-cache N``);
        ``0`` (the default) disables it.  Repeat documents — same schema
        fingerprint, same bytes, same effective algorithm — are answered
        on the event loop without parsing, the reply stamped ``"cached":
        true``; hits, misses and evictions feed
        ``repro_verdict_cache_total``.
    """

    def __init__(
        self,
        registry: SchemaRegistry | None = None,
        store: ArtifactStore | None = None,
        workers: int = 0,
        config: CheckerConfig = DEFAULT_CONFIG,
        policy: DispatchPolicy = DEFAULT_POLICY,
        default_algorithm: str = "auto",
        admission: str | None = None,
        metrics: MetricsRegistry | None = None,
        events: EventLog | None = None,
        slow_ms: float | None = None,
        hot_limit: int = HOT_FINGERPRINTS,
        gossip: bool = False,
        gossip_interval: float = DEFAULT_PROBE_INTERVAL,
        gossip_seeds: tuple[Member | str, ...] = (),
        verdict_cache: int = 0,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if verdict_cache < 0:
            raise ValueError("verdict_cache must be >= 0 (0 disables)")
        if gossip_interval <= 0:
            raise ValueError("gossip_interval must be > 0")
        if default_algorithm not in protocol.ALGORITHMS:
            raise ValueError(f"unknown default algorithm {default_algorithm!r}")
        if hot_limit < 1:
            raise ValueError("hot_limit must be >= 1")
        if slow_ms is not None and slow_ms < 0:
            raise ValueError("slow_ms must be >= 0")
        if registry is None:
            registry = SchemaRegistry(store=store)
        elif store is not None and registry.store is None:
            registry.attach_store(store)
        self.registry = registry
        self.store = store if store is not None else registry.store
        self.workers = workers
        self.config = config
        if admission is not None:
            # replace() re-runs DispatchPolicy validation, so a bad mode
            # fails here, not on the first request.
            policy = dataclass_replace(policy, admission=admission)
        self.policy = policy
        self.default_algorithm = default_algorithm
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.events = events if events is not None else EventLog()
        self.slow_ms = slow_ms
        self.hot_limit = hot_limit
        # Handles are resolved once here, so the per-request cost of a
        # metric is a lock-guarded add, not a registry lookup.
        m = self.metrics
        self._m_requests = {
            op: m.counter("repro_requests_total", op=op) for op in protocol.OPS
        }
        self._m_latency = {
            op: m.histogram("repro_request_seconds", op=op)
            for op in protocol.OPS
        }
        self._m_errors = {
            code: m.counter("repro_errors_total", code=code)
            for code in protocol.ERROR_CODES
        }
        self._m_phases = {
            phase: m.histogram("repro_phase_seconds", phase=phase)
            for phase in _PHASES
        }
        self._m_verdict = {
            backend: m.histogram("repro_verdict_seconds", backend=backend)
            for backend in protocol.ALGORITHMS
            if backend != "auto"
        }
        self._m_dispatch = {
            backend: m.counter("repro_dispatch_total", backend=backend)
            for backend in (*protocol.ALGORITHMS, "coarse")
            if backend != "auto"
        }
        self._m_admission = {
            outcome: m.counter("repro_admission_total", outcome=outcome)
            for outcome in ("accept", "reject", "uncertain")
        }
        self._m_admission_seconds = m.histogram("repro_admission_seconds")
        self._m_admission_mismatch = m.counter(
            "repro_admission_mismatches_total"
        )
        self._m_cache = {
            outcome: m.counter("repro_verdict_cache_total", outcome=outcome)
            for outcome in ("hit", "miss", "evict")
        }
        self._m_parse_seconds = m.histogram("repro_parse_seconds")
        self._m_batch_items = m.counter("repro_batch_items_total")
        self._m_slow = m.counter("repro_slow_requests_total")
        self._m_traced = m.counter("repro_traced_requests_total")
        self._g_inflight = m.gauge("repro_inflight")
        self._g_connections = m.gauge("repro_connections")
        self.registry.attach_metrics(m)
        if self.store is not None:
            self.store.attach_observability(metrics=m, events=self.events)
        self._verdict_cache = (
            VerdictCache(verdict_cache) if verdict_cache > 0 else None
        )
        self._pool: ProcessPoolExecutor | None = None
        self._shipped: set[str] = set()
        # Derived-object caches hold compiled artifacts alive; bounding
        # them by the registry's own budget keeps a long-lived server's
        # memory proportional to maxsize, not to every schema ever seen.
        self._validators: _BoundedCache = _BoundedCache(registry.maxsize)
        # Numbers auto checks for the policy's 1-in-N audit slice.
        self._sequence = 0
        self._text_index: OrderedDict[tuple[str, str | None], str] = OrderedDict()
        self._dispatch_counts: Counter[str] = Counter()
        self._servers: list[asyncio.AbstractServer] = []
        self._conn_tasks: set[asyncio.Task] = set()
        self._closing: asyncio.Event | None = None
        self._unix_path: str | None = None
        self._tcp_address: tuple[str, int] | None = None
        self._requests = 0
        self._errors = 0
        self._batches = 0
        self._batch_items = 0
        # Verdict work currently executing off-loop — the load signal a
        # "least-inflight" routing client balances on, surfaced in stats.
        self._inflight = 0
        self._started_at: float | None = None
        # Per-fingerprint request counts: the "hot" list a joining shard's
        # prefetch is computed from.
        self._hot_counts: Counter[str] = Counter()
        # The published ring view — the shared placement core with the
        # server-side (strict) reconciliation discipline.  Epoch is None
        # until a coordinator (or the CLI's local-ring mode) pushes a
        # view; only superseding views replace it.
        self._placement = PlacementView()
        # Decentralized membership: when enabled, a GossipAgent (started
        # with the server, once its own address is known) probes peers
        # and mutates this very placement view — no coordinator needed.
        self._gossip_enabled = bool(gossip)
        self._gossip_interval = gossip_interval
        self._gossip_seeds = tuple(
            parse_member(seed) if isinstance(seed, str) else seed
            for seed in gossip_seeds
        )
        self._gossip: GossipAgent | None = None

    # -- endpoints -----------------------------------------------------------

    @property
    def tcp_address(self) -> tuple[str, int] | None:
        """``(host, port)`` actually bound (port resolved when 0 was asked)."""
        return self._tcp_address

    @property
    def unix_path(self) -> str | None:
        return self._unix_path

    async def start(
        self,
        host: str | None = None,
        port: int | None = None,
        unix_path: str | None = None,
    ) -> None:
        """Bind the requested endpoints and begin accepting connections."""
        if host is None and unix_path is None:
            raise ValueError("need a TCP host/port or a unix socket path")
        self._closing = asyncio.Event()
        self._started_at = monotonic()
        if self.workers > 0 and self._pool is None:
            self._pool = self._make_pool()
        if host is not None:
            server = await asyncio.start_server(
                self._on_connection,
                host=host,
                port=port or 0,
                limit=protocol.MAX_LINE_BYTES,
            )
            sockname = server.sockets[0].getsockname()
            self._tcp_address = (sockname[0], sockname[1])
            self._servers.append(server)
        if unix_path is not None:
            _remove_stale_unix_socket(unix_path)
            server = await asyncio.start_unix_server(
                self._on_connection,
                path=unix_path,
                limit=protocol.MAX_LINE_BYTES,
            )
            self._unix_path = unix_path
            self._servers.append(server)
        if self._gossip_enabled and self._gossip is None:
            label = self._member_label()
            if label is not None:
                self._gossip = GossipAgent(
                    self._placement,
                    label,
                    seeds=self._gossip_seeds,
                    interval=self._gossip_interval,
                    metrics=self.metrics,
                    events=self.events,
                )
                self._gossip.start()

    async def serve_forever(self) -> None:
        """Block until :meth:`stop` (or cancellation) ends the server."""
        assert self._closing is not None, "start() first"
        await self._closing.wait()

    async def stop(self, drain_timeout: float | None = 30.0) -> None:
        """Stop accepting, drain in-flight requests, tear everything down."""
        if self._gossip is not None:
            gossip = self._gossip
            self._gossip = None
            await asyncio.to_thread(gossip.stop)
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        self._servers.clear()
        if self._closing is not None:
            self._closing.set()
        if self._conn_tasks:
            await asyncio.wait(list(self._conn_tasks), timeout=drain_timeout)
        for task in list(self._conn_tasks):
            task.cancel()
        if self._pool is not None:
            pool = self._pool
            self._pool = None
            await asyncio.to_thread(pool.shutdown, True)
        if self._unix_path is not None:
            # Leave nothing behind: a lingering socket path would force
            # the next start() through the stale-socket probe (and, on a
            # crashed process, used to mean EADDRINUSE forever).
            try:
                os.unlink(self._unix_path)
            except OSError:
                pass
            self._unix_path = None

    # -- ring membership -----------------------------------------------------

    @property
    def placement(self) -> PlacementView:
        """The shared placement view (epoch, members, replica count)."""
        return self._placement

    @property
    def ring_view(self) -> tuple[int, list[str], int] | None:
        """The published ``(epoch, member labels, replica_count)``, if any."""
        return self._placement.as_tuple()

    def set_ring_view(
        self,
        epoch: int,
        members: list[str],
        replica_count: int = 1,
        read_policy: str | None = None,
    ) -> None:
        """Adopt a ring view (epoch-guarded; older epochs are rejected).

        The wire path is the ``ring-config`` op; embedders (the CLI's
        local-ring mode, tests) call this directly.  Delegates the
        reconciliation discipline to
        :meth:`~repro.server.placement.PlacementView.publish`: raises
        :class:`~repro.server.protocol.ProtocolError` with code
        ``wrong-epoch`` when *epoch* does not supersede the view already
        held (older, or equal with different contents); re-pushing the
        identical view is idempotent.
        """
        self._placement.publish(
            epoch, members, replica_count=replica_count,
            read_policy=read_policy,
        )

    def _view_details(self) -> dict[str, Any] | None:
        """The current view as ``wrong-epoch`` error-object fields."""
        return self._placement.details()

    def _check_epoch(self, request: Request) -> None:
        """Reject a request routed under an epoch older than this view.

        A request carrying no epoch (or arriving before any view was
        published) is always served — epochs tighten routing, they do not
        gate plain clients out.
        """
        self._placement.check_request_epoch(request.epoch)

    def _count_hot(self, fingerprint: str, requests: int = 1) -> None:
        self._hot_counts[fingerprint] += requests
        if len(self._hot_counts) > _HOT_COUNTER_SIZE:
            self._hot_counts = Counter(
                dict(self._hot_counts.most_common(_HOT_COUNTER_SIZE // 2))
            )

    # -- connection handling -------------------------------------------------

    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.ensure_future(self._handle_connection(reader, writer))
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        assert self._closing is not None
        try:
            while not self._closing.is_set():
                line = await self._read_line(reader)
                if line is None:  # EOF, shutdown, or an unrecoverable read
                    break
                if line is _OVERLONG:
                    writer.write(
                        protocol.encode(
                            protocol.error_payload(
                                "bad-request",
                                f"request line exceeds {protocol.MAX_LINE_BYTES} bytes",
                            )
                        )
                    )
                    await writer.drain()
                    break
                if not line.strip():
                    continue  # blank keep-alive lines are ignored
                # Decode once here: the batch op changes the read loop
                # itself (items follow on this reader), so the branch must
                # see the real decoded op, not a byte sniff of the line.
                request: Request | None = None
                decode_error: ProtocolError | None = None
                try:
                    request = protocol.decode_request(line)
                except ProtocolError as error:
                    decode_error = error
                if request is not None and request.op == "check-batch":
                    self._requests += 1
                    if not await self._handle_batch(request, reader, writer):
                        break  # framing lost mid-batch: close
                    continue
                response = await self._handle_line(line, request, decode_error)
                writer.write(protocol.encode(response))
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_line(self, reader: asyncio.StreamReader) -> bytes | None:
        """One request line, or ``None`` on EOF/shutdown, racing the two.

        An idle connection is parked in ``readline``; racing the read
        against the closing event is what lets :meth:`stop` drain busy
        connections without waiting on idle ones forever.
        """
        assert self._closing is not None
        read = asyncio.ensure_future(reader.readline())
        closing = asyncio.ensure_future(self._closing.wait())
        done, pending = await asyncio.wait(
            {read, closing}, return_when=asyncio.FIRST_COMPLETED
        )
        for task in pending:
            task.cancel()
        if read not in done:
            return None
        try:
            line = read.result()
        except ValueError:  # stream limit overrun: cannot resync the framing
            return _OVERLONG
        except (ConnectionError, OSError):
            return None
        return line or None

    # -- request handling ----------------------------------------------------

    async def _handle_line(
        self,
        line: bytes,
        request: Request | None = None,
        decode_error: ProtocolError | None = None,
    ) -> dict[str, Any]:
        """One request line to one response object.

        The connection loop passes its already-decoded *request* (or the
        *decode_error* that decoding produced) so the line is parsed only
        once; called with just *line*, it decodes for itself.
        """
        watch = Stopwatch()
        self._requests += 1
        request_id: Any = None  # echoed even on errors, once decoded
        timings: dict[str, Any] = {}
        try:
            if decode_error is not None:
                raise decode_error
            if request is None:
                request = protocol.decode_request(line)
            request_id = request.id
            response = await self._dispatch_request(request, timings)
        except ProtocolError as error:
            self._errors += 1
            self._m_errors.get(error.code, self._m_errors["internal"]).inc()
            return protocol.error_payload(
                error.code, error.message, id=request_id, details=error.details
            )
        except Exception as error:  # noqa: BLE001 - a reply beats a disconnect
            self._errors += 1
            self._m_errors["internal"].inc()
            return protocol.error_payload(
                "internal", f"{type(error).__name__}: {error}", id=request_id
            )
        # The reply stamp and the latency histogram read one Stopwatch,
        # so the two can never disagree.
        response["elapsed_ms"] = watch.elapsed_ms
        self._observe_request(request.op, watch, timings)
        if request.trace is not None:
            self._m_traced.inc()
            response["trace"] = {
                "id": request.trace,
                "span": self._server_span(request.op, watch, timings),
            }
        self._note_slow(request.op, watch, request.trace, request_id)
        epoch = self._placement.epoch
        if epoch is not None:
            response.setdefault("epoch", epoch)
            response.setdefault("load", self._load_fields())
        if request_id is not None:
            response["id"] = request_id
        return response

    # -- instrumentation helpers ---------------------------------------------

    def _observe_request(
        self, op: str, watch: Stopwatch, timings: dict[str, Any]
    ) -> None:
        """Record one served request: op counter, latency, phase timers."""
        self._m_requests[op].inc()
        self._m_latency[op].observe(watch.seconds)
        self._observe_phases(timings)

    def _observe_phases(self, timings: dict[str, Any]) -> None:
        for phase in _PHASES:
            seconds = timings.get(phase)
            if seconds is not None:
                self._m_phases[phase].observe(seconds)
        backend = timings.get("backend")
        if backend in self._m_verdict and timings.get("verdict") is not None:
            self._m_verdict[backend].observe(timings["verdict"])
        admission = timings.get("admission")
        if admission is not None:
            self._m_admission_seconds.observe(admission)

    def _note_slow(
        self, op: str | None, watch: Stopwatch, trace: str | None, id: Any
    ) -> None:
        if self.slow_ms is None:
            return
        elapsed_ms = watch.elapsed_ms
        if elapsed_ms <= self.slow_ms:
            return
        self._m_slow.inc()
        fields: dict[str, Any] = {
            "member": self._member_label(),
            "op": op,
            "elapsed_ms": elapsed_ms,
            "slow_ms": self.slow_ms,
        }
        if trace is not None:
            fields["trace"] = trace
        if id is not None:
            fields["id"] = id
        self.events.emit("slow-request", **fields)

    def _member_label(self) -> str | None:
        if self._unix_path is not None:
            return self._unix_path
        if self._tcp_address is not None:
            return f"{self._tcp_address[0]}:{self._tcp_address[1]}"
        return None

    def _server_span(
        self, op: str, watch: Stopwatch, timings: dict[str, Any]
    ) -> dict[str, Any]:
        """The per-hop span a traced request's reply carries."""
        span: dict[str, Any] = {
            "member": self._member_label(),
            "op": op,
            "total_ms": watch.elapsed_ms,
        }
        for phase in _PHASES:
            seconds = timings.get(phase)
            if seconds is not None:
                span[f"{phase}_ms"] = round(seconds * 1000.0, 3)
        backend = timings.get("backend")
        if backend is not None:
            span["backend"] = backend
        return span

    async def _dispatch_request(
        self, request: Request, timings: dict[str, Any]
    ) -> dict[str, Any]:
        if request.op == "health":
            return self._op_health(request)
        if request.op == "metrics":
            return self._op_metrics()
        if request.op == "ring-config":
            return self._op_ring_config(request)
        if request.op == "probe":
            # Before the epoch gate: failure detection must keep working
            # while views disagree.
            return await self._op_probe(request)
        self._check_epoch(request)
        if request.op == "stats":
            return self._op_stats()
        if request.op == "put-artifact":
            return await self._op_put_artifact(request, timings)
        if request.op == "get-artifact":
            return await self._op_get_artifact(request, timings)
        if request.op == "get-coarse":
            return await self._op_get_coarse(request, timings)
        assert request.dtd is not None  # decode_request guarantees it
        parse_watch = Stopwatch()
        schema, disposition = self._resolve_schema(request.dtd, request.root)
        timings["parse"] = parse_watch.seconds
        self._count_hot(schema.fingerprint)
        if request.op == "check":
            return await self._op_check(request, schema, disposition, timings)
        if request.op == "classify":
            return self._op_classify(schema, disposition)
        if request.op == "validate":
            return await self._op_validate(request, schema, disposition, timings)
        raise ProtocolError("unsupported-op", f"unhandled op {request.op!r}")

    def _resolve_schema(
        self, dtd_text: str, root: str | None
    ) -> tuple[CompiledSchema, str]:
        """The compiled artifact for *dtd_text* plus how it was obtained.

        The text-level memo makes the warm path textual: a repeated request
        body never re-parses its DTD, never re-serializes for hashing —
        one dict probe and one registry probe.  Runs on the event loop, so
        the memo and hit accounting need no extra locking.
        """
        key = (dtd_text, root)
        fingerprint = self._text_index.get(key)
        if fingerprint is not None:
            schema = self.registry.lookup(fingerprint, count=True)
            if schema is not None:
                self._text_index.move_to_end(key)
                return schema, "hit"
        try:
            dtd = parse_dtd(dtd_text, root=root)
        except ReproError as error:
            raise ProtocolError("bad-dtd", str(error))
        before = self.registry.stats
        schema = self.registry.get(dtd)
        after = self.registry.stats
        if after.store_hits > before.store_hits:
            disposition = "store"
        elif after.misses > before.misses:
            disposition = "miss"
        else:
            disposition = "hit"
        self._text_index[key] = schema.fingerprint
        while len(self._text_index) > _TEXT_INDEX_SIZE:
            self._text_index.popitem(last=False)
        return schema, disposition

    def _schema_fields(
        self, schema: CompiledSchema, disposition: str
    ) -> dict[str, Any]:
        return {"fingerprint": schema.fingerprint, "registry": disposition}

    # -- ops -----------------------------------------------------------------

    async def _run_check(
        self,
        schema: CompiledSchema,
        doc_text: str,
        algorithm: str,
        timings: dict[str, Any] | None = None,
    ) -> dict[str, Any]:
        """One verdict's raw fields: from the cache, else off-loop.

        The verdict cache is consulted here, on the event loop, so a hit
        pays no thread or process hop and one shared cache fronts both
        execution modes; parse errors are memoized too (they are just as
        deterministic as verdicts).  A miss runs the verdict pipeline
        off-loop, bracketed by the ``inflight`` gauge (the increments run
        on the event loop, so no lock is needed): the stats-visible load
        signal a ``least-inflight`` routing client balances on.  The
        off-loop wall clock minus the work the pipeline itself timed is
        the queue-wait phase — measured on this side of the boundary so
        process-pool workers need no shared clock.
        """
        policy = self.policy if algorithm == "auto" else _NAMED_POLICY
        cache = self._verdict_cache
        key = None
        if cache is not None:
            key = cache.key(schema.fingerprint, doc_text, cache_mode(algorithm, policy))
            hit = cache.get(key)
            if hit is not None:
                self._m_cache["hit"].inc()
                fields = dict(hit)
                fields["cached"] = True
                return fields
            self._m_cache["miss"].inc()
        self._sequence += 1
        self._inflight += 1
        self._g_inflight.set(self._inflight)
        off_loop = Stopwatch()
        try:
            if self._pool is not None:
                fields = await self._pool_round_trip(
                    schema, doc_text, algorithm, policy, self._sequence
                )
            else:
                fields = await asyncio.to_thread(
                    _check_fields, schema, doc_text, algorithm, policy,
                    self._sequence, self.config,
                )
        finally:
            self._inflight -= 1
            self._g_inflight.set(self._inflight)
        if key is not None and cache is not None:
            stored = {k: v for k, v in fields.items() if k != "timings"}
            if cache.put(key, stored):
                self._m_cache["evict"].inc()
        inner = fields.pop("timings", None)
        if inner is None:
            return fields
        # A tree was built only off the fused route: that parse is the
        # document share of the "parse" phase (DTD resolution is the rest).
        doc_parse = inner.get("parse")
        if doc_parse is not None:
            self._m_parse_seconds.observe(doc_parse)
        if timings is not None:
            worked = sum(
                inner.get(step) or 0.0 for step in ("parse", "admission", "verdict")
            )
            timings["queue"] = max(0.0, off_loop.seconds - worked)
            if doc_parse is not None:
                timings["parse"] = timings.get("parse", 0.0) + doc_parse
            for step in ("admission", "verdict", "backend"):
                if inner.get(step) is not None:
                    timings[step] = inner[step]
        return fields

    async def _op_check(
        self,
        request: Request,
        schema: CompiledSchema,
        disposition: str,
        timings: dict[str, Any],
    ) -> dict[str, Any]:
        assert request.doc is not None
        algorithm = request.algorithm or self.default_algorithm
        fields = await self._run_check(schema, request.doc, algorithm, timings)
        error = fields.pop("error", None)
        if error is not None:
            raise ProtocolError(*error)
        cached = fields.pop("cached", False)
        if cached:
            # A replayed verdict: no backend ran, so the dispatch and
            # admission tallies stay untouched; the reply still carries
            # the memoized admission outcome.
            admission = fields.pop("admission", None)
            fields.pop("admission_mismatch", None)
        else:
            self._dispatch_counts[fields["algorithm"]] += 1
            self._count_dispatch(fields["algorithm"])
            admission = self._count_admission(fields, schema)
        response: dict[str, Any] = {
            "ok": True,
            "op": "check",
            **fields["verdict"],
            "algorithm": fields["algorithm"],
            "schema": self._schema_fields(schema, disposition),
        }
        if cached:
            response["cached"] = True
        if admission is not None:
            response["admission"] = admission
        if fields.get("reason"):
            response["dispatch_reason"] = fields["reason"]
        if request.coarse:
            response["coarse"] = self._coarse_stamp(schema)
        return response

    def _count_admission(
        self, fields: dict[str, Any], schema: CompiledSchema
    ) -> str | None:
        """Record one check's admission outcome (server-side: pool-worker
        registries are invisible to scrapers) and return it for the reply."""
        admission = fields.pop("admission", None)
        if admission is None:
            return None
        counter = self._m_admission.get(admission)
        if counter is not None:
            counter.inc()
        if fields.pop("admission_mismatch", False):
            self._m_admission_mismatch.inc()
            self.events.emit(
                "admission-mismatch",
                member=self._member_label(),
                fingerprint=schema.fingerprint,
                outcome=admission,
                backend=fields.get("algorithm"),
            )
        return admission

    def _coarse_stamp(self, schema: CompiledSchema) -> str:
        """The base64 admission summary a ``"coarse": true`` reply carries."""
        return base64.b64encode(encode_coarse(schema.coarse)).decode("ascii")

    def _count_dispatch(self, backend: str) -> None:
        counter = self._m_dispatch.get(backend)
        if counter is not None:
            counter.inc()

    def _make_pool(self) -> ProcessPoolExecutor:
        store_dir = str(self.store.directory) if self.store is not None else None
        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_init_pool_worker,
            initargs=(store_dir,),
        )

    async def _pool_round_trip(
        self,
        schema: CompiledSchema,
        doc_text: str,
        algorithm: str,
        policy: DispatchPolicy,
        sequence: int,
    ) -> dict[str, Any]:
        """Run a check on the pool, shipping the artifact only on a miss.

        A broken pool (a worker OOM-killed or SIGKILLed poisons the whole
        :class:`ProcessPoolExecutor`) is rebuilt once per request instead
        of condemning the long-running server to answer ``internal``
        forever.
        """
        loop = asyncio.get_running_loop()
        for attempt in (1, 2):
            pool = self._pool
            assert pool is not None
            blob = (
                None
                if schema.fingerprint in self._shipped
                else pickle.dumps(schema, protocol=pickle.HIGHEST_PROTOCOL)
            )
            try:
                try:
                    fields = await loop.run_in_executor(
                        pool,
                        _pool_check,
                        schema.fingerprint,
                        blob,
                        doc_text,
                        algorithm,
                        policy,
                        sequence,
                        self.config,
                    )
                except ArtifactMissError:
                    # A different worker picked up the task than the one(s)
                    # seeded earlier; retry once with the artifact attached.
                    fields = await loop.run_in_executor(
                        pool,
                        _pool_check,
                        schema.fingerprint,
                        pickle.dumps(schema, protocol=pickle.HIGHEST_PROTOCOL),
                        doc_text,
                        algorithm,
                        policy,
                        sequence,
                        self.config,
                    )
            except BrokenExecutor:
                if attempt == 2:
                    raise
                pool.shutdown(wait=False)
                self._shipped.clear()  # fresh workers hold no artifacts
                self._pool = self._make_pool()
                continue
            self._shipped.add(schema.fingerprint)
            if len(self._shipped) > _SHIPPED_HINT_SIZE:
                # The hint only avoids redundant shipping; resetting it is
                # always safe because a wrong "shipped" assumption is
                # healed by the ArtifactMissError retry above.
                self._shipped.clear()
            return fields
        raise AssertionError("unreachable")  # pragma: no cover

    # -- the streaming batch op ----------------------------------------------

    async def _handle_batch(
        self,
        request: Request,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> bool:
        """One streaming batch: header already decoded, items on *reader*.

        Item replies are written as each verdict lands, correlated by the
        item's ``id`` (its 0-based index when it carries none), and a
        trailer summarizes the batch.  Per-item defects (a bad document, a
        malformed item line) are structured item errors and the batch
        continues; defects that lose the framing — a bad header (the
        client may already have pipelined items this server cannot safely
        reinterpret), an over-limit item line, a mid-batch hangup — end
        the connection after an error reply, the documented disconnect.
        """
        watch = Stopwatch()
        self._batches += 1
        batch_timings: dict[str, Any] = {}
        schema: CompiledSchema | None = None
        disposition = "miss"
        try:
            self._check_epoch(request)
            assert request.dtd is not None  # decode_request guarantees it
            parse_watch = Stopwatch()
            schema, disposition = self._resolve_schema(request.dtd, request.root)
            batch_timings["parse"] = parse_watch.seconds
        except ProtocolError as error:
            self._errors += 1
            self._m_errors.get(error.code, self._m_errors["internal"]).inc()
            writer.write(
                protocol.encode(
                    protocol.error_payload(
                        error.code, error.message, id=request.id,
                        details=error.details,
                    )
                )
            )
            await writer.drain()
            return False
        except Exception as error:  # noqa: BLE001 - a reply beats a disconnect
            self._errors += 1
            self._m_errors["internal"].inc()
            writer.write(
                protocol.encode(
                    protocol.error_payload(
                        "internal",
                        f"{type(error).__name__}: {error}",
                        id=request.id,
                    )
                )
            )
            await writer.drain()
            return False
        algorithm = request.algorithm or self.default_algorithm
        remaining = request.count
        items = 0
        errors = 0
        while remaining is None or remaining > 0:
            line = await self._read_line(reader)
            if line is None:
                return False  # hangup or shutdown mid-batch
            if line is _OVERLONG:
                writer.write(
                    protocol.encode(
                        protocol.error_payload(
                            "bad-request",
                            "batch item line exceeds "
                            f"{protocol.MAX_LINE_BYTES} bytes",
                        )
                    )
                )
                await writer.drain()
                return False  # the stream cannot be re-framed
            if not line.strip():
                if remaining is None:
                    break  # the uncounted batch's blank-line terminator
                continue  # blank keep-alive lines inside a counted batch
            if remaining is not None:
                remaining -= 1
            index = items
            items += 1
            self._requests += 1
            self._batch_items += 1
            self._m_batch_items.inc()
            reply = await self._handle_batch_item(
                line, index, schema, algorithm, request.trace
            )
            if not reply.get("ok"):
                errors += 1
            writer.write(protocol.encode(reply))
            await writer.drain()
        self._count_hot(schema.fingerprint, max(items, 1))
        trailer: dict[str, Any] = {
            "ok": True,
            "op": "check-batch",
            "items": items,
            "errors": errors,
            "schema": self._schema_fields(schema, disposition),
            # The same Stopwatch feeds the trailer stamp and the latency
            # histogram, so the two can never disagree.
            "elapsed_ms": watch.elapsed_ms,
        }
        if request.coarse:
            trailer["coarse"] = self._coarse_stamp(schema)
        self._observe_request("check-batch", watch, batch_timings)
        if request.trace is not None:
            self._m_traced.inc()
            span = self._server_span("check-batch", watch, batch_timings)
            span["items"] = items
            trailer["trace"] = {"id": request.trace, "span": span}
        self._note_slow("check-batch", watch, request.trace, request.id)
        epoch = self._placement.epoch
        if epoch is not None:
            trailer["epoch"] = epoch
            trailer["load"] = self._load_fields()
        if request.id is not None:
            trailer["id"] = request.id
        writer.write(protocol.encode(trailer))
        await writer.drain()
        return True

    async def _handle_batch_item(
        self,
        line: bytes,
        index: int,
        schema: CompiledSchema,
        algorithm: str,
        trace: str | None = None,
    ) -> dict[str, Any]:
        """One item line to one ``check-batch-item`` reply (never raises)."""
        item_id: Any = index
        timings: dict[str, Any] = {}
        try:
            item = protocol.decode_batch_item(line)
            if item.id is not None:
                item_id = item.id
            fields = await self._run_check(schema, item.doc, algorithm, timings)
            error = fields.pop("error", None)
            if error is not None:
                raise ProtocolError(*error)
        except ProtocolError as error:
            self._errors += 1
            self._m_errors.get(error.code, self._m_errors["internal"]).inc()
            reply = protocol.error_payload(
                error.code, error.message, id=item_id, details=error.details
            )
            reply["op"] = "check-batch-item"
            return reply
        except Exception as error:  # noqa: BLE001 - a reply beats a disconnect
            self._errors += 1
            self._m_errors["internal"].inc()
            reply = protocol.error_payload(
                "internal", f"{type(error).__name__}: {error}", id=item_id
            )
            reply["op"] = "check-batch-item"
            return reply
        cached = fields.pop("cached", False)
        if cached:
            admission = fields.pop("admission", None)
            fields.pop("admission_mismatch", None)
        else:
            self._dispatch_counts[fields["algorithm"]] += 1
            self._count_dispatch(fields["algorithm"])
            admission = self._count_admission(fields, schema)
        self._observe_phases(timings)
        reply = {
            "ok": True,
            "op": "check-batch-item",
            "id": item_id,
            **fields["verdict"],
            "algorithm": fields["algorithm"],
        }
        if cached:
            reply["cached"] = True
        if admission is not None:
            reply["admission"] = admission
        if fields.get("reason"):
            reply["dispatch_reason"] = fields["reason"]
        if trace is not None:
            stub: dict[str, Any] = {"id": trace}
            for phase in ("queue", "verdict"):
                seconds = timings.get(phase)
                if seconds is not None:
                    stub[f"{phase}_ms"] = round(seconds * 1000.0, 3)
            reply["trace"] = stub
        return reply

    # -- artifact hand-off ops -----------------------------------------------

    async def _op_put_artifact(
        self, request: Request, timings: dict[str, Any]
    ) -> dict[str, Any]:
        """Seed a compiled artifact shipped by a ring coordinator.

        The payload is the :mod:`repro.service.store` file format (header +
        pickle), base64-encoded; decoding verifies magic, version, and the
        embedded fingerprint against the requested one, so a corrupt or
        mislabeled blob is a structured ``bad-artifact`` error, never a
        poisoned registry entry.  Unpickling, like the rest of the wire
        protocol, assumes a trusted network — see the protocol module's
        trust-model note.  Decode and disk write run off-loop: a
        multi-megabyte artifact must not stall other connections.
        """
        assert request.fingerprint is not None and request.artifact is not None
        fingerprint = request.fingerprint
        artifact = request.artifact

        def decode_and_store() -> str | None:
            try:
                blob = base64.b64decode(artifact.encode("ascii"), validate=True)
            except (binascii.Error, UnicodeEncodeError, ValueError):
                return None
            schema = decode_artifact(blob, fingerprint)
            if schema is None:
                return None
            self.registry.put(schema)
            if self.store is not None:
                try:
                    self.store.save(schema)
                    return "registry+store"
                except OSError:
                    pass  # an unwritable store degrades to memory-only seeding
            return "registry"

        artifact_watch = Stopwatch()
        stored = await asyncio.to_thread(decode_and_store)
        timings["artifact"] = artifact_watch.seconds
        if stored is None:
            raise ProtocolError(
                "bad-artifact",
                "artifact failed decoding or fingerprint verification",
            )
        return {
            "ok": True,
            "op": "put-artifact",
            "fingerprint": fingerprint,
            "stored": stored,
        }

    async def _op_get_artifact(
        self, request: Request, timings: dict[str, Any]
    ) -> dict[str, Any]:
        """Hand the compiled artifact for a fingerprint to a coordinator.

        Pickling (and a possible disk load) runs off-loop, like every
        other heavy path in this server.
        """
        assert request.fingerprint is not None
        fingerprint = request.fingerprint

        def load_and_encode() -> bytes | None:
            schema = self.registry.lookup(fingerprint)
            if schema is None and self.store is not None:
                schema = self.store.load(fingerprint)
                if schema is not None:
                    self.registry.put(schema)
            if schema is None:
                return None
            return encode_artifact(schema)

        artifact_watch = Stopwatch()
        blob = await asyncio.to_thread(load_and_encode)
        timings["artifact"] = artifact_watch.seconds
        if blob is None:
            raise ProtocolError(
                "artifact-miss",
                f"no artifact held for fingerprint {fingerprint!r}",
            )
        return {
            "ok": True,
            "op": "get-artifact",
            "fingerprint": fingerprint,
            "artifact": base64.b64encode(blob).decode("ascii"),
            "bytes": len(blob),
        }

    async def _op_get_coarse(
        self, request: Request, timings: dict[str, Any]
    ) -> dict[str, Any]:
        """Hand the few-hundred-byte admission summary to a routing client.

        The lightweight sibling of ``get-artifact``: a ring client caches
        this per fingerprint to pre-filter batches locally.  A possible
        disk load (and the summary build, for pre-v3 artifacts) runs
        off-loop.
        """
        assert request.fingerprint is not None
        fingerprint = request.fingerprint

        def load_and_encode() -> bytes | None:
            schema = self.registry.lookup(fingerprint)
            if schema is None and self.store is not None:
                schema = self.store.load(fingerprint)
                if schema is not None:
                    self.registry.put(schema)
            if schema is None:
                return None
            return encode_coarse(schema.coarse)

        artifact_watch = Stopwatch()
        blob = await asyncio.to_thread(load_and_encode)
        timings["artifact"] = artifact_watch.seconds
        if blob is None:
            raise ProtocolError(
                "artifact-miss",
                f"no artifact held for fingerprint {fingerprint!r}",
            )
        return {
            "ok": True,
            "op": "get-coarse",
            "fingerprint": fingerprint,
            "coarse": base64.b64encode(blob).decode("ascii"),
            "bytes": len(blob),
        }

    def _op_classify(
        self, schema: CompiledSchema, disposition: str
    ) -> dict[str, Any]:
        # The compiled artifact already carries the analysis; building the
        # report from it is pure formatting, safe on the event loop.
        report = classify_dtd(schema.dtd, analysis=schema.analysis)
        return {
            "ok": True,
            "op": "classify",
            "dtd_class": report.dtd_class.value,
            "element_count": report.element_count,
            "occurrence_count": report.occurrence_count,
            "recursive_elements": list(report.recursive_elements),
            "strong_recursive_elements": list(report.strong_recursive_elements),
            "unusable_elements": list(report.unusable_elements),
            "needs_depth_bound": report.needs_depth_bound,
            "summary": report.summary(),
            "schema": self._schema_fields(schema, disposition),
        }

    async def _op_validate(
        self,
        request: Request,
        schema: CompiledSchema,
        disposition: str,
        timings: dict[str, Any],
    ) -> dict[str, Any]:
        assert request.doc is not None

        def run() -> dict[str, Any]:
            try:
                document = parse_xml(request.doc)  # type: ignore[arg-type]
            except ReproError as error:
                return {"error": ("bad-document", str(error))}
            validator = self._validators.get(schema.fingerprint)
            if validator is None:
                validator = DTDValidator(schema.dtd)
                self._validators[schema.fingerprint] = validator
            verdict_watch = Stopwatch()
            report = validator.validate(document)
            return {
                "valid": report.valid,
                "issues": [str(issue) for issue in report.issues],
                "timings": {"verdict": verdict_watch.seconds},
            }

        self._inflight += 1
        self._g_inflight.set(self._inflight)
        try:
            fields = await asyncio.to_thread(run)
        finally:
            self._inflight -= 1
            self._g_inflight.set(self._inflight)
        inner = fields.pop("timings", None)
        if inner is not None:
            timings["verdict"] = inner["verdict"]
        error = fields.pop("error", None)
        if error is not None:
            raise ProtocolError(*error)
        return {
            "ok": True,
            "op": "validate",
            **fields,
            "schema": self._schema_fields(schema, disposition),
        }

    def _op_health(self, request: Request | None = None) -> dict[str, Any]:
        """The liveness probe: cheap, payload-free, always answerable.

        Carries the ring view so a client (or coordinator) that learns of
        a newer epoch from a reply stamp can fetch the full membership
        with one round trip.  With gossip enabled it is also the gossip
        exchange: any membership table the request piggybacks is merged
        first, and the reply carries this view's own — one round trip
        synchronizes both sides.
        """
        if (
            self._gossip is not None
            and request is not None
            and request.gossip is not None
        ):
            self._gossip.merge_wire(request.gossip)
        uptime = (
            monotonic() - self._started_at if self._started_at is not None else 0.0
        )
        view = self._view_details() or {}
        response: dict[str, Any] = {
            "ok": True,
            "op": "health",
            "status": "ok",
            "uptime_seconds": round(uptime, 3),
            "requests": self._requests,
            "inflight": self._inflight,
            "connections": len(self._conn_tasks),
            "epoch": view.get("epoch"),
            "members": view.get("members"),
            "replica_count": view.get("replica_count"),
            "read_policy": view.get("read_policy"),
        }
        if self._gossip is not None:
            response["gossip"] = self._placement.gossip_delta()
        return response

    async def _op_probe(self, request: Request) -> dict[str, Any]:
        """Indirect-probe relay: can *this* server reach ``target``?

        A gossip agent whose direct probe failed asks other members to
        try on its behalf before raising a suspicion — one flaky link
        must not take a healthy shard out of the ring.  Gossip tables
        ride along both ways, so every relay hop also spreads news.
        """
        target = request.target
        assert target is not None  # decode_request guarantees it
        if self._gossip is not None and request.gossip is not None:
            self._gossip.merge_wire(request.gossip)
        reachable = await asyncio.to_thread(self._reach_target, target)
        response: dict[str, Any] = {
            "ok": True,
            "op": "probe",
            "target": target,
            "reachable": reachable,
        }
        if self._gossip is not None:
            response["gossip"] = self._placement.gossip_delta()
        return response

    def _reach_target(self, target: str) -> bool:
        """One fresh short-timeout ``health`` round trip to *target*."""
        try:
            member = parse_member(target)
        except ValueError:
            return False
        try:
            client = ValidationClient.connect(member, timeout=_PROBE_TIMEOUT)
        except OSError:
            return False
        try:
            return bool(client.health().get("ok"))
        except (OSError, ProtocolError, ServerError):
            return False
        finally:
            try:
                client.close()
            except OSError:
                pass

    def _load_fields(self) -> dict[str, int]:
        """The server-truth load stamp success replies carry.

        ``inflight`` is verdict work currently executing; ``queue_depth``
        is the portion beyond worker capacity — what a new request would
        wait behind.
        """
        capacity = self.workers or (os.cpu_count() or 1)
        return {
            "inflight": self._inflight,
            "queue_depth": max(0, self._inflight - capacity),
        }

    def _op_ring_config(self, request: Request) -> dict[str, Any]:
        """Adopt a published ring view (the coordinator's push path)."""
        assert request.epoch is not None and request.members is not None
        self.set_ring_view(
            request.epoch,
            request.members,
            request.replica_count or 1,
            read_policy=request.read_policy,
        )
        return {"ok": True, "op": "ring-config", "epoch": request.epoch}

    def _op_stats(self) -> dict[str, Any]:
        dispatch = dict(self._dispatch_counts)
        uptime = (
            monotonic() - self._started_at if self._started_at is not None else 0.0
        )
        return {
            "ok": True,
            "op": "stats",
            "server": {
                "uptime_seconds": round(uptime, 3),
                "requests": self._requests,
                "errors": self._errors,
                "batches": self._batches,
                "batch_items": self._batch_items,
                "inflight": self._inflight,
                "connections": len(self._conn_tasks),
                "workers": self.workers,
                "default_algorithm": self.default_algorithm,
                "ring_epoch": self._placement.epoch,
                "hot_limit": self.hot_limit,
                "slow_ms": self.slow_ms,
                "verdict_cache": (
                    self._verdict_cache.stats
                    if self._verdict_cache is not None
                    else None
                ),
            },
            "registry": self.registry.stats.as_dict(),
            "store": self.store.stats.as_dict() if self.store is not None else None,
            "dispatch": dispatch,
            "hot": [
                [fingerprint, count]
                for fingerprint, count in self._hot_counts.most_common(
                    self.hot_limit
                )
            ],
        }

    def _op_metrics(self) -> dict[str, Any]:
        """The metrics scrape: a mergeable snapshot plus exposition text.

        Not epoch-gated — scrapers address a shard directly, not through
        ring routing.  Gauges that mirror live server state are set at
        snapshot time so the scrape never lags the truth.
        """
        self._g_inflight.set(self._inflight)
        self._g_connections.set(len(self._conn_tasks))
        snapshot = self.metrics.snapshot()
        return {
            "ok": True,
            "op": "metrics",
            "member": self._member_label(),
            "metrics": snapshot,
            "prometheus": render_prometheus(snapshot),
        }


class ServerThread:
    """Run a :class:`ValidationServer` on its own event-loop thread.

    The context-manager form the tests, the E11 benchmark, and the CI
    smoke job use::

        with ServerThread(unix_path=str(tmp / "pv.sock"), store=store) as handle:
            with ValidationClient.connect_unix(handle.unix_path) as client:
                client.check(dtd_text, doc_text)

    ``stop()`` (or leaving the ``with`` block) performs the server's
    graceful drain before the thread exits.
    """

    def __init__(
        self,
        server: ValidationServer | None = None,
        *,
        host: str | None = None,
        port: int = 0,
        unix_path: str | None = None,
        **server_kwargs: Any,
    ) -> None:
        if host is None and unix_path is None:
            host = "127.0.0.1"
        self.server = server if server is not None else ValidationServer(**server_kwargs)
        self._host = host
        self._port = port
        self._unix_path = unix_path
        self._ready = threading.Event()
        self._stop_event: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._startup_error: BaseException | None = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name="repro-validation-server",
            daemon=True,
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            self._thread.join()
            raise self._startup_error
        return self

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            await self.server.start(
                host=self._host, port=self._port, unix_path=self._unix_path
            )
        except BaseException as error:  # surface bind errors to the caller
            self._startup_error = error
            self._ready.set()
            return
        self._ready.set()
        await self._stop_event.wait()
        await self.server.stop()

    def stop(self) -> None:
        """Request a graceful stop and wait for the thread to finish."""
        if self._thread is None:
            return
        if self._loop is not None and self._stop_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass  # loop already closed
        self._thread.join()
        self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- endpoints -----------------------------------------------------------

    @property
    def tcp_address(self) -> tuple[str, int] | None:
        return self.server.tcp_address

    @property
    def unix_path(self) -> str | None:
        return self.server.unix_path
