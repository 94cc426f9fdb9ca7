"""The traced run's per-layer metrics.

Three sources, all from outside the program:

* a ladder of public calls timed in this process on the workload's own
  documents: scan → tree parse → fused verdict → tree verdicts →
  coarse pass → dispatcher → cache lookup, plus schema compilation and
  the wire codec;
* the server's own telemetry, scraped with the ``metrics`` op before and
  after the timed loop (dispatch routes, admission outcomes, verdict
  cache, phase histograms, registry compiles);
* the timed loop itself: the server-reported elapsed time of traced
  requests against their client-observed latency, and the CPU time of
  the server process and of this one.

Each metric is listed in ``BENCHMARK.json``; ``README.md`` names the
end-to-end metric each one should move.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Any, Callable

from repro.core.stream import stream_check_document, stream_coarse_check
from repro.dtd.parser import parse_dtd
from repro.obs.metrics import counter_value, histogram_entries, histogram_quantile
from repro.server import protocol
from repro.server.ring import ShardedClient
from repro.service.cache import VerdictCache
from repro.service.compiled import clear_compile_caches, compile_schema
from repro.service.dispatch import BackendDispatcher, DispatchPolicy
from repro.xmlmodel.fastlex import scan_events
from repro.xmlmodel.parser import parse_xml

#: Timing rounds per ladder row; the row reports the median round.
ROUNDS = 5
#: Documents per ladder row (spread over the workload's schemas).
LADDER_DOCS = 240
PHASES = ("parse", "queue", "decide", "verdict")
BACKENDS = ("figure5", "kernel", "coarse")


def _delta(before: dict, after: dict, name: str, **labels: str) -> float:
    return counter_value(after, name, **labels) - counter_value(before, name, **labels)


def _phase_p50_ms(before: dict, after: dict, phase: str) -> float:
    """Median of the phase histogram's observations made in between."""
    old = {
        tuple(sorted(e["labels"].items())): e
        for e in histogram_entries(before, "repro_phase_seconds")
    }
    for entry in histogram_entries(after, "repro_phase_seconds"):
        if entry["labels"].get("phase") != phase:
            continue
        prior = old.get(tuple(sorted(entry["labels"].items())))
        if prior is not None:
            entry = dict(entry)
            entry["counts"] = [a - b for a, b in zip(entry["counts"], prior["counts"])]
            entry["count"] -= prior["count"]
        value = histogram_quantile(entry, 0.5)
        return 0.0 if value is None else value * 1000.0
    return 0.0


def _per_item_us(fn: Callable[[Any], Any], items: list[Any]) -> float:
    """Median over ``ROUNDS`` of the mean microseconds *fn* takes per item."""
    rounds = []
    for _ in range(ROUNDS):
        started = perf_counter()
        for item in items:
            fn(item)
        rounds.append((perf_counter() - started) / len(items))
    return statistics.median(rounds) * 1e6


def _drain(iterator) -> None:
    for _event in iterator:
        pass


def ladder(driver) -> dict[str, float]:
    """Time each layer's public call on the workload's documents."""
    sample = driver.ladder_inputs()
    per_schema = max(1, LADDER_DOCS // len(sample))
    policy = DispatchPolicy(admission=driver.admission)
    texts: list[tuple[Any, str]] = []
    compile_ms: list[float] = []
    dispatchers: dict[str, BackendDispatcher] = {}
    for schema, docs in sample:
        rounds = []
        for _ in range(3):
            dtd = parse_dtd(schema.text, root=schema.root)
            clear_compile_caches()
            started = perf_counter()
            compiled = compile_schema(dtd)
            rounds.append(perf_counter() - started)
        compile_ms.append(statistics.median(rounds) * 1000.0)
        dispatchers[schema.name] = BackendDispatcher(compiled, policy=policy)
        texts.extend((compiled, text) for text in docs[:per_schema])
    kernel = {c.fingerprint: c.checker("kernel") for c, _ in texts}
    figure5 = {c.fingerprint: c.checker("figure5") for c, _ in texts}
    trees = [(c, parse_xml(text)) for c, text in texts]
    by_fp = {d.schema.fingerprint: d for d in dispatchers.values()}

    cache = VerdictCache(len(texts) + 1)
    keys = [VerdictCache.key(c.fingerprint, text, "auto") for c, text in texts]
    for key in keys:
        cache.put(key, True)

    def cache_lookup(pair: tuple[Any, str]) -> None:
        cache.get(VerdictCache.key(pair[0].fingerprint, pair[1], "auto"))

    messages = [{"doc": text, "id": index} for index, (_c, text) in enumerate(texts)]
    replies = [protocol.encode(reply) for reply in driver.sample_replies] or [
        protocol.encode({"ok": True, "op": "check", "potentially_valid": True})
    ]
    rows = {
        "xmlmodel.scan_us_per_doc": _per_item_us(
            lambda p: _drain(scan_events(p[1])), texts),
        "xmlmodel.parse_us_per_doc": _per_item_us(
            lambda p: parse_xml(p[1]), texts),
        "core.fused_verdict_us_per_doc": _per_item_us(
            lambda p: stream_check_document(p[0], p[1]), texts),
        "core.kernel_tree_us_per_doc": _per_item_us(
            lambda p: kernel[p[0].fingerprint].check_document(p[1]), trees),
        "core.figure5_tree_us_per_doc": _per_item_us(
            lambda p: figure5[p[0].fingerprint].check_document(p[1]), trees),
        "core.coarse_us_per_doc": _per_item_us(
            lambda p: stream_coarse_check(p[0].coarse, p[1]), texts),
        "service.dispatch_us_per_doc": _per_item_us(
            lambda p: by_fp[p[0].fingerprint].check_text(p[1]), texts),
        "service.cache_lookup_us": _per_item_us(cache_lookup, texts),
        "service.compile_ms": statistics.fmean(compile_ms),
        "server.encode_us_per_doc": _per_item_us(protocol.encode, messages),
        "server.decode_us_per_reply": _per_item_us(protocol.decode_reply, replies),
    }

    router = ShardedClient(
        driver.server.addresses, replica_count=len(driver.server.addresses)
    )
    try:
        def route(schema) -> None:
            router.placement.owners(router.fingerprint(schema.text, schema.root))

        schemas = [schema for schema, _docs in sample]
        rows["ring.route_us_per_batch"] = _per_item_us(route, schemas * 50)
    finally:
        router.close()
    return rows


def per_layer(driver, loop, before: dict, after: dict) -> dict[str, dict]:
    server_before, server_after = before["server"], after["server"]
    items = max(1, loop.attempted)
    values: dict[str, float] = {}

    def delta(name: str, **labels: str) -> float:
        return _delta(server_before, server_after, name, **labels)

    for backend in BACKENDS:
        values[f"service.route_share.{backend}"] = (
            delta("repro_dispatch_total", backend=backend) / items
        )
    accepted = delta("repro_admission_total", outcome="accept")
    rejected = delta("repro_admission_total", outcome="reject")
    admitted = accepted + rejected + delta("repro_admission_total", outcome="uncertain")
    values["service.admission_definite_share"] = (
        (accepted + rejected) / admitted if admitted else 0.0
    )
    hits = delta("repro_verdict_cache_total", outcome="hit")
    misses = delta("repro_verdict_cache_total", outcome="miss")
    values["service.cache_hit_share"] = hits / (hits + misses) if hits + misses else 0.0
    values["service.cache_evictions_per_kdoc"] = (
        delta("repro_verdict_cache_total", outcome="evict") / items * 1000.0
    )
    for phase in PHASES:
        values[f"server.phase_p50_ms.{phase}"] = _phase_p50_ms(
            server_before, server_after, phase
        )

    traced = [(c, s, n) for c, s, n, was_traced in loop.hops if was_traced]
    values["server.item_us"] = (
        sum(s for _c, s, _n in traced) * 1000.0 / max(1, sum(n for *_, n in traced))
    )
    values["server.wire_us_per_request"] = statistics.median(
        c * 1e6 - s * 1000.0 for c, s, _n in traced
    ) if traced else 0.0
    values["server.cpu_us_per_doc"] = loop.server_cpu_s / items * 1e6
    values["client.cpu_us_per_doc"] = loop.client_cpu_s / items * 1e6

    values["ring.compiles"] = counter_value(
        server_after, "repro_registry_events_total", event="miss"
    )
    values.update(driver.ring_counters(before.get("client"), after.get("client")))

    values.update(ladder(driver))
    values["ladder.dispatch_over_fused"] = (
        values["service.dispatch_us_per_doc"]
        / values["core.fused_verdict_us_per_doc"]
    )
    values["ladder.server_over_dispatch"] = (
        values["server.item_us"] / values["service.dispatch_us_per_doc"]
    )
    values["trace.overhead_ratio"] = _rate(loop, True) / _rate(loop, False)
    return {name: {"value": value, "unit": UNITS[name]}
            for name, value in sorted(values.items())}


def _rate(loop, traced: bool) -> float:
    """Items per second over the requests with the given trace flag."""
    spent = items = 0.0
    for start, end, count, was_traced in loop.requests:
        if was_traced == traced:
            spent += end - start
            items += count
    return items / spent if spent else 0.0


UNITS: dict[str, str] = {
    "xmlmodel.scan_us_per_doc": "us",
    "xmlmodel.parse_us_per_doc": "us",
    "core.fused_verdict_us_per_doc": "us",
    "core.kernel_tree_us_per_doc": "us",
    "core.figure5_tree_us_per_doc": "us",
    "core.coarse_us_per_doc": "us",
    "service.dispatch_us_per_doc": "us",
    "service.route_share.figure5": "share",
    "service.route_share.kernel": "share",
    "service.route_share.coarse": "share",
    "service.admission_definite_share": "share",
    "service.cache_hit_share": "share",
    "service.cache_evictions_per_kdoc": "count/kdoc",
    "service.cache_lookup_us": "us",
    "service.compile_ms": "ms",
    "server.item_us": "us",
    "server.phase_p50_ms.parse": "ms",
    "server.phase_p50_ms.queue": "ms",
    "server.phase_p50_ms.decide": "ms",
    "server.phase_p50_ms.verdict": "ms",
    "server.wire_us_per_request": "us",
    "server.encode_us_per_doc": "us",
    "server.decode_us_per_reply": "us",
    "server.cpu_us_per_doc": "us",
    "client.cpu_us_per_doc": "us",
    "ring.route_us_per_batch": "us",
    "ring.compiles": "count",
    "ring.handoffs": "count",
    "ring.max_member_read_share": "share",
    "ring.failovers": "count",
    "ring.requeues": "count",
    "ladder.dispatch_over_fused": "ratio",
    "ladder.server_over_dispatch": "ratio",
    "trace.overhead_ratio": "ratio",
}
