"""Tests for the observability layer: metrics, tracing, events, scrapes.

Covers the obs primitives in isolation (histogram bucket math and
quantiles, merge associativity, Prometheus rendering, the event-log
line schema, trace contexts) and the instrumented stack end to end: the
``metrics`` wire op, opt-in tracing across a forced ring failover, the
``--hot-limit`` / ``--slow-ms`` server knobs, registry/store event
counters, and the ring-wide CLI aggregation.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs.events import EventLog
from repro.obs.metrics import (
    CATALOG,
    CATALOG_NAMES,
    Counter,
    Histogram,
    MetricsRegistry,
    Stopwatch,
    counter_value,
    histogram_entries,
    histogram_quantile,
    merge_snapshots,
)
from repro.obs.promtext import render, validate_exposition
from repro.obs.trace import TraceContext, new_trace_id
from repro.server.ring import ShardedClient, member_label
from repro.server.server import ValidationServer, ServerThread

DTD = """
<!ELEMENT doc (title, para+)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT para (#PCDATA)>
"""
DOC = "<doc><title>t</title><para>p</para></doc>"


def schema_text(index: int) -> str:
    """A family of structurally distinct DTDs (distinct fingerprints)."""
    return (
        f"<!ELEMENT r{index} (a{index}*)>"
        f"<!ELEMENT a{index} (#PCDATA)>"
    )


def doc_text(index: int) -> str:
    return f"<r{index}><a{index}>x</a{index}></r{index}>"


# -- metric primitives -------------------------------------------------------


class TestHistogram:
    def test_observations_land_in_log_buckets(self):
        h = Histogram(bounds=(0.001, 0.01, 0.1))
        for value in (0.0005, 0.005, 0.05, 0.5):
            h.observe(value)
        entry = h._entry()
        assert entry["counts"] == [1, 1, 1, 1]  # last is the +Inf bucket
        assert entry["count"] == 4
        assert entry["sum"] == pytest.approx(0.5555)

    def test_boundary_value_is_inclusive(self):
        h = Histogram(bounds=(0.001, 0.01))
        h.observe(0.001)
        assert h._entry()["counts"] == [1, 0, 0]

    def test_quantiles_interpolate_inside_the_winning_bucket(self):
        h = Histogram(bounds=(0.1, 0.2, 0.4))
        for _ in range(100):
            h.observe(0.15)
        # All mass in the (0.1, 0.2] bucket: every quantile lands there.
        assert 0.1 <= h.quantile(0.5) <= 0.2
        assert 0.1 <= h.quantile(0.99) <= 0.2
        # p50 sits mid-bucket under linear interpolation.
        assert h.quantile(0.5) == pytest.approx(0.15, abs=0.011)

    def test_inf_bucket_degrades_to_the_largest_finite_bound(self):
        h = Histogram(bounds=(0.1, 0.2))
        h.observe(5.0)
        assert h.quantile(0.99) == pytest.approx(0.2)

    def test_empty_histogram_has_no_quantile(self):
        assert Histogram(bounds=(0.1,)).quantile(0.5) is None

    def test_quantile_range_is_validated(self):
        h = Histogram(bounds=(0.1,))
        h.observe(0.05)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_unsorted_bounds_are_rejected(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(0.2, 0.1))


class TestCounterAndStopwatch:
    def test_counters_only_go_up(self):
        c = Counter()
        c.inc()
        c.inc(2)
        assert c.value == 3
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_stopwatch_readings_agree(self):
        watch = Stopwatch()
        first_ms = watch.elapsed_ms
        later_seconds = watch.seconds
        # Both read the same monotonic start; time only moves forward.
        assert 0 <= first_ms <= later_seconds * 1000.0
        assert first_ms == round(first_ms, 3)


class TestMergeSnapshots:
    def snapshot(self, value: int) -> dict:
        registry = MetricsRegistry()
        registry.counter("repro_requests_total", op="check").inc(value)
        h = registry.histogram("repro_request_seconds",
                               bounds=(0.25, 1.0), op="check")
        for _ in range(value):
            h.observe(0.5)  # exactly representable: sums associate exactly
        return registry.snapshot()

    def test_counters_add_and_histograms_add_bucketwise(self):
        merged = merge_snapshots([self.snapshot(2), self.snapshot(3)])
        assert counter_value(merged, "repro_requests_total", op="check") == 5
        entry = histogram_entries(merged, "repro_request_seconds")[0]
        assert entry["count"] == 5
        assert entry["counts"] == [0, 5, 0]

    def test_merge_is_associative(self):
        a, b, c = self.snapshot(1), self.snapshot(2), self.snapshot(4)
        left = merge_snapshots([merge_snapshots([a, b]), c])
        right = merge_snapshots([a, merge_snapshots([b, c])])
        assert left == right

    def test_merge_is_commutative(self):
        a, b = self.snapshot(1), self.snapshot(2)
        assert merge_snapshots([a, b]) == merge_snapshots([b, a])

    def test_mismatched_bucket_bounds_are_rejected(self):
        other = MetricsRegistry()
        other.histogram("repro_request_seconds",
                        bounds=(0.5,), op="check").observe(0.1)
        with pytest.raises(ValueError):
            merge_snapshots([self.snapshot(1), other.snapshot()])

    def test_quantile_of_a_merge_equals_quantile_of_the_union(self):
        merged = merge_snapshots([self.snapshot(10), self.snapshot(10)])
        entry = histogram_entries(merged, "repro_request_seconds")[0]
        # All 20 observations sit in the (0.25, 1.0] bucket.
        assert 0.25 <= histogram_quantile(entry, 0.99) <= 1.0


class TestMetricsRegistry:
    def test_same_name_and_labels_share_a_handle(self):
        registry = MetricsRegistry()
        assert registry.counter("repro_requests_total", op="check") is (
            registry.counter("repro_requests_total", op="check")
        )

    def test_kind_conflicts_are_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_requests_total")
        with pytest.raises(ValueError):
            registry.gauge("repro_requests_total")

    def test_disabled_registry_hands_out_noops_and_snapshots_empty(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("repro_requests_total", op="check").inc()
        registry.gauge("repro_inflight").set(5)
        registry.histogram("repro_request_seconds", op="check").observe(0.1)
        assert registry.snapshot() == {
            "counters": [], "gauges": [], "histograms": []
        }


# -- Prometheus exposition ---------------------------------------------------


class TestPromtext:
    def test_golden_rendering(self):
        registry = MetricsRegistry()
        registry.counter("repro_batch_items_total").inc(7)
        registry.gauge("repro_inflight").set(2)
        h = registry.histogram("repro_request_seconds",
                               bounds=(0.001, 0.01), op="check")
        h.observe(0.0005)
        h.observe(0.005)
        h.observe(5.0)
        assert render(registry.snapshot()) == (
            "# HELP repro_batch_items_total Documents checked inside "
            "check-batch streams.\n"
            "# TYPE repro_batch_items_total counter\n"
            "repro_batch_items_total 7\n"
            "# HELP repro_inflight Checks currently in flight on this "
            "server.\n"
            "# TYPE repro_inflight gauge\n"
            "repro_inflight 2\n"
            "# HELP repro_request_seconds End-to-end request latency, "
            "by wire op.\n"
            "# TYPE repro_request_seconds histogram\n"
            'repro_request_seconds_bucket{op="check",le="0.001"} 1\n'
            'repro_request_seconds_bucket{op="check",le="0.01"} 2\n'
            'repro_request_seconds_bucket{op="check",le="+Inf"} 3\n'
            'repro_request_seconds_sum{op="check"} 5.0055\n'
            'repro_request_seconds_count{op="check"} 3\n'
        )

    def test_rendering_validates(self):
        registry = MetricsRegistry()
        registry.counter("repro_requests_total", op="check").inc()
        registry.histogram("repro_verdict_seconds", backend="kernel").observe(
            0.002
        )
        text = render(registry.snapshot())
        assert validate_exposition(text) > 0

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("repro_ring_reads_total", member='a"b\\c').inc()
        text = render(registry.snapshot())
        assert validate_exposition(text) == 1
        assert '\\"' in text

    def test_validator_rejects_garbage(self):
        with pytest.raises(ValueError):
            validate_exposition("no exposition at all\n")
        with pytest.raises(ValueError):
            validate_exposition("repro_requests_total 1")  # no newline


# -- the event log -----------------------------------------------------------


class TestEventLog:
    def test_disabled_by_default(self):
        log = EventLog()
        assert not log.enabled
        log.emit("member-down", member="x")  # a no-op, not an error

    def test_lines_are_json_with_ts_and_event(self):
        lines: list[str] = []
        log = EventLog(lines.append)
        log.emit("failover", member="a.sock", owner="b.sock")
        record = json.loads(lines[0])
        assert record["event"] == "failover"
        assert isinstance(record["ts"], float)
        assert record["member"] == "a.sock"
        assert record["owner"] == "b.sock"

    def test_unserializable_fields_degrade_to_str(self):
        lines: list[str] = []
        EventLog(lines.append).emit("member-up", member={1, 2})
        assert json.loads(lines[0])["event"] == "member-up"

    def test_to_path_appends_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog.to_path(str(path))
        assert log.enabled
        log.emit("epoch-published", epoch=3)
        log.emit("epoch-published", epoch=4)
        log.close()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert [e["epoch"] for e in events] == [3, 4]


# -- trace contexts ----------------------------------------------------------


class TestTraceContext:
    def test_falsy_trace_makes_no_context(self):
        assert TraceContext.make(False) is None
        assert TraceContext.make(None) is None
        assert TraceContext.make("") is None

    def test_true_draws_an_id_and_strings_become_the_id(self):
        assert len(TraceContext.make(True).id) == 16
        assert TraceContext.make("my-id").id == "my-id"
        assert len(new_trace_id()) == 16

    def test_hops_fold_in_server_spans_and_count_failovers(self):
        ctx = TraceContext("t1")
        first = ctx.begin_hop("dead.sock")
        ctx.fail_hop(first, ConnectionRefusedError("refused"))
        second = ctx.begin_hop("live.sock")
        ctx.end_hop(
            second,
            {"ok": True, "trace": {"id": "t1", "span": {"total_ms": 1.0}}},
        )
        out = ctx.as_dict()
        assert out["id"] == "t1"
        assert out["failovers"] == 1
        assert "error" in out["hops"][0]
        assert out["hops"][1]["span"] == {"total_ms": 1.0}
        assert all("_started" not in hop for hop in out["hops"])


# -- the instrumented server -------------------------------------------------


class TestServerMetricsOp:
    def test_scrape_reflects_served_requests(self, tmp_path, client):
        assert client.check(DTD, DOC)["ok"] is True
        reply = client.metrics()
        assert reply["op"] == "metrics"
        snapshot = reply["metrics"]
        assert counter_value(snapshot, "repro_requests_total", op="check") == 1
        assert counter_value(snapshot, "repro_dispatch_total") >= 1
        entries = histogram_entries(snapshot, "repro_request_seconds")
        assert any(e["count"] for e in entries)
        phases = {
            e["labels"]["phase"]
            for e in histogram_entries(snapshot, "repro_phase_seconds")
            if e["count"]
        }
        assert {"parse", "queue", "verdict"} <= phases
        assert validate_exposition(reply["prometheus"]) > 0

    def test_every_scraped_name_is_in_the_catalog(self, client):
        client.check(DTD, DOC)
        snapshot = client.metrics()["metrics"]
        names = {
            entry["name"]
            for kind in ("counters", "gauges", "histograms")
            for entry in snapshot[kind]
        }
        assert names <= CATALOG_NAMES

    def test_untraced_replies_carry_no_trace(self, client):
        assert "trace" not in client.check(DTD, DOC)

    def test_traced_reply_carries_the_server_span(self, client):
        reply = client.check(DTD, DOC, trace="abc123")
        trace = reply["trace"]
        assert trace["id"] == "abc123"
        span = trace["span"]
        assert span["op"] == "check"
        assert span["total_ms"] >= 0
        assert span["backend"] in ("kernel", "machine", "figure5", "earley")
        assert counter_value(
            client.metrics()["metrics"], "repro_traced_requests_total"
        ) == 1

    def test_traced_batch_items_and_trailer(self, client):
        replies, trailer = client.check_batch(DTD, [DOC, DOC], trace="b-1")
        assert all(r["trace"]["id"] == "b-1" for r in replies)
        assert trailer["trace"]["span"]["items"] == 2
        snapshot = client.metrics()["metrics"]
        assert counter_value(snapshot, "repro_batch_items_total") == 2

    def test_empty_trace_is_a_bad_request(self, client):
        from repro.server.client import ServerError

        with pytest.raises(ServerError) as info:
            client.request({"op": "check", "dtd": DTD, "doc": DOC,
                            "trace": ""})
        assert info.value.code == "bad-request"

    @pytest.fixture()
    def client(self, tmp_path):
        from repro.server.client import ValidationClient

        with ServerThread(
            unix_path=str(tmp_path / "pv.sock"), port=0
        ) as handle:
            with ValidationClient.connect_unix(handle.unix_path) as client:
                yield client


class TestFusedRoutePhases:
    """The phases of the fused route: admission, then verdict; no decide
    phase, and a document tree parse only where a tree is built."""

    @staticmethod
    def observed(snapshot, name, **labels):
        return sum(
            entry["count"]
            for entry in histogram_entries(snapshot, name)
            if all(entry["labels"].get(k) == v for k, v in labels.items())
        )

    def test_auto_builds_no_tree(self, tmp_path):
        from repro.server.client import ValidationClient

        with ServerThread(
            unix_path=str(tmp_path / "pv.sock"), admission="audit"
        ) as handle:
            with ValidationClient.connect_unix(handle.unix_path) as client:
                client.check(DTD, DOC)
                client.check_batch(DTD, [DOC, "<doc><para>q</para></doc>"])
                snapshot = client.metrics()["metrics"]
                assert self.observed(snapshot, "repro_parse_seconds") == 0
                for phase in ("admission", "verdict"):
                    assert self.observed(
                        snapshot, "repro_phase_seconds", phase=phase
                    ) == 3
                assert self.observed(
                    snapshot, "repro_phase_seconds", phase="decide"
                ) == 0
                assert counter_value(
                    snapshot, "repro_dispatch_total", backend="kernel"
                ) == 3
                assert counter_value(
                    snapshot, "repro_dispatch_total", backend="figure5"
                ) == 0

                # A named tree backend parses, and only that parse counts.
                client.check(DTD, DOC, algorithm="figure5")
                snapshot = client.metrics()["metrics"]
                assert self.observed(snapshot, "repro_parse_seconds") == 1

    def test_reference_parser_observes_the_parse(self, tmp_path, monkeypatch):
        from repro.server.client import ValidationClient

        monkeypatch.setenv("REPRO_PARSER", "reference")
        with ServerThread(unix_path=str(tmp_path / "pv.sock")) as handle:
            with ValidationClient.connect_unix(handle.unix_path) as client:
                reply = client.check(DTD, DOC, trace="t1")
                assert reply["algorithm"] == "kernel"
                assert "parse_ms" in reply["trace"]["span"]
                snapshot = client.metrics()["metrics"]
                assert self.observed(snapshot, "repro_parse_seconds") == 1


class TestServerKnobs:
    def test_hot_limit_bounds_the_stats_hot_list_and_is_reported(
        self, tmp_path
    ):
        from repro.server.client import ValidationClient

        with ServerThread(
            unix_path=str(tmp_path / "pv.sock"), port=0,
            server=ValidationServer(hot_limit=2),
        ) as handle:
            with ValidationClient.connect_unix(handle.unix_path) as client:
                for index in range(4):
                    client.check(schema_text(index), doc_text(index))
                stats = client.stats()
        assert stats["server"]["hot_limit"] == 2
        assert len(stats["hot"]) == 2

    def test_slow_ms_zero_counts_and_logs_every_request(self, tmp_path):
        from repro.server.client import ValidationClient

        lines: list[str] = []
        server = ValidationServer(slow_ms=0.0, events=EventLog(lines.append))
        with ServerThread(
            unix_path=str(tmp_path / "pv.sock"), port=0, server=server
        ) as handle:
            with ValidationClient.connect_unix(handle.unix_path) as client:
                client.check(DTD, DOC, trace="slow-1")
                snapshot = client.metrics()["metrics"]
        assert counter_value(snapshot, "repro_slow_requests_total") >= 1
        events = [json.loads(line) for line in lines]
        slow = [e for e in events if e["event"] == "slow-request"]
        assert slow and slow[0]["op"] == "check"
        assert slow[0]["trace"] == "slow-1"

    def test_knob_validation(self):
        with pytest.raises(ValueError):
            ValidationServer(hot_limit=0)
        with pytest.raises(ValueError):
            ValidationServer(slow_ms=-1.0)

    def test_stripped_server_serves_but_snapshots_empty(self, tmp_path):
        from repro.server.client import ValidationClient

        server = ValidationServer(metrics=MetricsRegistry(enabled=False))
        with ServerThread(
            unix_path=str(tmp_path / "pv.sock"), port=0, server=server
        ) as handle:
            with ValidationClient.connect_unix(handle.unix_path) as client:
                assert client.check(DTD, DOC)["ok"] is True
                reply = client.metrics()
        assert reply["metrics"] == {
            "counters": [], "gauges": [], "histograms": []
        }


class TestRegistryAndStoreEventCounters:
    def test_registry_events_mirror_into_metrics(self):
        from repro.dtd.parser import parse_dtd
        from repro.service.registry import SchemaRegistry

        metrics = MetricsRegistry()
        registry = SchemaRegistry(maxsize=1)
        registry.attach_metrics(metrics)
        registry.get(parse_dtd(schema_text(0)))
        registry.get(parse_dtd(schema_text(0)))
        registry.get(parse_dtd(schema_text(1)))  # evicts schema 0
        snapshot = metrics.snapshot()
        events = "repro_registry_events_total"
        assert counter_value(snapshot, events, event="miss") == 2
        assert counter_value(snapshot, events, event="hit") == 1
        assert counter_value(snapshot, events, event="eviction") == 1

    def test_store_events_mirror_into_metrics(self, tmp_path):
        from repro.dtd.parser import parse_dtd
        from repro.service.compiled import compile_schema
        from repro.service.store import ArtifactStore

        metrics = MetricsRegistry()
        store = ArtifactStore(tmp_path / "store")
        store.attach_observability(metrics=metrics)
        schema = compile_schema(parse_dtd(schema_text(0)))
        store.save(schema)
        assert store.load(schema.fingerprint) is not None
        assert store.load("0" * 64) is None
        snapshot = metrics.snapshot()
        events = "repro_store_events_total"
        assert counter_value(snapshot, events, event="save") == 1
        assert counter_value(snapshot, events, event="hit") == 1
        assert counter_value(snapshot, events, event="miss") == 1


# -- the instrumented ring ---------------------------------------------------


class TestTracedFailover:
    def test_trace_spans_a_forced_failover(self, tmp_path):
        live = ServerThread(
            unix_path=str(tmp_path / "live.sock"), port=0
        ).start()
        live_path = live.unix_path
        dead_path = str(tmp_path / "dead.sock")
        try:
            with ShardedClient([live_path, dead_path], timeout=2.0) as ring:
                index = next(
                    i for i in range(64)
                    if member_label(
                        ring.ring.owner(ring.fingerprint(schema_text(i)))
                    ) == dead_path
                )
                reply = ring.check(
                    schema_text(index), doc_text(index), trace=True
                )
                telemetry = ring.telemetry.snapshot()
        finally:
            live.stop()
        assert reply["ok"] is True
        trace = reply["trace"]
        assert trace["failovers"] == 1
        hops = trace["hops"]
        assert [hop["member"] for hop in hops] == [dead_path, live_path]
        assert "error" in hops[0]
        assert hops[1]["span"]["op"] == "check"
        assert counter_value(telemetry, "repro_ring_failovers_total") == 1
        assert counter_value(
            telemetry, "repro_ring_reads_total", member=live_path
        ) == 1

    def test_failover_and_liveness_events_are_emitted(self, tmp_path):
        lines: list[str] = []
        live = ServerThread(
            unix_path=str(tmp_path / "live.sock"), port=0
        ).start()
        dead_path = str(tmp_path / "dead.sock")
        try:
            with ShardedClient(
                [live.unix_path, dead_path], timeout=2.0,
                events=EventLog(lines.append),
            ) as ring:
                index = next(
                    i for i in range(64)
                    if member_label(
                        ring.ring.owner(ring.fingerprint(schema_text(i)))
                    ) == dead_path
                )
                ring.check(schema_text(index), doc_text(index))
        finally:
            live.stop()
        events = [json.loads(line)["event"] for line in lines]
        assert "member-down" in events
        assert "failover" in events


class TestRingMetricsAggregation:
    def test_ring_wide_scrape_merges_reachable_shards(self, tmp_path):
        shards = [
            ServerThread(
                unix_path=str(tmp_path / f"shard-{i}.sock"), port=0
            ).start()
            for i in range(2)
        ]
        dead_path = str(tmp_path / "dead.sock")
        members = [s.unix_path for s in shards] + [dead_path]
        try:
            with ShardedClient(members, timeout=2.0) as ring:
                for index in range(8):
                    ring.check(schema_text(index), doc_text(index))
                scrape = ring.metrics()
        finally:
            for shard in shards:
                shard.stop()
        assert scrape["shards"][dead_path] is None
        live_snapshots = [
            snapshot for snapshot in scrape["shards"].values()
            if snapshot is not None
        ]
        assert len(live_snapshots) == 2
        total = sum(
            counter_value(s, "repro_requests_total", op="check")
            for s in live_snapshots
        )
        merged_total = counter_value(
            scrape["merged"], "repro_requests_total", op="check"
        )
        assert merged_total == total == 8
        reads = counter_value(scrape["client"], "repro_ring_reads_total")
        assert reads == 8


class TestCoordinatorScrape:
    def test_scrape_metrics_totals_and_deltas(self, tmp_path):
        from repro.server.client import ValidationClient
        from repro.server.coordinator import RingCoordinator

        with ServerThread(
            unix_path=str(tmp_path / "shard.sock"), port=0
        ) as handle:
            coordinator = RingCoordinator([handle.unix_path], timeout=2.0)
            try:
                with ValidationClient.connect_unix(handle.unix_path) as client:
                    client.check(DTD, DOC)
                first = coordinator.scrape_metrics()
                with ValidationClient.connect_unix(handle.unix_path) as client:
                    client.check(DTD, DOC)
                second = coordinator.scrape_metrics()
                status = coordinator.status()
            finally:
                coordinator.stop()
        assert first["totals"]["repro_requests_total"] >= 1
        assert second["deltas"]["repro_requests_total"] == pytest.approx(
            second["totals"]["repro_requests_total"]
            - first["totals"]["repro_requests_total"]
        )
        assert status["metrics_deltas"] == second["deltas"]


# -- the CLI -----------------------------------------------------------------


class TestCliMetrics:
    def ring(self, tmp_path, count=2):
        return [
            ServerThread(
                unix_path=str(tmp_path / f"shard-{i}.sock"), port=0
            ).start()
            for i in range(count)
        ]

    def test_metrics_aggregates_ring_wide(self, tmp_path, capsys):
        from repro.server.client import ValidationClient

        shards = self.ring(tmp_path)
        try:
            with ValidationClient.connect_unix(shards[0].unix_path) as client:
                client.check(DTD, DOC)
            addrs = ",".join(s.unix_path for s in shards)
            assert main(["metrics", addrs]) == 0
            out = capsys.readouterr().out
            assert "ring: requests=" in out
            assert "latency by op:" in out
            assert main(["metrics", addrs, "--prometheus"]) == 0
            prom = capsys.readouterr().out
            assert validate_exposition(prom) > 0
            assert "repro_requests_total" in prom
        finally:
            for shard in shards:
                shard.stop()

    def test_metrics_discovers_the_ring_from_one_shard(
        self, tmp_path, capsys
    ):
        from repro.server.client import ValidationClient

        shards = self.ring(tmp_path)
        for shard in shards:
            shard.server.set_ring_view(
                1, [s.unix_path for s in shards], 2
            )
        try:
            with ValidationClient.connect_unix(shards[0].unix_path) as client:
                client.check(DTD, DOC)
            assert main(["metrics", "--discover", shards[0].unix_path]) == 0
            out = capsys.readouterr().out
            assert "ring: requests=" in out
        finally:
            for shard in shards:
                shard.stop()

    def test_metrics_exits_1_when_a_shard_is_down(self, tmp_path, capsys):
        shards = self.ring(tmp_path, count=1)
        dead = str(tmp_path / "dead.sock")
        try:
            assert main(["metrics", f"{shards[0].unix_path},{dead}"]) == 1
            captured = capsys.readouterr()
            assert "DOWN" in captured.err
            assert "ring: requests=" in captured.out  # survivors still print
        finally:
            shards[0].stop()

    def test_ring_status_metrics_flag(self, tmp_path, capsys):
        shards = self.ring(tmp_path, count=1)
        try:
            assert main(["ring-status", shards[0].unix_path, "--metrics"]) == 0
            assert "ring: requests=" in capsys.readouterr().out
        finally:
            shards[0].stop()

    def test_serve_knob_validation_is_a_usage_error(self, capsys):
        assert main(["serve", "--hot-limit", "0"]) == 2
        assert "--hot-limit" in capsys.readouterr().err
        assert main(["serve", "--slow-ms", "-5"]) == 2
        assert "--slow-ms" in capsys.readouterr().err


# -- catalog hygiene ---------------------------------------------------------


class TestCatalog:
    def test_catalog_names_are_unique(self):
        names = [spec.name for spec in CATALOG]
        assert len(names) == len(set(names))

    def test_catalog_kinds_are_valid(self):
        assert {spec.kind for spec in CATALOG} <= {
            "counter", "gauge", "histogram"
        }
