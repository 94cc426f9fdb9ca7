"""Tests for the asyncio validation server, protocol, and client."""

from __future__ import annotations

import asyncio
import base64
import json
import socket
import threading

import pytest

from repro.core.coarse import decode_coarse
from repro.obs.metrics import counter_value
from repro.server import protocol
from repro.server.client import ServerError, ValidationClient
from repro.server.protocol import ProtocolError, decode_request
from repro.server.server import ServerThread, ValidationServer
from repro.service.registry import SchemaRegistry
from repro.service.store import ArtifactStore

FIGURE1 = """
<!ELEMENT r (a+)>
<!ELEMENT a (b?, (c | f), d)>
<!ELEMENT b (d | f)>
<!ELEMENT c (#PCDATA)>
<!ELEMENT d (#PCDATA | e)*>
<!ELEMENT e EMPTY>
<!ELEMENT f (c, e)>
"""

DOC_OK = "<r><a><b>A quick brown</b><c> fox</c> dog<e></e></a></r>"
#: The paper's W: <e> before <c> cannot be completed by insertions alone.
DOC_BAD = "<r><a><b>A quick brown</b><e></e><c> fox</c> dog</a></r>"


# -- protocol unit tests -----------------------------------------------------


class TestProtocol:
    def test_request_roundtrip(self):
        request = decode_request(
            json.dumps(
                {"op": "check", "dtd": FIGURE1, "doc": DOC_OK,
                 "algorithm": "machine", "id": 7}
            )
        )
        assert request.op == "check"
        assert request.algorithm == "machine"
        assert request.id == 7

    def test_bad_json(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(b"this is { not json")
        assert excinfo.value.code == "bad-json"

    def test_non_object(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(b"[1, 2, 3]")
        assert excinfo.value.code == "bad-request"

    def test_unknown_op(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(json.dumps({"op": "frobnicate"}))
        assert excinfo.value.code == "unsupported-op"

    def test_missing_dtd(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(json.dumps({"op": "check", "doc": DOC_OK}))
        assert "requires 'dtd'" in excinfo.value.message

    def test_missing_doc(self):
        with pytest.raises(ProtocolError):
            decode_request(json.dumps({"op": "validate", "dtd": FIGURE1}))

    def test_stats_needs_nothing(self):
        assert decode_request(json.dumps({"op": "stats"})).op == "stats"

    def test_bad_algorithm(self):
        with pytest.raises(ProtocolError):
            decode_request(
                json.dumps({"op": "check", "dtd": FIGURE1, "doc": DOC_OK,
                            "algorithm": "magic"})
            )

    def test_non_string_field(self):
        with pytest.raises(ProtocolError):
            decode_request(json.dumps({"op": "check", "dtd": 42, "doc": DOC_OK}))

    def test_encode_is_one_line(self):
        encoded = protocol.encode({"ok": True, "nested": {"a": [1, 2]}})
        assert encoded.endswith(b"\n")
        assert encoded.count(b"\n") == 1

    def test_decode_reply_wraps_bad_json(self):
        # Regression: this used to leak a raw json.JSONDecodeError,
        # violating the "failures are structured" contract.
        with pytest.raises(ProtocolError) as excinfo:
            protocol.decode_reply(b"this is { not json\n")
        assert excinfo.value.code == "bad-reply"

    def test_decode_reply_wraps_bad_utf8(self):
        with pytest.raises(ProtocolError) as excinfo:
            protocol.decode_reply(b"\xff\xfe{}\n")
        assert excinfo.value.code == "bad-reply"

    def test_decode_reply_requires_ok(self):
        with pytest.raises(ProtocolError) as excinfo:
            protocol.decode_reply(b'{"fine": true}\n')
        assert excinfo.value.code == "bad-reply"

    def test_decode_batch_item(self):
        item = protocol.decode_batch_item(b'{"doc": "<r/>", "id": 0}')
        assert item.doc == "<r/>" and item.id == 0
        for garbage in (b"nope {", b"[1]", b'{"id": 3}', b'{"doc": 42}'):
            with pytest.raises(ProtocolError) as excinfo:
                protocol.decode_batch_item(garbage)
            assert excinfo.value.code == "bad-item"


# -- live server tests -------------------------------------------------------


@pytest.fixture
def server_handle():
    with ServerThread(host="127.0.0.1", port=0) as handle:
        yield handle


@pytest.fixture
def client(server_handle):
    with ValidationClient.connect(server_handle.tcp_address) as client:
        yield client


class TestServerRoundTrip:
    def test_check_ok(self, client):
        reply = client.check(FIGURE1, DOC_OK)
        assert reply["ok"] is True
        assert reply["potentially_valid"] is True
        assert reply["failures"] == []
        assert reply["elapsed_ms"] >= 0
        assert reply["schema"]["registry"] == "miss"
        assert len(reply["schema"]["fingerprint"]) == 64

    def test_check_not_pv_carries_failures(self, client):
        reply = client.check(FIGURE1, DOC_BAD)
        assert reply["potentially_valid"] is False
        assert reply["failures"]
        assert reply["failures"][0]["element"]

    def test_second_request_is_a_registry_hit(self, client):
        client.check(FIGURE1, DOC_OK)
        assert client.check(FIGURE1, DOC_OK)["schema"]["registry"] == "hit"

    def test_explicit_algorithms_agree(self, client):
        verdicts = {
            algorithm: client.check(FIGURE1, DOC_OK, algorithm=algorithm)[
                "potentially_valid"
            ]
            for algorithm in ("kernel", "machine", "figure5", "earley")
        }
        assert set(verdicts.values()) == {True}

    def test_auto_dispatch_reports_reason(self, client):
        reply = client.check(FIGURE1, DOC_OK, algorithm="auto")
        assert reply["algorithm"] == "kernel"
        assert reply["dispatch_reason"]

    def test_auto_never_routes_to_figure5(self, client):
        # Small, shallow documents included: auto is the kernel throughout.
        for doc in (DOC_OK, DOC_BAD, "<r></r>"):
            assert client.check(FIGURE1, doc)["algorithm"] == "kernel"
        snapshot = client.metrics()["metrics"]
        assert counter_value(snapshot, "repro_dispatch_total", backend="kernel") == 3
        assert counter_value(snapshot, "repro_dispatch_total", backend="figure5") == 0

    def test_named_requests_skip_dispatch_reason(self, client):
        reply = client.check(FIGURE1, DOC_OK, algorithm="figure5")
        assert reply["algorithm"] == "figure5"
        assert "dispatch_reason" not in reply

    def test_tcp_client_disables_nagle(self, client):
        # Pipelined check-batch windows stall on delayed ACKs otherwise.
        assert client._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    def test_id_is_echoed(self, client):
        assert client.check(FIGURE1, DOC_OK, id="req-1")["id"] == "req-1"

    def test_classify(self, client):
        reply = client.classify(FIGURE1)
        assert reply["dtd_class"] == "non-recursive"
        assert reply["element_count"] == 7

    def test_validate(self, client):
        reply = client.validate(FIGURE1, DOC_OK)
        assert reply["valid"] is False  # potentially valid, not yet valid
        assert reply["issues"]

    def test_stats(self, client):
        client.check(FIGURE1, DOC_OK)
        reply = client.stats()
        assert reply["server"]["requests"] >= 2
        assert reply["registry"]["size"] == 1
        assert reply["store"] is None

    def test_unix_socket(self, tmp_path):
        with ServerThread(unix_path=str(tmp_path / "pv.sock")) as handle:
            assert handle.tcp_address is None
            with ValidationClient.connect_unix(handle.unix_path) as client:
                assert client.check(FIGURE1, DOC_OK)["potentially_valid"]


class TestServerErrors:
    """Every defect is a structured reply; the connection survives."""

    def test_malformed_json_then_normal_request(self, client):
        reply = client.send_raw(b"this is definitely { not json\n")
        assert reply["ok"] is False
        assert reply["error"]["code"] == "bad-json"
        # Same socket still serves real requests.
        assert client.check(FIGURE1, DOC_OK)["potentially_valid"] is True

    def test_bad_dtd(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.check("<!ELEMENT broken", DOC_OK)
        assert excinfo.value.code == "bad-dtd"

    def test_bad_document(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.check(FIGURE1, "<r><a></r>")
        assert excinfo.value.code == "bad-document"

    def test_unknown_op(self, client):
        reply = client.send_raw(b'{"op": "frobnicate"}\n')
        assert reply["error"]["code"] == "unsupported-op"

    def test_blank_lines_are_ignored(self, client):
        reply = client.send_raw(b"\n" + protocol.encode({"op": "stats"}))
        assert reply["ok"] is True

    def test_errors_counted_in_stats(self, client):
        with pytest.raises(ServerError):
            client.check("<!ELEMENT broken", DOC_OK)
        assert client.stats()["server"]["errors"] >= 1

    def test_error_replies_echo_the_request_id(self, client):
        reply = client.send_raw(
            protocol.encode(
                {"op": "check", "dtd": "<!ELEMENT broken", "doc": DOC_OK,
                 "id": 42}
            )
        )
        assert reply["ok"] is False
        assert reply["error"]["code"] == "bad-dtd"
        assert reply["id"] == 42

    def test_server_error_carries_the_full_reply_and_id(self, client):
        # Regression: ServerError used to discard the reply object, which
        # made error replies uncorrelatable under pipelining.
        with pytest.raises(ServerError) as excinfo:
            client.check("<!ELEMENT broken", DOC_OK, id="req-7")
        error = excinfo.value
        assert error.code == "bad-dtd"
        assert error.id == "req-7"
        assert error.reply["ok"] is False
        assert error.reply["id"] == "req-7"
        assert error.reply["error"]["code"] == "bad-dtd"


class TestConcurrentClients:
    def test_many_connections_share_one_registry(self):
        registry = SchemaRegistry()
        with ServerThread(host="127.0.0.1", registry=registry) as handle:
            errors: list[Exception] = []

            def worker() -> None:
                try:
                    with ValidationClient.connect(handle.tcp_address) as client:
                        for _ in range(5):
                            reply = client.check(FIGURE1, DOC_OK)
                            assert reply["potentially_valid"] is True
                except Exception as error:  # pragma: no cover - failure path
                    errors.append(error)

            threads = [threading.Thread(target=worker) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            with ValidationClient.connect(handle.tcp_address) as client:
                stats = client.stats()
        # One compile total; every other access was a warm hit, so the
        # hit rate climbs toward 1 as connections pile on.
        assert stats["registry"]["misses"] == 1
        assert stats["registry"]["hits"] >= 29
        assert stats["registry"]["hit_rate"] > 0.9
        assert registry.stats.size == 1


class _SlowServer(ValidationServer):
    """Adds a delay inside request handling to widen the in-flight window."""

    def __init__(self, delay: float, **kwargs: object) -> None:
        super().__init__(**kwargs)
        self.delay = delay

    async def _handle_line(self, line: bytes, *args: object) -> dict:
        response = await super()._handle_line(line, *args)
        await asyncio.sleep(self.delay)
        return response


class TestGracefulShutdown:
    def test_inflight_request_is_drained(self):
        handle = ServerThread(_SlowServer(delay=0.6), host="127.0.0.1")
        handle.start()
        client = ValidationClient.connect(handle.tcp_address)
        result: dict = {}

        def send() -> None:
            result.update(client.check(FIGURE1, DOC_OK))

        sender = threading.Thread(target=send)
        try:
            sender.start()
            # Let the request reach the server, then stop while in flight.
            import time

            time.sleep(0.2)
            handle.stop()  # blocks until drained
            sender.join(timeout=5)
            assert not sender.is_alive()
            assert result.get("potentially_valid") is True
        finally:
            client.close()

    def test_new_connections_refused_after_stop(self):
        with ServerThread(host="127.0.0.1") as handle:
            address = handle.tcp_address
            with ValidationClient.connect(address) as client:
                client.check(FIGURE1, DOC_OK)
        with pytest.raises(OSError):
            ValidationClient.connect(address)


class TestStoreBackedServer:
    def test_restart_skips_recompilation(self, tmp_path):
        store_dir = tmp_path / "artifacts"
        with ServerThread(
            host="127.0.0.1", store=ArtifactStore(store_dir)
        ) as handle:
            with ValidationClient.connect(handle.tcp_address) as client:
                assert client.check(FIGURE1, DOC_OK)["schema"]["registry"] == "miss"
        # "Restart": a brand-new server and registry over the same store.
        with ServerThread(
            host="127.0.0.1", store=ArtifactStore(store_dir)
        ) as handle:
            with ValidationClient.connect(handle.tcp_address) as client:
                reply = client.check(FIGURE1, DOC_OK)
                stats = client.stats()
        assert reply["schema"]["registry"] == "store"
        assert stats["registry"]["misses"] == 0
        assert stats["registry"]["store_hits"] == 1
        assert stats["registry"]["compile_seconds"] == 0.0

    def test_corrupt_store_recovers_by_recompiling(self, tmp_path):
        store_dir = tmp_path / "artifacts"
        fingerprint = None
        with ServerThread(
            host="127.0.0.1", store=ArtifactStore(store_dir)
        ) as handle:
            with ValidationClient.connect(handle.tcp_address) as client:
                fingerprint = client.check(FIGURE1, DOC_OK)["schema"]["fingerprint"]
        ArtifactStore(store_dir).path_for(fingerprint).write_bytes(b"garbage")
        store = ArtifactStore(store_dir)
        with ServerThread(host="127.0.0.1", store=store) as handle:
            with ValidationClient.connect(handle.tcp_address) as client:
                reply = client.check(FIGURE1, DOC_OK)
        assert reply["potentially_valid"] is True
        assert reply["schema"]["registry"] == "miss"  # honest recompile
        assert store.stats.corrupt == 1
        # The recompiled artifact healed the store for the next restart.
        assert store.load(fingerprint) is not None


class TestProcessPoolServer:
    def test_pool_answers_match_inline(self):
        with ServerThread(host="127.0.0.1", workers=2) as handle:
            with ValidationClient.connect(handle.tcp_address) as client:
                replies = [
                    client.check(FIGURE1, doc, algorithm="machine")
                    for doc in (DOC_OK, DOC_BAD, DOC_OK, DOC_BAD)
                ]
        assert [r["potentially_valid"] for r in replies] == [
            True, False, True, False,
        ]

    def test_pool_bad_document_is_structured(self):
        with ServerThread(host="127.0.0.1", workers=1) as handle:
            with ValidationClient.connect(handle.tcp_address) as client:
                with pytest.raises(ServerError) as excinfo:
                    client.check(FIGURE1, "<r><a></r>")
                assert excinfo.value.code == "bad-document"
                # And the pool still serves afterwards.
                assert client.check(FIGURE1, DOC_OK)["potentially_valid"]

    def test_broken_pool_is_rebuilt(self):
        import os
        from concurrent.futures import BrokenExecutor

        with ServerThread(host="127.0.0.1", workers=1) as handle:
            with ValidationClient.connect(handle.tcp_address) as client:
                assert client.check(FIGURE1, DOC_OK)["potentially_valid"]
                # Kill the worker out from under the server, poisoning
                # the executor the way an OOM-kill would.
                with pytest.raises(BrokenExecutor):
                    handle.server._pool.submit(os._exit, 1).result()
                # The next request rebuilds the pool and still answers.
                assert client.check(FIGURE1, DOC_OK)["potentially_valid"]


def _one_shot_server(respond) -> tuple[str, int, threading.Thread]:
    """A fake TCP server: accept one connection, run *respond*, close."""
    listener = socket.create_server(("127.0.0.1", 0))
    host, port = listener.getsockname()

    def serve() -> None:
        conn, _addr = listener.accept()
        try:
            respond(conn)
        finally:
            conn.close()
            listener.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return host, port, thread


class TestClientWireDefects:
    """The client's own structured-failure contract (satellite coverage)."""

    def test_garbage_reply_is_a_protocol_error(self):
        def respond(conn: socket.socket) -> None:
            conn.makefile("rb").readline()
            conn.sendall(b"this is definitely { not json\n")

        host, port, thread = _one_shot_server(respond)
        with ValidationClient.connect_tcp(host, port) as client:
            with pytest.raises(ProtocolError) as excinfo:
                client.request({"op": "stats"})
        thread.join(timeout=5)
        assert excinfo.value.code == "bad-reply"

    def test_mid_reply_hangup_is_a_connection_error(self):
        def respond(conn: socket.socket) -> None:
            conn.makefile("rb").readline()
            conn.sendall(b'{"ok": tru')  # dies with the reply half-written

        host, port, thread = _one_shot_server(respond)
        with ValidationClient.connect_tcp(host, port) as client:
            with pytest.raises(ConnectionError) as excinfo:
                client.request({"op": "stats"})
        thread.join(timeout=5)
        assert "mid-reply" in str(excinfo.value)

    def test_hangup_before_any_reply_is_a_connection_error(self):
        def respond(conn: socket.socket) -> None:
            conn.makefile("rb").readline()  # read the request, say nothing

        host, port, thread = _one_shot_server(respond)
        with ValidationClient.connect_tcp(host, port) as client:
            with pytest.raises(ConnectionError):
                client.request({"op": "stats"})
        thread.join(timeout=5)


class TestOverLimitRequests:
    """MAX_LINE_BYTES exceeded -> structured error, then disconnect."""

    @pytest.fixture
    def small_limit(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 4096)

    def test_overlong_request_gets_error_then_disconnect(self, small_limit):
        with ServerThread(host="127.0.0.1", port=0) as handle:
            with ValidationClient.connect(handle.tcp_address) as client:
                client.send(
                    {"op": "check", "dtd": FIGURE1, "doc": "<r>" + "x" * 8192}
                )
                reply = client.recv()
                assert reply["ok"] is False
                assert reply["error"]["code"] == "bad-request"
                assert "exceeds" in reply["error"]["message"]
                # The framing is unrecoverable, so the server closes: the
                # documented disconnect.
                with pytest.raises(ConnectionError):
                    client.request({"op": "stats"})

    def test_within_limit_still_fine(self, small_limit):
        with ServerThread(host="127.0.0.1", port=0) as handle:
            with ValidationClient.connect(handle.tcp_address) as client:
                assert client.check(FIGURE1, DOC_OK)["potentially_valid"]

    def test_overlong_batch_item_gets_error_then_disconnect(self, small_limit):
        with ServerThread(host="127.0.0.1", port=0) as handle:
            with ValidationClient.connect(handle.tcp_address) as client:
                client.send(
                    {"op": "check-batch", "dtd": FIGURE1, "count": 1},
                    flush=False,
                )
                client.send({"doc": "<r>" + "y" * 8192})
                reply = client.recv()
                assert reply["ok"] is False
                assert reply["error"]["code"] == "bad-request"
                with pytest.raises(ConnectionError):
                    client.request({"op": "stats"})


class TestUnixSocketLifecycle:
    """Stale socket paths must not brick a restarted server (satellite)."""

    def test_stop_unlinks_the_socket_path(self, tmp_path):
        path = tmp_path / "pv.sock"
        with ServerThread(unix_path=str(path)) as handle:
            assert path.exists()
            assert handle.unix_path == str(path)
        assert not path.exists()

    def test_restart_over_a_stale_socket_succeeds(self, tmp_path):
        # Simulate a crash: a bound-then-abandoned socket file with no
        # listener behind it (what SIGKILL leaves on disk).
        path = tmp_path / "pv.sock"
        stale = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        stale.bind(str(path))
        stale.close()  # closed without listen/accept and without unlink
        assert path.exists()
        with ServerThread(unix_path=str(path)) as handle:
            with ValidationClient.connect_unix(handle.unix_path) as client:
                assert client.check(FIGURE1, DOC_OK)["potentially_valid"]
        assert not path.exists()

    def test_restart_after_restart(self, tmp_path):
        # The original regression: serve, stop, serve again on one path.
        path = str(tmp_path / "pv.sock")
        for _round in range(3):
            with ServerThread(unix_path=path) as handle:
                with ValidationClient.connect_unix(handle.unix_path) as client:
                    assert client.check(FIGURE1, DOC_OK)["ok"]

    def test_live_socket_is_not_stolen(self, tmp_path):
        path = str(tmp_path / "pv.sock")
        with ServerThread(unix_path=path):
            with pytest.raises(OSError):
                ServerThread(unix_path=path).start()
            # And the probe did not kill the live server's socket.
            with ValidationClient.connect_unix(path) as client:
                assert client.check(FIGURE1, DOC_OK)["ok"]

    def test_regular_file_is_never_clobbered(self, tmp_path):
        path = tmp_path / "precious.txt"
        path.write_text("do not delete")
        with pytest.raises(OSError):
            ServerThread(unix_path=str(path)).start()
        assert path.read_text() == "do not delete"


class TestServerConstruction:
    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            ValidationServer(workers=-1)

    def test_unknown_default_algorithm_rejected(self):
        with pytest.raises(ValueError):
            ValidationServer(default_algorithm="quantum")

    def test_needs_an_endpoint(self):
        server = ValidationServer()
        with pytest.raises(ValueError):
            asyncio.run(server.start())

    def test_bind_error_surfaces_from_thread(self):
        with ServerThread(host="127.0.0.1", port=0) as handle:
            _host, port = handle.tcp_address
            with pytest.raises(OSError):
                ServerThread(host="127.0.0.1", port=port).start()


# -- health, ring views, and epochs ------------------------------------------


class TestHealthOp:
    def test_health_without_a_view(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["epoch"] is None
        assert health["members"] is None
        assert health["uptime_seconds"] >= 0.0

    def test_health_reports_the_published_view(self, server_handle, client):
        client.ring_config(3, ["a.sock", "b.sock"], replica_count=2)
        health = client.health()
        assert health["epoch"] == 3
        assert health["members"] == ["a.sock", "b.sock"]
        assert health["replica_count"] == 2


class TestRingConfigOp:
    def test_replies_are_stamped_after_a_view(self, client):
        assert "epoch" not in client.check(FIGURE1, DOC_OK)
        client.ring_config(5, ["a.sock"])
        reply = client.check(FIGURE1, DOC_OK)
        assert reply["epoch"] == 5
        assert client.stats()["server"]["ring_epoch"] == 5

    def test_stale_request_epoch_is_wrong_epoch_with_the_view(self, client):
        client.ring_config(4, ["a.sock", "b.sock"], replica_count=2)
        with pytest.raises(ServerError) as excinfo:
            client.check(FIGURE1, DOC_OK, epoch=2)
        error = excinfo.value.reply["error"]
        assert error["code"] == "wrong-epoch"
        assert error["epoch"] == 4
        assert error["members"] == ["a.sock", "b.sock"]
        assert error["replica_count"] == 2
        # The connection survives: a recoverable protocol error.
        assert client.check(FIGURE1, DOC_OK, epoch=4)["potentially_valid"]

    def test_current_and_future_epochs_are_served(self, client):
        client.ring_config(4, ["a.sock"])
        assert client.check(FIGURE1, DOC_OK, epoch=4)["ok"]
        # A client ahead of this shard (it missed a push) is not gated.
        assert client.check(FIGURE1, DOC_OK, epoch=9)["ok"]

    def test_epochless_requests_are_always_served(self, client):
        client.ring_config(7, ["a.sock"])
        assert client.check(FIGURE1, DOC_OK)["potentially_valid"]

    def test_stale_ring_config_is_rejected(self, client):
        client.ring_config(6, ["a.sock"])
        with pytest.raises(ServerError) as excinfo:
            client.ring_config(2, ["b.sock"])
        assert excinfo.value.code == "wrong-epoch"
        assert excinfo.value.reply["error"]["epoch"] == 6
        # Same epoch re-push is idempotent; newer replaces.
        assert client.ring_config(6, ["a.sock"])["epoch"] == 6
        assert client.ring_config(8, ["b.sock"])["epoch"] == 8
        assert client.health()["members"] == ["b.sock"]

    def test_equal_epoch_with_a_different_view_is_rejected(self, client):
        # Two publishers racing to the same epoch with different member
        # lists must not silently diverge: the tie is rejected so the
        # losing publisher leapfrogs to a superseding epoch.
        client.ring_config(5, ["a.sock", "b.sock"], replica_count=2)
        with pytest.raises(ServerError) as excinfo:
            client.ring_config(5, ["a.sock", "c.sock"], replica_count=2)
        assert excinfo.value.code == "wrong-epoch"
        with pytest.raises(ServerError):
            client.ring_config(5, ["a.sock", "b.sock"], replica_count=1)
        # The held view is untouched by the rejected pushes.
        assert client.health()["members"] == ["a.sock", "b.sock"]

    def test_ring_config_advertises_a_read_policy(self, client):
        client.ring_config(
            3, ["a.sock", "b.sock"], replica_count=2,
            read_policy="round-robin",
        )
        health = client.health()
        assert health["read_policy"] == "round-robin"
        # The wrong-epoch refresh carries it too, so a routing client
        # adopting the view learns the policy from the error alone.
        with pytest.raises(ServerError) as excinfo:
            client.check(FIGURE1, DOC_OK, epoch=1)
        assert excinfo.value.reply["error"]["read_policy"] == "round-robin"

    def test_read_policy_absent_until_advertised(self, client):
        client.ring_config(3, ["a.sock"])
        assert client.health()["read_policy"] is None

    def test_same_epoch_with_a_different_read_policy_is_rejected(self, client):
        client.ring_config(5, ["a.sock"], read_policy="round-robin")
        with pytest.raises(ServerError) as excinfo:
            client.ring_config(5, ["a.sock"], read_policy="least-inflight")
        assert excinfo.value.code == "wrong-epoch"
        assert client.health()["read_policy"] == "round-robin"

    def test_unknown_read_policy_is_bad_request(self, client):
        reply = client.send_raw(
            protocol.encode(
                {"op": "ring-config", "epoch": 1, "members": ["a.sock"],
                 "read_policy": "sticky"}
            )
        )
        assert reply["error"]["code"] == "bad-request"

    def test_ring_config_requires_epoch_and_members(self, client):
        reply = client.send_raw(
            protocol.encode({"op": "ring-config", "epoch": 1})
        )
        assert reply["error"]["code"] == "bad-request"
        reply = client.send_raw(
            protocol.encode({"op": "ring-config", "members": ["a.sock"]})
        )
        assert reply["error"]["code"] == "bad-request"

    def test_batch_header_with_stale_epoch_errors_then_disconnects(
        self, server_handle
    ):
        with ValidationClient.connect(server_handle.tcp_address) as client:
            client.ring_config(4, ["a.sock"])
            with pytest.raises(ServerError) as excinfo:
                client.check_batch(FIGURE1, [DOC_OK], epoch=1)
            assert excinfo.value.code == "wrong-epoch"
            with pytest.raises((ConnectionError, OSError)):
                client.check(FIGURE1, DOC_OK)

    def test_wrong_epoch_happens_before_any_work(self, client):
        client.ring_config(4, ["a.sock"])
        with pytest.raises(ServerError):
            client.check("<!ELEMENT broken", DOC_OK, epoch=1)
        # The stale epoch answered first: the broken DTD was never parsed,
        # so the error code is wrong-epoch, not bad-dtd.
        try:
            client.check("<!ELEMENT broken", DOC_OK, epoch=1)
        except ServerError as error:
            assert error.code == "wrong-epoch"


class TestInflightGauge:
    def test_idle_server_reports_zero_inflight(self, client):
        client.check(FIGURE1, DOC_OK)
        stats = client.stats()
        assert stats["server"]["inflight"] == 0
        assert client.health()["inflight"] == 0

    def test_inflight_counts_a_parked_verdict(self, server_handle):
        # Hold one check in flight on a second connection and observe it
        # through stats on the first — the signal a least-inflight
        # router balances on.
        import threading
        import time

        from repro.server import server as server_module

        release = threading.Event()
        original = server_module._check_fields

        def slow_check(*args):
            release.wait(timeout=10)
            return original(*args)

        server_module._check_fields = slow_check
        try:
            with ValidationClient.connect(server_handle.tcp_address) as busy:
                busy.send({"op": "check", "dtd": FIGURE1, "doc": DOC_OK})
                with ValidationClient.connect(
                    server_handle.tcp_address
                ) as observer:
                    deadline = time.monotonic() + 5.0
                    seen = 0
                    while time.monotonic() < deadline:
                        seen = observer.stats()["server"]["inflight"]
                        if seen >= 1:
                            break
                        time.sleep(0.01)
                    assert seen >= 1
                    release.set()
                    assert busy.recv()["potentially_valid"] is True
                    assert observer.stats()["server"]["inflight"] == 0
        finally:
            server_module._check_fields = original
            release.set()


class TestHotFingerprints:
    def test_stats_rank_fingerprints_by_request_count(self, client):
        other = "<!ELEMENT q (z*)><!ELEMENT z EMPTY>"
        for _ in range(3):
            client.check(FIGURE1, DOC_OK)
        client.check(other, "<q/>")
        hot = client.stats()["hot"]
        assert len(hot) == 2
        (top_fp, top_count), (second_fp, second_count) = hot
        assert top_count == 3 and second_count == 1
        assert top_fp == client.check(FIGURE1, DOC_OK)["schema"]["fingerprint"]
        assert top_fp != second_fp

    def test_batch_items_count_toward_heat(self, client):
        client.check_batch(FIGURE1, [DOC_OK] * 5)
        hot = client.stats()["hot"]
        assert hot[0][1] >= 5


class TestAdmissionServer:
    """The coarse admission stage, server-side (``--admission on/audit``)."""

    #: <zz> is undeclared, so embed-reachability rejects it outright.
    REJECT = "<r><zz></zz></r>"

    @staticmethod
    def _handle(**kwargs):
        return ServerThread(host="127.0.0.1", port=0, **kwargs)

    def test_admission_on_short_circuits_a_definite_reject(self):
        with self._handle(admission="on") as handle:
            with ValidationClient.connect(handle.tcp_address) as client:
                reply = client.check(FIGURE1, self.REJECT)
                assert reply["algorithm"] == "coarse"
                assert reply["admission"] == "reject"
                assert reply["potentially_valid"] is False
                failure = reply["failures"][0]
                assert (failure["path"], failure["element"]) == ("/r", "r")

    def test_admission_on_escalates_uncertain_documents(self):
        with self._handle(admission="on") as handle:
            with ValidationClient.connect(handle.tcp_address) as client:
                reply = client.check(FIGURE1, DOC_OK)
                assert reply["algorithm"] != "coarse"
                assert reply["admission"] == "uncertain"
                assert reply["potentially_valid"] is True

    def test_admission_audit_always_serves_a_real_backend(self):
        with self._handle(admission="audit") as handle:
            with ValidationClient.connect(handle.tcp_address) as client:
                reply = client.check(FIGURE1, self.REJECT)
                assert reply["algorithm"] != "coarse"
                assert reply["admission"] == "reject"
                assert reply["potentially_valid"] is False
                assert "admission_mismatch" not in reply

    def test_admission_off_replies_carry_no_admission_field(self, client):
        reply = client.check(FIGURE1, self.REJECT)
        assert "admission" not in reply
        assert reply["algorithm"] != "coarse"

    def test_batch_items_carry_the_admission_outcome(self):
        with self._handle(admission="on") as handle:
            with ValidationClient.connect(handle.tcp_address) as client:
                replies, trailer = client.check_batch(
                    FIGURE1, [self.REJECT, DOC_OK]
                )
                assert trailer["errors"] == 0
                assert replies[0]["algorithm"] == "coarse"
                assert replies[0]["admission"] == "reject"
                assert replies[1]["algorithm"] != "coarse"
                assert replies[1]["admission"] == "uncertain"

    def test_admission_outcomes_are_scraped(self):
        with self._handle(admission="on") as handle:
            with ValidationClient.connect(handle.tcp_address) as client:
                client.check(FIGURE1, self.REJECT)
                client.check(FIGURE1, DOC_OK)
                reply = client.metrics()
                admitted = {
                    counter["labels"]["outcome"]: counter["value"]
                    for counter in reply["metrics"]["counters"]
                    if counter["name"] == "repro_admission_total"
                }
                assert admitted.get("reject") == 1
                assert admitted.get("uncertain") == 1
                assert "repro_admission_total" in reply["prometheus"]

    def test_pool_workers_admit_too(self):
        """The admission stage rides inside the worker, not the event loop."""
        with self._handle(admission="on", workers=1) as handle:
            with ValidationClient.connect(handle.tcp_address) as client:
                reply = client.check(FIGURE1, self.REJECT)
                assert reply["algorithm"] == "coarse"
                assert reply["admission"] == "reject"

    def test_invalid_admission_mode_is_rejected_at_construction(self):
        with pytest.raises(ValueError):
            ValidationServer(admission="sometimes")


class TestCoarseOp:
    """``get-coarse`` and the ``"coarse": true`` reply stamps."""

    def test_get_coarse_round_trips_the_summary(self, client):
        fingerprint = client.check(FIGURE1, DOC_OK)["schema"]["fingerprint"]
        summary = decode_coarse(client.get_coarse(fingerprint))
        assert summary is not None
        assert summary.root == "r"
        assert set(summary.names) >= {"r", "a", "b", "c", "d", "e", "f"}

    def test_get_coarse_unknown_fingerprint_is_artifact_miss(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.get_coarse("0" * 16)
        assert excinfo.value.code == "artifact-miss"

    def test_check_reply_stamp_decodes(self, client):
        reply = client.check(FIGURE1, DOC_OK, coarse=True)
        blob = base64.b64decode(reply["coarse"].encode("ascii"))
        summary = decode_coarse(blob)
        assert summary is not None and summary.root == "r"

    def test_unstamped_replies_stay_lean(self, client):
        assert "coarse" not in client.check(FIGURE1, DOC_OK)

    def test_batch_trailer_carries_the_stamp_when_asked(self, client):
        replies, trailer = client.check_batch(FIGURE1, [DOC_OK], coarse=True)
        assert len(replies) == 1
        blob = base64.b64decode(trailer["coarse"].encode("ascii"))
        assert decode_coarse(blob) is not None


def test_serve_holds_freed_heap_on_glibc():
    import platform

    from repro.cli import _hold_freed_heap

    assert _hold_freed_heap() is (platform.libc_ver()[0] == "glibc")
