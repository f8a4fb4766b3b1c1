"""End-to-end server tests: real TCP sockets, both transports.

A :class:`ServerThread` runs the asyncio server in-process; clients
are real blocking sockets (binary protocol) and ``http.client`` (the
HTTP adapter), so these tests cover framing, dispatch, and the service
behind them together.
"""

from __future__ import annotations

import http.client
import json
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.core import STS3Database
from repro.data.workloads import ecg_workload
from repro.obs import get_registry
from repro.serve import (
    PROTOCOL_VERSION,
    ServeClient,
    ServeError,
    ServerThread,
    ServiceConfig,
)

from ..conftest import answer_hex


@pytest.fixture
def server(db):
    with ServerThread(db, ServiceConfig()) as handle:
        yield handle


def http_request(server, method, path, payload=None):
    conn = http.client.HTTPConnection("127.0.0.1", server.http_port, timeout=10)
    body = json.dumps(payload) if payload is not None else None
    conn.request(method, path, body, {"Content-Type": "application/json"})
    response = conn.getresponse()
    raw = response.read()
    conn.close()
    return response, raw


class TestBinaryProtocol:
    def test_ping(self, server):
        with ServeClient("127.0.0.1", server.port) as client:
            reply = client.ping()
        assert reply["pong"] is True
        assert reply["v"] == PROTOCOL_VERSION
        assert reply["n_series"] > 0

    def test_query_parity_with_direct_call(self, db, server, queries):
        direct = [db.query(q, k=5, method="index") for q in queries[:4]]
        with ServeClient("127.0.0.1", server.port) as client:
            served = [client.query(q, k=5, method="index") for q in queries[:4]]
        for s, d in zip(served, direct):
            assert s.neighbors == d.neighbors
            assert s.stats == d.stats
            assert s.complete == d.complete

    def test_concurrent_clients_coalesce_and_agree(self, db, server, queries):
        # The acceptance scenario in miniature: N threads, one query
        # each, answers must match direct calls bit-for-bit.
        direct = [db.query(q, k=5, method="index") for q in queries]
        served = [None] * len(queries)
        errors = []

        def worker(i):
            try:
                with ServeClient("127.0.0.1", server.port) as client:
                    served[i] = client.query(queries[i], k=5, method="index")
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(len(queries))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        for s, d in zip(served, direct):
            assert s.neighbors == d.neighbors
            assert s.stats == d.stats
        # Every query went through a window; how they grouped depends
        # on thread timing, but none may be lost or duplicated.
        snapshot = get_registry().histogram(
            "sts3_server_window_queries"
        ).series_snapshot()
        assert snapshot["sum"] == len(queries)

    @pytest.mark.parametrize("length", [128, 512, 2048])
    def test_default_method_clients_reach_the_batch_engine(self, length):
        # No client names a method: the coalesced window must run the
        # vectorized kernel and still answer exactly (the naive scan).
        n_clients = 8
        workload = ecg_workload(80, n_clients, length, seed=3)
        db = STS3Database(workload.database, sigma=3, epsilon=0.58)
        naive = [db.query(q, k=10, method="naive") for q in workload.queries]
        served = [None] * n_clients
        errors = []
        connected = threading.Barrier(n_clients + 1, timeout=10)

        def worker(i):
            try:
                with ServeClient("127.0.0.1", server.port) as client:
                    connected.wait()
                    served[i] = client.query(workload.queries[i], k=10)
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        # The loop is parked until every client has connected, plus a
        # moment for their sends, so it reads all the queries in one
        # turn and they leave as one window.
        with ServerThread(db, ServiceConfig()) as server:
            parked = threading.Event()
            server._loop.call_soon_threadsafe(
                lambda: (parked.set(), connected.wait(), time.sleep(0.05))
            )
            assert parked.wait(timeout=10)
            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(n_clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        assert not errors
        assert [answer_hex(s) for s in served] == [answer_hex(d) for d in naive]
        engine = get_registry().histogram(
            "sts3_batch_engine_queries"
        ).series_snapshot()
        assert engine["sum"] == n_clients
        windows = get_registry().histogram(
            "sts3_server_window_queries"
        ).series_snapshot()
        assert windows["count"] == 1 and windows["sum"] == n_clients

    def test_batch_op(self, db, server, queries):
        direct = db.query_batch(list(queries[:5]), k=3, method="index")
        with ServeClient("127.0.0.1", server.port) as client:
            served = client.query_batch(queries[:5], k=3, method="index")
        assert len(served) == 5
        for s, d in zip(served, direct):
            assert s.neighbors == d.neighbors

    def test_insert_then_query_sees_it(self, server, queries):
        with ServeClient("127.0.0.1", server.port) as client:
            before = client.ping()["n_series"]
            report = client.insert(queries[0])
            assert report["n_series"] == before + 1
            assert report["path"] in ("direct", "buffered")
            # The inserted series is its own best match.
            result = client.query(queries[0], k=1, method="index")
            assert result.neighbors[0].similarity == 1.0

    def test_verify_op(self, server):
        with ServeClient("127.0.0.1", server.port) as client:
            assert client.verify() == []

    def test_metrics_op(self, server, queries):
        with ServeClient("127.0.0.1", server.port) as client:
            client.query(queries[0], k=3)
            text = client.metrics()
        assert "sts3_server_requests_total" in text
        assert 'op="query"' in text

    def test_deadline_field_travels(self, db, server, queries):
        # A generous deadline completes; the field must round-trip
        # without perturbing the answer.
        direct = db.query(queries[0], k=5, method="index")
        with ServeClient("127.0.0.1", server.port) as client:
            served = client.query(
                queries[0], k=5, method="index", deadline_ms=60_000
            )
        assert served.neighbors == direct.neighbors

    def test_unknown_op_is_bad_request(self, server):
        with ServeClient("127.0.0.1", server.port) as client:
            with pytest.raises(ServeError) as excinfo:
                client._call({"op": "frobnicate"})
        assert excinfo.value.code == "BAD_REQUEST"

    def test_wrong_protocol_version_refused(self, server):
        with ServeClient("127.0.0.1", server.port) as client:
            with pytest.raises(ServeError) as excinfo:
                client._call({"op": "ping", "v": 99})
        assert excinfo.value.code == "BAD_REQUEST"
        assert "version" in str(excinfo.value)

    def test_query_without_blob_is_bad_request(self, server):
        with ServeClient("127.0.0.1", server.port) as client:
            with pytest.raises(ServeError) as excinfo:
                client._call({"op": "query", "k": 3})
        assert excinfo.value.code == "BAD_REQUEST"

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_is_bad_request(self, server, queries, k):
        with ServeClient("127.0.0.1", server.port) as client:
            with pytest.raises(ServeError) as excinfo:
                client.query(queries[0], k=k)
            assert excinfo.value.code == "BAD_REQUEST"
            # null means "the default", on the same connection
            assert len(client.query(queries[0], k=None).neighbors) == 1

    def test_garbage_frame_gets_error_then_close(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as raw:
            # A framed payload that is not valid JSON.
            junk = b"\x00\x00\x00\x04junk"
            raw.sendall(struct.pack(">I", len(junk)) + junk)
            prefix = raw.recv(4)
            (length,) = struct.unpack(">I", prefix)
            payload = b""
            while len(payload) < length:
                chunk = raw.recv(length - len(payload))
                if not chunk:
                    break
                payload += chunk
            (head_len,) = struct.unpack(">I", payload[:4])
            reply = json.loads(payload[4:4 + head_len])
            assert reply["status"] == "error"
            assert reply["code"] == "BAD_REQUEST"
            # Server hangs up after a framing error.
            assert raw.recv(1) == b""


class TestHttpAdapter:
    def test_healthz(self, server):
        response, raw = http_request(server, "GET", "/healthz")
        assert response.status == 200
        payload = json.loads(raw)
        assert payload["status"] == "ok"
        assert payload["n_series"] > 0

    def test_metrics_exposition(self, server, queries):
        with ServeClient("127.0.0.1", server.port) as client:
            client.query(queries[0], k=3)
        response, raw = http_request(server, "GET", "/metrics")
        assert response.status == 200
        assert response.getheader("Content-Type", "").startswith("text/plain")
        assert b"sts3_server_requests_total" in raw

    def test_query_endpoint_parity(self, db, server, queries):
        direct = db.query(queries[0], k=3, method="index")
        response, raw = http_request(
            server, "POST", "/v1/query",
            {"series": [float(x) for x in queries[0]], "k": 3,
             "method": "index"},
        )
        assert response.status == 200
        payload = json.loads(raw)
        served = payload["result"]["neighbors"]
        assert [i for i, _ in served] == [n.index for n in direct.neighbors]
        # JSON floats are repr round-trips: similarity is bit-exact.
        for (_, sim), neighbor in zip(served, direct.neighbors):
            assert sim == neighbor.similarity

    def test_batch_endpoint(self, db, server, queries):
        direct = db.query_batch(list(queries[:3]), k=2, method="index")
        response, raw = http_request(
            server, "POST", "/v1/batch",
            {"queries": [[float(x) for x in q] for q in queries[:3]], "k": 2,
             "method": "index"},
        )
        assert response.status == 200
        results = json.loads(raw)["results"]
        assert len(results) == 3
        for wire, d in zip(results, direct):
            assert [i for i, _ in wire["neighbors"]] == [
                n.index for n in d.neighbors
            ]

    def test_insert_endpoint(self, server, queries):
        response, raw = http_request(
            server, "POST", "/v1/insert",
            {"series": [float(x) for x in queries[1]]},
        )
        assert response.status == 200
        payload = json.loads(raw)
        assert payload["status"] == "ok"
        assert payload["path"] in ("direct", "buffered")

    def test_verify_endpoint(self, server):
        response, raw = http_request(server, "POST", "/v1/verify", {})
        assert response.status == 200
        assert json.loads(raw)["problems"] == []

    def test_bad_body_is_400(self, server):
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.http_port, timeout=10
        )
        conn.request(
            "POST", "/v1/query", "not json",
            {"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        payload = json.loads(response.read())
        conn.close()
        assert response.status == 400
        assert payload["code"] == "BAD_REQUEST"

    @pytest.mark.parametrize("length", ["100000000", "-5", "12abc"])
    def test_bad_content_length_is_400_before_the_body(self, server, length):
        # No body follows: the length is refused from the header alone
        # (a body over the frame cap is never read, so never waited on).
        with socket.create_connection(
            ("127.0.0.1", server.http_port), timeout=5
        ) as raw:
            raw.sendall(
                f"POST /v1/query HTTP/1.1\r\nContent-Length: {length}\r\n"
                "\r\n".encode()
            )
            reply = raw.makefile("rb").read()
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert json.loads(body)["code"] == "BAD_REQUEST"

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_is_400(self, server, queries, k):
        body = {"series": [float(x) for x in queries[0]], "k": k}
        response, raw = http_request(server, "POST", "/v1/query", body)
        assert response.status == 400
        assert json.loads(raw)["code"] == "BAD_REQUEST"
        response, raw = http_request(
            server, "POST", "/v1/batch", {"queries": [body["series"]], "k": k}
        )
        assert response.status == 400

    def test_missing_series_is_400(self, server):
        response, raw = http_request(server, "POST", "/v1/query", {"k": 3})
        assert response.status == 400

    def test_unknown_route_is_404(self, server):
        response, raw = http_request(server, "GET", "/nope")
        assert response.status == 404

    def test_rate_limit_maps_to_429(self, db):
        config = ServiceConfig(rate_limit=1.0, rate_burst=1)
        with ServerThread(db, config) as handle:
            handle.service.clock = lambda: 0.0  # bucket never refills
            body = {"series": [0.0, 1.0, 2.0, 1.0] * 8, "k": 1,
                    "client": "alice"}
            first, _ = http_request(handle.server, "POST", "/v1/query", body)
            assert first.status == 200
            second, raw = http_request(handle.server, "POST", "/v1/query", body)
            assert second.status == 429
            assert json.loads(raw)["code"] == "RATE_LIMITED"
            handle.service._draining = True  # skip the drain wait on exit


class TestLifecycle:
    def test_drain_on_stop_counts_connections_down(self, db, queries):
        with ServerThread(db, ServiceConfig()) as handle:
            with ServeClient("127.0.0.1", handle.port) as client:
                client.query(queries[0], k=3)
                gauge = get_registry().gauge("sts3_server_connections")
                assert gauge.value() == 1
        assert get_registry().gauge("sts3_server_connections").value() == 0

    def test_server_after_drain_refuses(self, db, queries):
        handle = ServerThread(db, ServiceConfig()).start()
        try:
            handle.submit(handle.service.drain()).result(timeout=30)
            with ServeClient("127.0.0.1", handle.port) as client:
                with pytest.raises(ServeError) as excinfo:
                    client.query(queries[0], k=3)
            assert excinfo.value.code == "DRAINING"
            response, raw = http_request(handle.server, "GET", "/healthz")
            assert response.status == 503
            assert json.loads(raw)["status"] == "draining"
        finally:
            handle.stop()


class TestServeCommand:
    def test_cli_serve_end_to_end(self, tmp_path):
        # The real `sts3 serve` process: synthetic db, ephemeral ports,
        # one query over the wire, SIGINT drains and exits 0.
        import re
        import signal
        import subprocess
        import sys
        import time

        import numpy as np

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--http-port", "0", "--series", "60", "--length", "32"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            port = None
            deadline = time.monotonic() + 30
            lines = []
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                lines.append(line)
                match = re.search(r"binary protocol on .*:(\d+)", line)
                if match:
                    port = int(match.group(1))
                    break
            assert port is not None, "".join(lines)
            with ServeClient("127.0.0.1", port) as client:
                assert client.ping()["n_series"] == 60
                result = client.query(
                    np.sin(np.linspace(0, 6, 32)), k=3, method="index"
                )
                assert len(result.neighbors) == 3
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
