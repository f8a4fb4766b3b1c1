"""Network front ends of the query service.

Two transports over one :class:`~repro.serve.service.QueryService`:

- the **binary protocol** (:mod:`repro.serve.protocol`) on the main
  port — length-prefixed frames with raw float64 series blobs; the
  path clients should use for anything latency- or fidelity-sensitive,
- an **HTTP/1.1 + JSON adapter** on a second port — ``curl``-able
  endpoints for health checks, Prometheus scrapes, and ad-hoc queries
  where copy-pasteable beats compact.

Both share the service's admission control, coalescing windows, and
metrics; the adapter is a thin schema translation, not a second
implementation.  Each binary connection dispatches every request as
its own task (responses carry the request ``id`` and may arrive out of
order), so pipelined clients coalesce just as well as a fleet of
single-shot ones.

:class:`ServerThread` embeds a running server in a background thread —
what the tests and ``benchmarks/bench_serve.py`` use; :func:`serve` is
the long-running entry behind ``sts3 serve``, with signal-triggered
graceful drain.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Awaitable, Callable

import numpy as np

from ..obs import get_registry, span
from .protocol import (
    DEFAULT_PORT,
    HTTP_STATUS,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    ServeError,
    read_message,
    result_to_wire,
    write_message,
)
from .service import QueryService, ServiceConfig

__all__ = ["STS3Server", "ServerThread", "serve"]


def _float_or_none(value, name: str) -> float | None:
    if value is None:
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ServeError("BAD_REQUEST", f"{name} must be a number or null")


def _int_or_none(value, name: str) -> int | None:
    if value is None:
        return None
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ServeError("BAD_REQUEST", f"{name} must be an integer or null")


def _query_params(header: dict) -> dict:
    """Shared k/method/scale/deadline parsing for query and batch ops."""
    method = header.get("method", "auto")
    if not isinstance(method, str):
        raise ServeError("BAD_REQUEST", "method must be a string")
    k = _int_or_none(header.get("k"), "k")
    if k is None:
        k = 1
    elif k < 1:
        raise ServeError("BAD_REQUEST", f"k must be >= 1, got {k}")
    return {
        "k": k,
        "method": method,
        "scale": _int_or_none(header.get("scale"), "scale"),
        "max_scale": _int_or_none(header.get("max_scale"), "max_scale"),
        "deadline_ms": _float_or_none(header.get("deadline_ms"), "deadline_ms"),
    }


def _series_from_json(values, name: str = "series") -> np.ndarray:
    try:
        series = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ServeError("BAD_REQUEST", f"{name} must be a numeric array") from exc
    if series.ndim != 1 or series.size == 0:
        raise ServeError("BAD_REQUEST", f"{name} must be a non-empty 1-D array")
    return series


class STS3Server:
    """Asyncio server pairing the binary protocol with an HTTP adapter.

    ``port``/``http_port`` may be 0 to bind ephemeral ports; the bound
    numbers are available after :meth:`start` (what the tests use to
    avoid port collisions).  ``http_port=None`` disables the adapter.
    """

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        http_port: int | None = None,
    ):
        self.service = service
        self.host = host
        self.port = port
        self.http_port = http_port
        self._binary: asyncio.Server | None = None
        self._http: asyncio.Server | None = None

    async def start(self) -> None:
        """Bind both listeners and update the ports with bound values."""
        self._binary = await asyncio.start_server(
            self._handle_binary, self.host, self.port
        )
        self.port = self._binary.sockets[0].getsockname()[1]
        if self.http_port is not None:
            self._http = await asyncio.start_server(
                self._handle_http, self.host, self.http_port
            )
            self.http_port = self._http.sockets[0].getsockname()[1]

    async def stop(self, drain: bool = True) -> None:
        """Graceful shutdown: stop listening, drain, wait for the listeners."""
        for server in (self._binary, self._http):
            if server is not None:
                server.close()
        if drain:
            await self.service.drain()
        for server in (self._binary, self._http):
            if server is not None:
                await server.wait_closed()

    # -- binary protocol -------------------------------------------------

    async def _handle_binary(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        default_client = f"{peer[0]}:{peer[1]}" if peer else "unknown"
        gauge = get_registry().gauge(
            "sts3_server_connections", "open binary-protocol connections"
        )
        gauge.inc()
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()

        async def respond(header: dict, arrays=()) -> None:
            async with write_lock:
                try:
                    await write_message(writer, header, arrays)
                except (ConnectionError, RuntimeError):
                    pass  # client went away; nothing to tell it

        try:
            while True:
                try:
                    message = await read_message(reader)
                except ProtocolError as exc:
                    # The stream is no longer frame-aligned; answer once
                    # and hang up rather than misparse what follows.
                    await respond(
                        {
                            "v": PROTOCOL_VERSION,
                            "status": "error",
                            "code": "BAD_REQUEST",
                            "message": str(exc),
                        }
                    )
                    break
                if message is None:
                    break
                task = asyncio.get_running_loop().create_task(
                    self._dispatch_binary(message, default_client, respond)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        finally:
            for task in tasks:
                task.cancel()
            gauge.inc(-1)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch_binary(
        self,
        message: tuple[dict, list[np.ndarray]],
        default_client: str,
        respond: Callable[..., Awaitable[None]],
    ) -> None:
        header, arrays = message
        reply: dict = {"v": PROTOCOL_VERSION, "id": header.get("id")}
        try:
            version = header.get("v", PROTOCOL_VERSION)
            if version != PROTOCOL_VERSION:
                raise ServeError(
                    "BAD_REQUEST",
                    f"protocol version {version!r} not supported "
                    f"(server speaks {PROTOCOL_VERSION})",
                )
            op = header.get("op")
            client = header.get("client") or default_client
            if not isinstance(client, str):
                raise ServeError("BAD_REQUEST", "client must be a string")
            with span("server.request", op=str(op), transport="binary"):
                body = await self._execute(op, header, arrays, client)
            reply.update(status="ok", **body)
        except ServeError as exc:
            reply.update(status="error", code=exc.code, message=str(exc))
        except Exception as exc:  # noqa: BLE001 — never tear the connection
            reply.update(status="error", code="INTERNAL", message=str(exc))
        await respond(reply)

    async def _execute(
        self, op, header: dict, arrays: list[np.ndarray], client: str
    ) -> dict:
        """Run one operation against the service; returns reply fields."""
        service = self.service
        if op == "ping":
            return {
                "pong": True,
                "n_series": len(service.db),
                "draining": service.draining,
            }
        if op == "query":
            if len(arrays) != 1:
                raise ServeError(
                    "BAD_REQUEST", "query carries exactly one series blob"
                )
            result = await service.query(
                arrays[0], client=client, **_query_params(header)
            )
            return {"result": result_to_wire(result)}
        if op == "batch":
            if not arrays:
                raise ServeError(
                    "BAD_REQUEST", "batch carries one blob per query"
                )
            results = await service.query_batch(
                arrays, client=client, **_query_params(header)
            )
            return {"results": [result_to_wire(r) for r in results]}
        if op == "insert":
            if len(arrays) != 1:
                raise ServeError(
                    "BAD_REQUEST", "insert carries exactly one series blob"
                )
            return await service.insert(arrays[0], client=client)
        if op == "verify":
            problems = await service.verify(client=client)
            return {"problems": problems}
        if op == "metrics":
            return {"text": get_registry().to_prometheus()}
        raise ServeError("BAD_REQUEST", f"unknown op {op!r}")

    # -- HTTP adapter ----------------------------------------------------

    async def _handle_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One request per connection (``Connection: close`` semantics)."""
        status, body, content_type = 500, b"{}", "application/json"
        try:
            request_line = await reader.readline()
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                return
            http_method, path = parts[0], parts[1]
            content_length = 0
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    # Capped like a binary frame and checked before any
                    # of the body is read, so a bogus length cannot
                    # stall the connection.
                    value = value.strip()
                    if not (value.isdigit() and int(value) <= MAX_FRAME_BYTES):
                        raise ServeError(
                            "BAD_REQUEST", f"bad Content-Length {value!r}"
                        )
                    content_length = int(value)
            raw = (
                await reader.readexactly(content_length)
                if content_length
                else b""
            )
            status, body, content_type = await self._http_route(
                http_method, path, raw
            )
        except (ConnectionError, asyncio.IncompleteReadError):
            return
        except Exception as exc:  # noqa: BLE001 — malformed HTTP input
            status, body = 400, json.dumps(
                {"status": "error", "code": "BAD_REQUEST", "message": str(exc)}
            ).encode()
        finally:
            reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                      429: "Too Many Requests", 503: "Service Unavailable",
                      500: "Internal Server Error"}.get(status, "OK")
            head = (
                f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            )
            try:
                writer.write(head.encode("latin-1") + body)
                await writer.drain()
            except (ConnectionError, RuntimeError):
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _http_route(
        self, http_method: str, path: str, raw: bytes
    ) -> tuple[int, bytes, str]:
        service = self.service
        if http_method == "GET" and path == "/healthz":
            payload = {
                "status": "draining" if service.draining else "ok",
                "n_series": len(service.db),
                "pending": service.pending,
            }
            status = getattr(service.db, "maintenance_status", None)
            if status is not None:
                m = status()
                over_segments = (
                    m["max_segments"] is not None
                    and m["live_segments"] > m["max_segments"]
                )
                over_budget = (
                    m["memory_budget_bytes"] is not None
                    and m["resident_bytes"] > m["memory_budget_bytes"]
                )
                payload["maintenance"] = {
                    "engine": m["engine"],
                    "wal_lag": m["wal_lag"],
                    "live_segments": m["live_segments"],
                    "max_segments": m["max_segments"],
                    "segments_over_threshold": over_segments,
                    "resident_bytes": m["resident_bytes"],
                    "memory_budget_bytes": m["memory_budget_bytes"],
                    "over_memory_budget": over_budget,
                    "pinned_snapshots": m["pinned_snapshots"],
                }
            code = 503 if service.draining else 200
            return code, json.dumps(payload).encode(), "application/json"
        if http_method == "GET" and path == "/metrics":
            text = get_registry().to_prometheus()
            return 200, text.encode(), "text/plain; version=0.0.4"
        if http_method != "POST" or not path.startswith("/v1/"):
            return 404, json.dumps(
                {"status": "error", "code": "BAD_REQUEST",
                 "message": f"no route for {http_method} {path}"}
            ).encode(), "application/json"
        try:
            try:
                payload = json.loads(raw.decode("utf-8")) if raw else {}
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ServeError("BAD_REQUEST", f"body is not JSON: {exc}")
            if not isinstance(payload, dict):
                raise ServeError("BAD_REQUEST", "body must be a JSON object")
            client = payload.get("client") or "http"
            op = path[len("/v1/"):]
            with span("server.request", op=op, transport="http"):
                body = await self._http_execute(op, payload, client)
            return 200, json.dumps({"status": "ok", **body}).encode(), \
                "application/json"
        except ServeError as exc:
            code = HTTP_STATUS[exc.code]
            return code, json.dumps(
                {"status": "error", "code": exc.code, "message": str(exc)}
            ).encode(), "application/json"
        except Exception as exc:  # noqa: BLE001
            return 500, json.dumps(
                {"status": "error", "code": "INTERNAL", "message": str(exc)}
            ).encode(), "application/json"

    async def _http_execute(self, op: str, payload: dict, client: str) -> dict:
        service = self.service
        if op == "query":
            series = _series_from_json(payload.get("series"))
            result = await service.query(
                series, client=client, **_query_params(payload)
            )
            return {"result": result_to_wire(result)}
        if op == "batch":
            queries = payload.get("queries")
            if not isinstance(queries, list) or not queries:
                raise ServeError(
                    "BAD_REQUEST", "queries must be a non-empty list"
                )
            batch = [
                _series_from_json(q, name=f"queries[{i}]")
                for i, q in enumerate(queries)
            ]
            results = await service.query_batch(
                batch, client=client, **_query_params(payload)
            )
            return {"results": [result_to_wire(r) for r in results]}
        if op == "insert":
            series = _series_from_json(payload.get("series"))
            return await service.insert(series, client=client)
        if op == "verify":
            return {"problems": await service.verify(client=client)}
        raise ServeError("BAD_REQUEST", f"unknown op {op!r}")


class ServerThread:
    """A running server on a background event loop, for embedding.

    The tests and ``benchmarks/bench_serve.py`` use this to stand up a
    real TCP server inside one process::

        with ServerThread(db, ServiceConfig()) as handle:
            client = ServeClient("127.0.0.1", handle.port)

    Entering the context starts the loop thread and blocks until the
    ports are bound; exiting drains and joins.
    """

    def __init__(
        self,
        db,
        config: ServiceConfig | None = None,
        host: str = "127.0.0.1",
        http_port: int | None = 0,
    ):
        self.service = QueryService(db, config)
        self.server = STS3Server(self.service, host=host, port=0,
                                 http_port=http_port)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def http_port(self) -> int | None:
        return self.server.http_port

    def start(self) -> "ServerThread":
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name="sts3-serve", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=10):
            raise RuntimeError("server thread failed to start")
        return self

    def _run(self) -> None:
        assert self._loop is not None
        asyncio.set_event_loop(self._loop)
        self._loop.run_until_complete(self.server.start())
        self._started.set()
        self._loop.run_forever()
        # run_until_complete below (in stop) happens via call_soon_threadsafe

    def submit(self, coro) -> "asyncio.Future":
        """Schedule a coroutine on the server loop from any thread."""
        assert self._loop is not None
        return asyncio.run_coroutine_threadsafe(coro, self._loop)

    def stop(self, drain: bool = True) -> None:
        if self._loop is None:
            return
        self.submit(self.server.stop(drain=drain)).result(timeout=30)
        self._loop.call_soon_threadsafe(self._loop.stop)
        assert self._thread is not None
        self._thread.join(timeout=10)
        self._loop.close()
        self._loop = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


async def serve(
    db,
    config: ServiceConfig | None = None,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    http_port: int | None = DEFAULT_PORT + 1,
    ready: Callable[[STS3Server], None] | None = None,
) -> None:
    """Run a server until SIGINT/SIGTERM, then drain and exit.

    The ``sts3 serve`` entry point.  ``ready`` (if given) is called
    with the started server once ports are bound — the CLI uses it to
    print where the server is listening.
    """
    import signal

    service = QueryService(db, config)
    server = STS3Server(service, host=host, port=port, http_port=http_port)
    await server.start()
    if ready is not None:
        ready(server)
    stopping = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stopping.set)
        except (NotImplementedError, RuntimeError):
            pass  # platforms without signal handler support
    await stopping.wait()
    await server.stop(drain=True)
