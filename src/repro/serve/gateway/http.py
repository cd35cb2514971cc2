"""Async HTTP front end for the sharded gateway (stdlib only).

:class:`GatewayHTTPServer` runs an :mod:`asyncio` HTTP/1.1 server on
the event loop of a started
:class:`~repro.serve.gateway.cluster.ShardedGateway`, the loop that
also owns the shard sockets:

* ``POST /query`` — JSON ``{"method", "db_id", "question",
  "deadline_s"?}`` in, the canonical
  :func:`~repro.serve.gateway.wire.response_to_dict` envelope out
  (typed ``ok`` / ``timeout`` / ``rejected`` / ``error`` statuses, never
  a hang).  The handler awaits the owner shard's reply on the loop; a
  request with a deadline that its shard misses is answered ``timeout``
  by the gateway.  Malformed input gets HTTP 400 and never reaches a
  shard.
* ``GET /healthz`` — liveness JSON; HTTP 200 when every shard answers
  its ping in time, 503 when degraded.
* ``GET /metrics`` — the merged shard + parent metric state in
  Prometheus text exposition format.

Every handler is a coroutine on the gateway's loop and every wait it
makes is one of the gateway's bounded waits; connections are
keep-alive until the client closes or the server does.
:class:`GatewayHTTPClient` is the matching :mod:`http.client` helper
used by the benchmark and tests.

Inputs/outputs: HTTP requests in; deterministic JSON bodies /
Prometheus text out (timing fields are excluded from ``/query`` bodies
so identical traces produce byte-identical responses).

Thread/process safety: the server keeps no thread or loop of its own;
``start``/``close`` run on the gateway's loop and are safe from any
other thread.  The client serializes its one connection with a lock,
so an instance may be shared across threads.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import sys
import threading

from repro.errors import GatewayError
from repro.obs.prometheus import render_prometheus
from repro.serve.engine import ServeRequest
from repro.serve.gateway.cluster import CLOSE_TIMEOUT_S, ShardedGateway
from repro.serve.gateway.wire import response_to_dict

_MAX_BODY_BYTES = 1 << 20

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            500: "Internal Server Error", 503: "Service Unavailable"}


def _http_response(
    status: int, body: bytes, content_type: str, keep_alive: bool
) -> bytes:
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    )
    return head.encode("ascii") + body


def _json_bytes(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def _parse_query(body: bytes) -> tuple[str, str, str, float | None]:
    """``(method, db_id, question, deadline_s)`` of a ``/query`` body;
    raises ``ValueError`` (JSON and UTF-8 errors included) naming the
    first malformed field."""
    request = json.loads(body.decode("utf-8") or "{}")
    if not isinstance(request, dict):
        raise ValueError("body must be a JSON object")
    for name in ("method", "db_id", "question"):
        if not isinstance(request.get(name), str):
            raise ValueError(f"{name!r} must be a string")
    deadline_s = request.get("deadline_s")
    # abs() <= max is false for NaN, the infinities and ints too large for
    # the float the shard's deadline arithmetic makes of them.
    if deadline_s is not None and (
        isinstance(deadline_s, bool)
        or not isinstance(deadline_s, (int, float))
        or not abs(deadline_s) <= sys.float_info.max
    ):
        raise ValueError("'deadline_s' must be a finite number or null")
    return request["method"], request["db_id"], request["question"], deadline_s


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        return await reader.readline()
    except ValueError:  # past the reader's 64 KiB line limit
        raise ValueError("request line or header line too long") from None


async def _read_head(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str], int] | None:
    """``(method, target, headers, body length)`` of the next request, or
    ``None`` once the client is done; raises ``ValueError`` naming what is
    malformed."""
    request_line = await _read_line(reader)
    if not request_line or request_line.strip() == b"":
        return None
    parts = request_line.decode("latin-1").split()
    if len(parts) < 3:
        raise ValueError("malformed request line")
    headers: dict[str, str] = {}
    while True:
        line = await _read_line(reader)
        if not line or line in (b"\r\n", b"\n"):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length", "0") or "0"
    length = int(raw_length) if raw_length.isdecimal() else -1
    if not 0 <= length <= _MAX_BODY_BYTES:
        raise ValueError("body too large" if length > 0 else "bad Content-Length")
    return parts[0].upper(), parts[1], headers, length


class GatewayHTTPServer:
    """asyncio HTTP server on a started gateway's own event loop."""

    def __init__(
        self, gateway: ShardedGateway, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.gateway = gateway
        self.host = host
        self.port = port  # 0 = ephemeral; the bound port replaces it on start
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.Task] = set()

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "GatewayHTTPServer":
        if self._server is not None:
            return self
        try:
            self._server = self.gateway._run(
                asyncio.start_server(self._handle_connection, self.host, self.port)
            )
        except OSError as exc:
            raise GatewayError(f"HTTP server failed to start: {exc}") from exc
        self.port = self._server.sockets[0].getsockname()[1]
        self.gateway._servers.append(self)
        return self

    def close(self) -> None:
        """Stop listening, end every open connection, and wait for them."""
        if self._server is None:
            return
        server, self._server = self._server, None
        self.gateway._servers.remove(self)
        self.gateway._on_loop(self._shutdown(server), CLOSE_TIMEOUT_S)

    async def _shutdown(self, server: asyncio.base_events.Server) -> None:
        server.close()
        tasks = list(self._connections)
        self._connections.clear()  # marks them as ended by close()
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.wait(tasks)
        await server.wait_closed()

    def __enter__(self) -> "GatewayHTTPServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- request handling ------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while True:
                try:
                    head = await _read_head(reader)
                except ValueError as exc:
                    # The rest of the request cannot be found after a bad
                    # head, so these replies close the connection.
                    writer.write(_http_response(
                        400, _json_bytes({"error": str(exc)}),
                        "application/json", keep_alive=False,
                    ))
                    await writer.drain()
                    break
                if head is None:
                    break
                method, target, headers, length = head
                body = await reader.readexactly(length) if length else b""
                keep_alive = headers.get("connection", "keep-alive").lower() != "close"
                status, payload, content_type = await self._route(method, target, body)
                writer.write(_http_response(status, payload, content_type, keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError):
            pass
        except asyncio.CancelledError:
            # close() cancels the connections it ends.  Ending quietly
            # keeps the task from finishing cancelled, which asyncio
            # 3.11's done-callback for server connections reports as an
            # error; any other cancellation propagates.
            if task in self._connections:
                raise
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, OSError):
                pass

    async def _route(
        self, method: str, target: str, body: bytes
    ) -> tuple[int, bytes, str]:
        path = target.split("?", 1)[0]
        if method == "POST" and path == "/query":
            try:
                name, db_id, question, deadline_s = _parse_query(body)
            except ValueError as exc:
                return (
                    400,
                    _json_bytes({"error": f"bad /query body: {exc}"}),
                    "application/json",
                )
            try:
                (response,) = await self.gateway._serve(
                    [ServeRequest(name, db_id, question, deadline_s)]
                )
            except GatewayError as exc:
                return 500, _json_bytes({"error": str(exc)}), "application/json"
            return 200, _json_bytes(response_to_dict(response)), "application/json"
        if method == "GET" and path == "/healthz":
            try:
                health = await self.gateway._healthz()
            except GatewayError as exc:
                return 503, _json_bytes({"error": str(exc)}), "application/json"
            status = 200 if health["status"] == "ok" else 503
            return status, _json_bytes(health), "application/json"
        if method == "GET" and path == "/metrics":
            try:
                export = await self.gateway._metrics_export()
            except GatewayError as exc:
                return 503, _json_bytes({"error": str(exc)}), "application/json"
            return 200, render_prometheus(export).encode("utf-8"), "text/plain; version=0.0.4"
        return (
            404,
            _json_bytes({"error": f"no route for {method} {path}"}),
            "application/json",
        )


class GatewayHTTPClient:
    """Keep-alive :mod:`http.client` helper for the gateway endpoints."""

    def __init__(self, host: str, port: int, timeout_s: float = 30.0) -> None:
        self.host = host
        self.port = port
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout_s)
        self._lock = threading.Lock()

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "GatewayHTTPClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _exchange(
        self, method: str, path: str, body: bytes | None, headers: dict
    ) -> tuple[int, bytes]:
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (http.client.HTTPException, OSError):
            # A half-done exchange leaves the connection unusable: a late
            # reply must not answer the next request.
            self._conn.close()
            raise

    def _request(
        self, method: str, path: str, body: bytes | None = None
    ) -> tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body else {}
        with self._lock:
            reused = self._conn.sock is not None
            try:
                return self._exchange(method, path, body, headers)
            except (ConnectionResetError, BrokenPipeError):
                # ``RemoteDisconnected`` is a ``ConnectionResetError``.  Only
                # a reused connection is retried, once: the server may have
                # closed it while idle.  A timeout is never retried.
                if not reused:
                    raise
                return self._exchange(method, path, body, headers)

    def query(
        self, method: str, db_id: str, question: str,
        deadline_s: float | None = None,
    ) -> dict:
        payload: dict = {"method": method, "db_id": db_id, "question": question}
        if deadline_s is not None:
            payload["deadline_s"] = deadline_s
        status, body = self._request("POST", "/query", _json_bytes(payload))
        if status != 200:
            raise GatewayError(f"/query returned HTTP {status}: {body[:200]!r}")
        return json.loads(body)

    def healthz(self) -> dict:
        _, body = self._request("GET", "/healthz")
        return json.loads(body)

    def metrics_text(self) -> str:
        status, body = self._request("GET", "/metrics")
        if status != 200:
            raise GatewayError(f"/metrics returned HTTP {status}")
        return body.decode("utf-8")
