"""Async HTTP front end for the sharded gateway (stdlib only).

:class:`GatewayHTTPServer` runs an :mod:`asyncio` HTTP/1.1 server on
the event loop of a started
:class:`~repro.serve.gateway.cluster.ShardedGateway`, the loop that
also owns the shard sockets:

* ``POST /query`` — JSON ``{"method", "db_id", "question",
  "deadline_s"?}`` in, the canonical
  :func:`~repro.serve.gateway.wire.response_to_dict` envelope out
  (typed ``ok`` / ``timeout`` / ``rejected`` / ``error`` statuses, never
  a hang).  The owner shard builds the finished body
  (:func:`~repro.serve.gateway.wire.query_body`) and the handler
  forwards its bytes without decoding them; a request with a deadline
  that its shard misses is answered ``timeout`` by the gateway.
  Malformed input gets HTTP 400 and never reaches a shard.
* ``GET /healthz`` — liveness JSON; HTTP 200 when every shard answers
  its ping in time, 503 when degraded.
* ``GET /metrics`` — the merged shard + parent metric state in
  Prometheus text exposition format.

Every handler is a coroutine on the gateway's loop and every wait it
makes is one of the gateway's bounded waits.  Each wait on a client is
bounded too: :data:`IDLE_TIMEOUT_S` for the next request line (then the
connection closes without a reply), :data:`REQUEST_TIMEOUT_S` for the
rest of the head and the body (then 408 ``Request Timeout`` and close),
and :data:`SEND_TIMEOUT_S` for a reply the client does not read (then
the connection is aborted).  A request body is framed
by ``Content-Length`` only: a ``Transfer-Encoding`` header gets 501 and
conflicting ``Content-Length`` values get 400, both before any body is
read and with the connection closed.  An HTTP/1.1 connection persists
unless the request says ``Connection: close``, an HTTP/1.0 one only if
it says ``Connection: keep-alive``; otherwise the reply says
``Connection: close`` and the server closes it.
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
import math
import sys
import threading

from repro.errors import GatewayError
from repro.obs.prometheus import render_prometheus
from repro.serve.engine import ServeRequest
from repro.serve.gateway.cluster import CLOSE_TIMEOUT_S, ShardedGateway

_MAX_BODY_BYTES = 1 << 20

#: How long a connection may wait for its next request line; on expiry
#: the server closes it without a reply.
IDLE_TIMEOUT_S = 60.0
#: How long the rest of a request head and its body may take once the
#: request line has arrived; on expiry the reply is 408 and the server
#: closes the connection.
REQUEST_TIMEOUT_S = 10.0
#: How long a reply, or a closing connection's unsent bytes, may wait
#: for a client that does not read them; on expiry the server aborts
#: the connection.
SEND_TIMEOUT_S = 10.0
_LATE_REQUEST = "request head or body not received in time"

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            408: "Request Timeout", 500: "Internal Server Error",
            501: "Not Implemented", 503: "Service Unavailable"}


class _BadHead(Exception):
    """A request head the server cannot serve, with the HTTP status to answer.

    The rest of the request cannot be found after it, so the reply
    closes the connection.
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


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
        raise _BadHead(400, "request line or header line too long") from None


def _body_length(headers: dict[str, str]) -> int:
    """The body length that frames the request; raises :class:`_BadHead`
    when the head does not frame it unambiguously."""
    if "transfer-encoding" in headers:
        # This server implements no transfer coding (chunked included).
        raise _BadHead(501, "Transfer-Encoding is not supported")
    values = {value.strip() for value in headers.get("content-length", "0").split(",")}
    if len(values) > 1:
        raise _BadHead(400, "conflicting Content-Length values")
    raw_length = values.pop() or "0"
    length = int(raw_length) if raw_length.isdecimal() else -1
    if not 0 <= length <= _MAX_BODY_BYTES:
        raise _BadHead(400, "body too large" if length > 0 else "bad Content-Length")
    return length


def _persists(version: str, headers: dict[str, str]) -> bool:
    """Whether the connection stays open after this exchange (RFC 9112 §9.3):
    HTTP/1.0 only on ``keep-alive``, later versions unless ``close``."""
    tokens = {token.strip().lower() for token in headers.get("connection", "").split(",")}
    if version == "HTTP/1.0":
        return "keep-alive" in tokens
    return "close" not in tokens


class _ClientWaits:
    """Bounds a connection's waits on its client with one timer.

    The connection waits on its client in one phase at a time: for the
    next request line (:data:`IDLE_TIMEOUT_S`), for the rest of that
    request (:data:`REQUEST_TIMEOUT_S`), or for the client to take a
    reply (:data:`SEND_TIMEOUT_S`).  Starting a phase only records its
    deadline.  The timer moves only when a deadline falls before it, and
    a timer that fires early moves on to the deadline then in force, so
    a busy connection moves its timer about twice per
    :data:`REQUEST_TIMEOUT_S` instead of at every wait.  When a request's rest is late the reader
    raises a 408 :class:`_BadHead`; any other expired wait aborts the
    connection, which the handler then reads as the client's EOF.
    """

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._transport = writer.transport
        self._loop = asyncio.get_running_loop()
        self._phase: str | None = None
        self._deadline = math.inf
        self._timer: asyncio.TimerHandle | None = None
        self._timer_at = math.inf
        self.expired = False

    def start(self, phase: str | None, seconds: float = math.inf) -> None:
        """Bound the wait ``phase`` that begins now; ``None`` bounds none."""
        self._phase = phase
        self._deadline = self._loop.time() + seconds
        if self._deadline < self._timer_at:
            self._arm(self._deadline)

    def cancel(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer, self._timer_at = None, math.inf

    def _arm(self, when: float) -> None:
        self.cancel()
        self._timer, self._timer_at = self._loop.call_at(when, self._fire), when

    def _fire(self) -> None:
        self._timer, self._timer_at = None, math.inf
        if self._loop.time() < self._deadline:
            if self._deadline < math.inf:
                self._arm(self._deadline)
            return
        self.expired = True
        if self._phase == "request":
            self._reader.set_exception(_BadHead(408, _LATE_REQUEST))
        else:
            self._transport.abort()


async def _read_request(
    reader: asyncio.StreamReader, waits: _ClientWaits
) -> tuple[str, str, bytes, bool] | None:
    """``(method, target, body, keep-alive)`` of the next request, or
    ``None`` once the client is done or was idle too long; raises
    :class:`_BadHead` naming what cannot be served."""
    waits.start("idle", IDLE_TIMEOUT_S)
    request_line = await _read_line(reader)
    if not request_line or request_line.strip() == b"":
        return None
    waits.start("request", REQUEST_TIMEOUT_S)
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3:
        raise _BadHead(400, "malformed request line")
    method, target, version = parts
    headers: dict[str, str] = {}
    while True:
        line = await _read_line(reader)
        if not line or line in (b"\r\n", b"\n"):
            break
        name, _, value = line.decode("latin-1").partition(":")
        name, value = name.strip().lower(), value.strip()
        # A repeated field is one comma-separated list (RFC 9110 §5.3).
        headers[name] = f"{headers[name]}, {value}" if name in headers else value
    length = _body_length(headers)
    body = await reader.readexactly(length) if length else b""
    if waits.expired:  # it all arrived just as the bound ran out
        raise _BadHead(408, _LATE_REQUEST)
    waits.start(None)
    return method.upper(), target, body, _persists(version, headers)


async def _send(
    writer: asyncio.StreamWriter, waits: _ClientWaits, data: bytes
) -> None:
    """Write ``data``; wait for the client to take what the socket could
    not, at most :data:`SEND_TIMEOUT_S`."""
    writer.write(data)
    if writer.transport.get_write_buffer_size():  # else drain() would not wait
        waits.start("send", SEND_TIMEOUT_S)
        await writer.drain()
        waits.start(None)


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
        waits = _ClientWaits(reader, writer)
        try:
            while True:
                try:
                    request = await _read_request(reader, waits)
                except _BadHead as exc:
                    await _send(writer, waits, _http_response(
                        exc.status, _json_bytes({"error": str(exc)}),
                        "application/json", keep_alive=False,
                    ))
                    break
                if request is None:
                    break
                method, target, body, keep_alive = request
                status, payload, content_type = await self._route(method, target, body)
                await _send(
                    writer, waits,
                    _http_response(status, payload, content_type, keep_alive),
                )
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
            waits.start("send", SEND_TIMEOUT_S)  # bytes the client never takes
            try:
                await writer.wait_closed()
            except (ConnectionResetError, OSError):
                pass
            waits.cancel()

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
                (payload,) = await self.gateway._serve(
                    [ServeRequest(name, db_id, question, deadline_s)], bodies=True
                )
            except GatewayError as exc:
                return 500, _json_bytes({"error": str(exc)}), "application/json"
            return 200, payload, "application/json"
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
