"""HTTP load generator: keep-alive gateway clients in a process of their own.

The clients run outside the benchmark process, which hosts the HTTP
server, so client and server threads do not take turns on one
interpreter lock.  The parent sends one round at a time, as one share
of ``(method, db_id, question)`` keys per client, and gets back each
request's latency in order; each client sends its share one request
after the other.  Response bodies stay here; after the timed phase the
parent asks for each one's digest and figures, so it never holds them.
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ThreadPoolExecutor


def body_outcome(body: dict | None) -> tuple:
    """``(ok, record digest, ex, em, billed tokens)`` of one ``/query`` body.

    The digest is the SHA-256 of the record's sorted-key JSON, which is
    how the program digests a record; a cache hit bills no tokens.
    """
    if body is None or body.get("status") != "ok" or body.get("record") is None:
        return (False, None, False, False, 0)
    record = body["record"]
    canonical = json.dumps(record, sort_keys=True, default=str).encode("utf-8")
    billed = 0 if body["cached"] else record["input_tokens"] + record["output_tokens"]
    return (True, hashlib.sha256(canonical).hexdigest(), record["ex"], record["em"], billed)


def _send_share(client, share: list[tuple[str, str, str]]) -> list[tuple[dict | None, float]]:
    from repro.errors import GatewayError

    out = []
    for method, db_id, question in share:
        sent = time.perf_counter()
        try:
            body = client.query(method, db_id, question)
        except (GatewayError, OSError, ValueError):
            body = None
        out.append((body, time.perf_counter() - sent))
    return out


def loadgen_main(conn, host: str, port: int, clients: int) -> None:
    """Serve ``("round", shares)``, ``("outcomes",)`` and ``("stop",)`` requests."""
    from repro.serve.gateway import GatewayHTTPClient

    sessions = [GatewayHTTPClient(host, port) for _ in range(clients)]
    bodies: list[dict | None] = []
    try:
        with ThreadPoolExecutor(clients, thread_name_prefix="loadgen") as pool:
            for session in sessions:
                session.healthz()  # opens the keep-alive connection
            conn.send("ready")
            while True:
                message = conn.recv()
                if message[0] == "round":
                    received = time.perf_counter()
                    futures = [
                        pool.submit(_send_share, session, share)
                        for session, share in zip(sessions, message[1])
                    ]
                    lag = time.perf_counter() - received
                    results = [item for future in futures for item in future.result()]
                    bodies.extend(body for body, _ in results)
                    conn.send((lag, [latency if body is not None else None
                                     for body, latency in results]))
                elif message[0] == "outcomes":
                    conn.send([body_outcome(body) for body in bodies])
                else:
                    return
    finally:
        for session in sessions:
            session.close()
        conn.close()
