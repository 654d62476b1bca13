"""A minimal stdlib HTTP/1.1 front-end for :class:`PlanServer`.

No third-party web framework (the repo's dependency surface stays numpy +
solver): asyncio streams plus hand-rolled request parsing, enough for
keep-alive JSON POSTs from the load benchmark, the tests and ``curl``.

Endpoints
---------
``POST /plan``
    Body: one request JSON object (see :mod:`repro.serve.protocol`).
    Status mirrors the typed response kind (200 ok, 400 spec errors,
    503 overloaded/draining, 504 waiter timeout, 500 internal).
``GET /metrics``
    The :meth:`PlanServer.metrics_snapshot` document.
``GET /healthz``
    200 ``{"status": "ok"}`` normally, 503 ``{"status": "draining"}`` once a
    drain began — load balancers take the instance out of rotation while
    in-flight work completes.
"""

from __future__ import annotations

import asyncio
import json
import signal
from typing import Any, Dict, Optional, Set, TextIO, Tuple

from repro.serve.protocol import encode_response, error_response, http_status
from repro.serve.server import PlanServer

#: Request-body bound: a spec is a few KB, so anything near this is abuse.
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Header-section bound (also the stream's readuntil limit).
MAX_HEAD_BYTES = 64 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class _BadRequest(Exception):
    """A connection-level protocol violation (answered, then disconnected)."""

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(message)
        self.kind = kind
        self.message = message


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """One request off the stream: ``(method, path, headers, body)``.

    Returns ``None`` on a clean EOF between requests (keep-alive close);
    raises :class:`_BadRequest` for anything malformed.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise _BadRequest("bad_request", "truncated request head") from None
    except asyncio.LimitOverrunError:
        raise _BadRequest("payload_too_large", "request head too large") from None
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _BadRequest("bad_request", f"malformed request line {lines[0]!r}")
    method, path = parts[0].upper(), parts[1]
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, separator, value = line.partition(":")
        if not separator:
            raise _BadRequest("bad_request", f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise _BadRequest("bad_request", "content-length is not an integer") from None
    if length < 0:
        raise _BadRequest("bad_request", "negative content-length")
    if length > MAX_BODY_BYTES:
        raise _BadRequest(
            "payload_too_large", f"body of {length} bytes exceeds {MAX_BODY_BYTES}"
        )
    body = await reader.readexactly(length) if length else b""
    return method, path, headers, body


async def _dispatch(
    server: PlanServer, method: str, path: str, body: bytes
) -> Tuple[int, Dict[str, Any]]:
    if path == "/plan":
        if method != "POST":
            return 405, error_response("method_not_allowed", "use POST /plan")
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError, RecursionError) as error:
            server.metrics.count_error("bad_request")
            return 400, error_response("bad_request", f"body is not valid JSON: {error}")
        response = await server.handle(payload)
        return http_status(response), response
    if method != "GET":
        return 405, error_response("method_not_allowed", f"use GET {path}")
    if path == "/metrics":
        return 200, server.metrics_snapshot()
    if path == "/healthz":
        health = server.health()
        return (503 if server.draining else 200), health
    return 404, error_response("not_found", f"unknown path {path!r}")


async def _write_response(
    writer: asyncio.StreamWriter, status: int, payload: Dict[str, Any]
) -> None:
    body = (encode_response(payload) + "\n").encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "\r\n"
    )
    writer.write(head.encode("latin-1") + body)
    await writer.drain()


async def handle_connection(
    server: PlanServer, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    """Serve one keep-alive connection until EOF, close, or a protocol error."""
    try:
        while True:
            try:
                request = await _read_request(reader)
            except _BadRequest as error:
                response = error_response(error.kind, error.message)
                await _write_response(writer, http_status(response), response)
                break
            if request is None:
                break
            method, path, headers, body = request
            status, payload = await _dispatch(server, method, path, body)
            await _write_response(writer, status, payload)
            if headers.get("connection", "").lower() == "close":
                break
    except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
        pass  # the client went away mid-request; nothing to answer
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


class HttpFrontend:
    """Owns the listening socket and connection tasks of one server."""

    def __init__(
        self, server: PlanServer, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.server = server
        self.host = host
        self.port = port
        self._listener: Optional[asyncio.AbstractServer] = None
        self._connections: Set["asyncio.Task[None]"] = set()

    async def start(self) -> None:
        """Bind and start accepting; ``self.port`` is resolved (port 0 OK)."""
        await self.server.start()
        self._listener = await asyncio.start_server(
            self._on_connection, self.host, self.port, limit=MAX_HEAD_BYTES
        )
        self.port = self._listener.sockets[0].getsockname()[1]

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            await handle_connection(self.server, reader, writer)
        finally:
            if task is not None:
                self._connections.discard(task)

    async def stop(self, grace_s: Optional[float] = None) -> None:
        """Stop accepting, drain the planner, then part with idle connections."""
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
            self._listener = None
        await self.server.drain(grace_s)
        # In-flight handlers finished with the drain; whatever remains is an
        # idle keep-alive connection parked in readuntil().  Give stragglers
        # one beat to flush, then disconnect them.
        if self._connections:
            await asyncio.wait(set(self._connections), timeout=1.0)
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)


async def serve_http(
    server: PlanServer,
    host: str = "127.0.0.1",
    port: int = 8734,
    *,
    stream: Optional[TextIO] = None,
    install_signals: bool = True,
) -> int:
    """Run the HTTP front-end until SIGTERM/SIGINT, then drain gracefully."""
    frontend = HttpFrontend(server, host, port)
    await frontend.start()
    if stream is not None:
        print(
            f"serving on http://{host}:{frontend.port} "
            f"(executor={server.config.executor}, workers={server.worker_count()}, "
            f"queue_limit={server.config.queue_limit})",
            file=stream,
            flush=True,
        )
    stop_event = asyncio.Event()
    loop = asyncio.get_running_loop()
    installed = []
    if install_signals:
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop_event.set)
                installed.append(signum)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
    try:
        await stop_event.wait()
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)
        await frontend.stop()
        if stream is not None:
            print("drained; bye", file=stream, flush=True)
    return 0
