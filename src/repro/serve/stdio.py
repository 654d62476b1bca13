"""Newline-delimited-JSON serving over stdin/stdout.

The test (and scripting) transport: one request JSON object per input line,
one response JSON object per output line.  Responses are written in
*completion* order — each line is dispatched as its own task the moment it
is read, so a batch of identical lines piped in together genuinely dedups
onto one in-flight solve — and carry the request's ``id`` so clients can
match them back.

EOF on stdin, SIGTERM or SIGINT all mean the same thing: stop reading,
answer everything already admitted, drain the pool, exit 0.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
from typing import Optional, Set, TextIO

from repro.serve.protocol import encode_response, error_response, request_id_of
from repro.serve.server import PlanServer


async def serve_stdio(
    server: PlanServer,
    input_stream: TextIO,
    output_stream: TextIO,
    *,
    install_signals: bool = False,
) -> int:
    """Serve requests line by line until EOF or a termination signal."""
    await server.start()
    loop = asyncio.get_running_loop()
    stop_event = asyncio.Event()
    installed = []
    if install_signals:
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop_event.set)
                installed.append(signum)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass

    write_lock = asyncio.Lock()
    pending: Set["asyncio.Task[None]"] = set()

    async def respond(line: str) -> None:
        try:
            payload = json.loads(line)
        except (ValueError, RecursionError) as error:  # too deep to decode
            server.metrics.count_error("bad_request")
            response = error_response("bad_request", f"invalid JSON: {error}")
        else:
            response = await server.handle(payload)
            if response.get("id") is None:
                response["id"] = request_id_of(payload)
        async with write_lock:
            output_stream.write(encode_response(response) + "\n")
            output_stream.flush()

    # Reading a pipe blocks; a daemon pump thread keeps the event loop free
    # (and, unlike an executor thread, never blocks interpreter exit when
    # stdin stays open after a SIGTERM).
    lines: "asyncio.Queue[Optional[str]]" = asyncio.Queue()

    def _enqueue(item: Optional[str]) -> None:
        lines.put_nowait(item)

    def pump() -> None:
        try:
            for line in input_stream:
                loop.call_soon_threadsafe(_enqueue, line)
            loop.call_soon_threadsafe(_enqueue, None)
        except (ValueError, OSError, RuntimeError):  # closed stream or loop
            pass

    threading.Thread(target=pump, name="repro-serve-stdin", daemon=True).start()

    while True:
        getter = loop.create_task(lines.get())
        stopper = loop.create_task(stop_event.wait())
        done, not_done = await asyncio.wait(
            {getter, stopper}, return_when=asyncio.FIRST_COMPLETED
        )
        for task in not_done:
            task.cancel()
        if not_done:
            await asyncio.gather(*not_done, return_exceptions=True)
        if getter not in done:  # signalled: stop reading, keep what's admitted
            break
        line = getter.result()
        if line is None:  # EOF
            break
        if line.strip():
            task = loop.create_task(respond(line))
            pending.add(task)
            task.add_done_callback(pending.discard)

    if pending:
        await asyncio.gather(*pending, return_exceptions=True)
    for signum in installed:
        loop.remove_signal_handler(signum)
    await server.drain()
    return 0
