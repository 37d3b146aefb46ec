"""HTTP front of :mod:`repro.serve`: stdlib ThreadingHTTPServer glue.

No framework, no dependencies — :class:`ReproServer` is a
``ThreadingHTTPServer`` whose handler parses the request, hands it to
:func:`repro.serve.routes.handle`, and writes the returned
:class:`~repro.serve.routes.Response` back out (JSON bodies with
``Content-Length``; NDJSON event streams written incrementally and
terminated by connection close).

Concurrent jobs simulating the same warm graph do not serialize in the
kernel: the numpy kernel binds executable buffers per thread (see
:mod:`repro.mig.kernel`), so each handler thread sweeps lock-free and
can additionally fan pattern chunks over the kernel's worker pool.

::

    from repro.flow import Session
    from repro.serve import create_server

    server = create_server("127.0.0.1", 8321,
                           session=Session(cache_dir=".repro_cache"))
    server.serve_forever()          # Ctrl-C to stop
    server.close()
"""

from __future__ import annotations

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from ..resilience import RetryPolicy
from .queue import JobQueue
from . import routes


class _Handler(BaseHTTPRequestHandler):
    """Thin translation layer between HTTP and the route table."""

    server: "ReproServer"
    protocol_version = "HTTP/1.0"  # streams end by connection close

    # -- plumbing ------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:
            sys.stderr.write(
                "repro.serve %s - %s\n" % (self.address_string(),
                                           format % args)
            )

    def _read_body(self) -> Optional[object]:
        length = int(self.headers.get("Content-Length") or 0)
        if length == 0:
            return None
        raw = self.rfile.read(length)
        return json.loads(raw.decode("utf-8"))

    def _respond(self, response: routes.Response) -> None:
        if response.stream is not None:
            self.send_response(response.status)
            self.send_header("Content-Type", response.content_type)
            for key, value in response.headers.items():
                self.send_header(key, value)
            self.end_headers()
            try:
                for chunk in response.stream:
                    self.wfile.write(chunk)
                    self.wfile.flush()
            except (BrokenPipeError, ConnectionResetError):
                pass  # client went away mid-stream; nothing to clean up
            return
        if response.text is not None:
            body = response.text.encode("utf-8")
        else:
            body = json.dumps(
                response.payload, indent=2, default=str
            ).encode("utf-8") + b"\n"
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(body)))
        for key, value in response.headers.items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    # -- dispatch ------------------------------------------------------

    def _dispatch(self, method: str) -> None:
        url = urlsplit(self.path)
        try:
            payload = self._read_body()
        except (ValueError, UnicodeDecodeError):
            self._respond(routes._error(400, "request body is not JSON"))
            return
        try:
            response = routes.handle(
                self.server, method, url.path, parse_qs(url.query), payload
            )
        except Exception as error:  # noqa: BLE001 — server boundary
            response = routes._error(
                500, f"internal error: {type(error).__name__}: {error}"
            )
        self._respond(response)

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        self._dispatch("POST")


class ReproServer(ThreadingHTTPServer):
    """The compilation service: HTTP threads over one shared Session.

    Handler threads only read the store and enqueue jobs; all
    compilation happens on the queue's executors, so a slow compile
    never blocks polling clients.
    """

    daemon_threads = True

    def __init__(
        self,
        address,
        *,
        session=None,
        workers: int = 2,
        isolate: bool = True,
        retry: Optional[RetryPolicy] = None,
        allow_frontend: bool = False,
        allow_shutdown: bool = False,
        verbose: bool = False,
    ) -> None:
        from ..flow.session import Session  # deferred: flow imports runner

        self.session = session if session is not None else Session()
        self.queue = JobQueue(
            self.session, workers=workers, isolate=isolate, retry=retry
        )
        self.allow_frontend = bool(allow_frontend)
        self.allow_shutdown = bool(allow_shutdown)
        self.verbose = bool(verbose)
        self.started_at = time.time()
        super().__init__(address, _Handler)
        self.queue.start()

    @property
    def store(self):
        return self.queue.store

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def request_shutdown(self) -> None:
        """Stop accepting requests, from a handler thread.

        ``shutdown()`` deadlocks when called from the serving thread,
        so the stop runs on a helper thread after the response flushes.
        """
        threading.Thread(target=self.shutdown, daemon=True).start()

    def close(self) -> None:
        """Full teardown: stop executors, release waiters, free the
        socket.  Idempotent."""
        self.queue.stop()
        self.server_close()


def create_server(
    host: str = "127.0.0.1",
    port: int = 8321,
    *,
    session=None,
    workers: int = 2,
    isolate: bool = True,
    retry: Optional[RetryPolicy] = None,
    allow_frontend: bool = False,
    allow_shutdown: bool = False,
    verbose: bool = False,
) -> ReproServer:
    """Build a ready :class:`ReproServer` (executors already running).

    ``port=0`` binds an ephemeral port — read it back from
    ``server.server_address`` (tests and the example do).
    """
    return ReproServer(
        (host, port),
        session=session,
        workers=workers,
        isolate=isolate,
        retry=retry,
        allow_frontend=allow_frontend,
        allow_shutdown=allow_shutdown,
        verbose=verbose,
    )
