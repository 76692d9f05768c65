"""Fixtures for the service-layer suites (shared cache server instances)."""

from __future__ import annotations

import contextlib
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.service.server import CacheServer


@pytest.fixture()
def cache_server(tmp_path):
    """A live cache server on a free loopback port, backed by a fresh store."""
    server = CacheServer(root=tmp_path / "server-store", port=0).start()
    try:
        yield server
    finally:
        server.stop()


@contextlib.contextmanager
def _stub_server(body: bytes, status: int = 200, truncate: bool = False):
    """A one-trick HTTP server answering every request with *body*.

    With *truncate*, each answer declares a Content-Length longer than
    *body* and the connection closes after *body*: a server that dies
    mid-response, as the client sees it.
    """
    declared = len(body) + (64 if truncate else 0)

    class _Stub(BaseHTTPRequestHandler):
        def _answer(self):
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(declared))
            self.end_headers()
            self.wfile.write(body)
            self.close_connection = True

        do_GET = do_POST = do_PUT = _answer

        def log_message(self, *args):
            pass

    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Stub)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = httpd.server_address[:2]
        yield f"http://{host}:{port}"
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)


@pytest.fixture()
def stub_server():
    """The :func:`_stub_server` factory: ``with stub_server(body) as url: ...``."""
    return _stub_server
