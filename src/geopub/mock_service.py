"""In-memory reference implementation of the deposition protocol.

The service is a plain state machine behind :meth:`MockService.handle_request`,
served over HTTP by :class:`MockServer`, whose front-end hands it each request
with its body still on the connection. The ``geopub-mock`` command serves
one built-in profile of :func:`geopub.config.default_profiles`, by default on
the port of that profile's ``base_url``, until SIGINT or SIGTERM.

Faults can be injected per endpoint to exercise client retry behaviour.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
import signal
import threading
import time
from dataclasses import dataclass, field, asdict
from enum import Enum
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import BinaryIO, Mapping
from urllib.parse import parse_qs, unquote, urlsplit

import click

from . import repo_protocol
from .config import default_profiles
from .errors import BindError
from .manifest import write_durably
from .repo_protocol import RemoteFile

logger = logging.getLogger(__name__)

MB = 1024 * 1024
GB = 1024 * MB
#: Bytes of an upload read and hashed at a time.
CHUNK_SIZE = MB
#: Every DOI the mock reserves is this prefix, a dot and the deposition id.
DOI_PREFIX = "10.5072/geopub"


class ConnectionDropped(ConnectionError):
    """Raised by a Drop fault; the HTTP front-end then closes the connection
    without a response."""


class FaultKind(Enum):
    DROP = "drop"
    HTTP500 = "http500"
    SLOW_START = "slow_start"


@dataclass(frozen=True)
class Fault:
    kind: FaultKind
    delay_ms: int = 0

    @classmethod
    def drop(cls) -> "Fault":
        return cls(FaultKind.DROP)

    @classmethod
    def http500(cls) -> "Fault":
        return cls(FaultKind.HTTP500)

    @classmethod
    def slow_start(cls, delay_ms: int) -> "Fault":
        return cls(FaultKind.SLOW_START, delay_ms=delay_ms)


@dataclass
class ServiceConfig:
    """Limits and capabilities of one mock backend."""

    per_file_limit: int = 250 * MB
    private_quota: int = 1 * GB
    can_search: bool = True
    #: None accepts any non-empty token; a string demands that exact token.
    required_token: str | None = None

    def __post_init__(self):
        for name in ("per_file_limit", "private_quota"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")

    @classmethod
    def figshare_like(cls, **overrides) -> "ServiceConfig":
        return cls(can_search=True, **overrides)

    @classmethod
    def zenodo_like(cls, **overrides) -> "ServiceConfig":
        return cls(can_search=False, **overrides)


@dataclass
class _DepositionRecord:
    id: int
    doi: str
    state: str = "draft"
    doi_active: bool = False
    title: str = ""
    description: str = ""
    tags: list[str] = field(default_factory=list)
    authors: list[dict] = field(default_factory=list)
    private_intent: bool = False
    files: list[RemoteFile] = field(default_factory=list)

    def stored_bytes(self) -> int:
        return sum(f.size for f in self.files)

    def status(self) -> dict:
        """The status document of publish and make_public."""
        return {"id": self.id, "doi": self.doi, "doi_active": self.doi_active, "state": self.state}

    def public_document(self) -> dict:
        """The deposition document of create, get and each search row."""
        return {
            **self.status(),
            "title": self.title,
            "description": self.description,
            "tags": list(self.tags),
            "authors": list(self.authors),
            "files": [asdict(f) for f in self.files],
        }


#: (method, path pattern, operation) for each entry of ``ENDPOINTS``; a
#: template's ``{id}`` becomes a group of digits.
_ROUTES = [
    (method, re.compile(re.escape(template).replace(r"\{id\}", r"(\d+)")), op)
    for op, (method, template) in repo_protocol.ENDPOINTS.items()
]


def _route(method: str, path: str) -> tuple[str | None, int | None]:
    """The operation a request names and the deposition id in its path."""
    for route_method, pattern, op in _ROUTES:
        match = pattern.fullmatch(path)
        if match is not None and route_method == method:
            return op, int(match[1]) if pattern.groups else None
    return None, None


class MockService:
    """One backend instance: depositions, quotas, faults, request counter.

    All state mutations are serialized through a single lock; the handler is
    safe to call from any number of threads.
    """

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        self.request_count = 0
        self._lock = threading.Lock()
        self._depositions: dict[int, _DepositionRecord] = {}
        self._next_id = 1
        self._faults: list[tuple[Fault, str]] = []

    # -- test and operator conveniences

    def deposition_count(self) -> int:
        with self._lock:
            return len(self._depositions)

    def deposition_record(self, deposition_id: int) -> dict:
        """Read-only copy of one deposition's server-side state."""
        with self._lock:
            record = self._depositions.get(deposition_id)
            if record is None:
                raise KeyError(deposition_id)
            return record.public_document()

    def inject_fault(self, fault: Fault, on: str = "*") -> None:
        """Make requests to the operation ``on`` (a key of
        :data:`repo_protocol.ENDPOINTS`, or "*" for all) exhibit ``fault``
        until faults are cleared."""
        if on != "*" and on not in repo_protocol.ENDPOINTS:
            raise ValueError(f"unknown operation {on!r}")
        with self._lock:
            self._faults.append((fault, on))

    def clear_faults(self) -> None:
        with self._lock:
            self._faults.clear()

    # -- persistence (optional snapshot for the standalone server)

    def save_snapshot(self, path: str | Path) -> None:
        """Write the state to ``path`` with :func:`manifest.write_durably`, so
        an interrupted write or a power loss leaves the previous snapshot
        whole."""
        with self._lock:
            state = {
                "next_id": self._next_id,
                "depositions": [
                    {**asdict(record)} for record in self._depositions.values()
                ],
            }
        write_durably(Path(path), json.dumps(state, indent=2))

    def load_snapshot(self, path: str | Path) -> None:
        state = json.loads(Path(path).read_text(encoding="utf-8"))
        with self._lock:
            self._next_id = state["next_id"]
            self._depositions = {}
            for raw in state["depositions"]:
                # A snapshot written before the collaborators endpoint went has the key.
                raw.pop("collaborators", None)
                files = [RemoteFile(**f) for f in raw.pop("files")]
                self._depositions[raw["id"]] = _DepositionRecord(**raw, files=files)

    # -- request handling

    def handle_request(
        self, method: str, path: str, headers: Mapping[str, str], body: _BodyReader
    ) -> tuple[int, dict]:
        """Serve one protocol request; returns (status, response document).

        ``body`` is the HTTP front-end's :class:`_BodyReader`. A request
        without valid credentials is answered 401, and then one that names no
        endpoint or an unknown deposition 404, before any of its body is
        read; so is an upload to a deposition that is no longer a draft, 400.
        An upload is hashed as it is read, in one buffer of at most
        :data:`CHUNK_SIZE` bytes, and never held; what is left unread is the
        caller's to discard.
        """
        parts = urlsplit(path)
        op, deposition_id = _route(method, parts.path)

        with self._lock:
            self.request_count += 1
            fault = next((f for f, on in self._faults if on in ("*", op)), None)
            # Records are never removed, so this one stays valid unlocked.
            record = self._depositions.get(deposition_id)

        if fault is not None:
            if fault.kind is FaultKind.SLOW_START:
                time.sleep(fault.delay_ms / 1000.0)
            elif fault.kind is FaultKind.DROP:
                raise ConnectionDropped(f"{method} {path}: dropped by injected fault")
            elif fault.kind is FaultKind.HTTP500:
                return 500, {"error": "internal"}

        if not self._authorized(headers):
            return 401, {"error": "auth"}
        if op is None or (record is None and deposition_id is not None):
            return 404, {"error": "not_found"}

        if op == "upload":
            # A deposition never goes back to draft, so this unlocked refusal
            # is final; _upload checks again for a publish that races it.
            if refusal := _not_a_draft(record):
                return refusal
            # Hashing a large upload takes long; other requests must not wait for it.
            digest, size = hashlib.sha256(), 0
            # One buffer, sized to the upload, is filled again and again: a
            # new 1 MB object per read would be a fresh mapping whose pages
            # all fault in.
            buffer = memoryview(_chunk_buffer(len(body)))
            while count := body.readinto(buffer):
                digest.update(buffer[:count])
                size += count
            with self._lock:
                return self._upload(record, headers, digest.hexdigest(), size)
        document = _json_body(body.read())
        with self._lock:
            return getattr(self, f"_{op}")(record, document, parts.query)

    # -- endpoint implementations, one per operation, each called with the
    # addressed record (None for create and search), the JSON body (None
    # unless a JSON object) and the query string; upload instead gets the
    # headers and the body's sha256 hex digest and size. The caller holds the lock.

    def _create(self, _record, document, _query) -> tuple[int, dict]:
        if document is None:
            return 400, {"error": "validation", "message": "request body is not JSON"}
        title = document.get("title", "")
        if not isinstance(title, str) or not title.strip():
            return 400, {"error": "validation", "message": "title must be non-empty"}
        deposition_id = self._next_id
        self._next_id += 1
        record = _DepositionRecord(
            id=deposition_id,
            doi=f"{DOI_PREFIX}.{deposition_id}",
            title=title,
            description=str(document.get("description", "")),
            tags=[str(t) for t in document.get("tags", [])],
            authors=[
                {"name": a.get("name", ""), "id": a.get("id")}
                for a in document.get("authors", [])
            ],
            private_intent=bool(document.get("private", False)),
        )
        self._depositions[deposition_id] = record
        return 201, record.public_document()

    def _get(self, record: _DepositionRecord, _document, _query) -> tuple[int, dict]:
        return 200, record.public_document()

    def _upload(
        self, record: _DepositionRecord, headers: Mapping[str, str], sha256: str, size: int
    ) -> tuple[int, dict]:
        if refusal := _not_a_draft(record):
            return refusal
        name = unquote(_header(headers, "X-File-Name") or "", errors="surrogateescape")
        declared = _header(headers, "X-File-SHA256")
        if not name:
            return 400, {"error": "validation", "message": "X-File-Name header required"}
        if any(f.name == name for f in record.files):
            return 400, {"error": "validation", "message": f"file {name!r} already uploaded"}
        if declared is None or declared.lower() != sha256:
            return 422, {"error": "checksum"}
        if size > self.config.per_file_limit:
            return 413, {"error": "quota"}
        if record.private_intent and record.stored_bytes() + size > self.config.private_quota:
            return 413, {"error": "quota"}
        stored = RemoteFile(file_id=len(record.files) + 1, name=name, size=size, sha256=sha256)
        record.files.append(stored)
        return 201, asdict(stored)

    def _publish(self, record: _DepositionRecord, document, _query) -> tuple[int, dict]:
        if refusal := _not_a_draft(record):
            return refusal
        if not record.files:
            return 400, {"error": "validation", "message": "cannot publish without files"}
        private = bool((document or {}).get("private", False))
        record.state = "private" if private else "public"
        record.doi_active = not private
        return 200, record.status()

    def _make_public(self, record: _DepositionRecord, _document, _query) -> tuple[int, dict]:
        if record.state != "private":
            return 400, {"error": "validation", "message": "deposition is not private"}
        record.state = "public"
        record.doi_active = True
        return 200, record.status()

    def _search(self, _record, _document, query: str) -> tuple[int, dict]:
        if not self.config.can_search:
            return 501, {"error": "search_not_supported"}
        tags = parse_qs(query).get("tag")
        if not tags:
            return 400, {"error": "validation", "message": "tag query parameter required"}
        results = [
            r.public_document()
            for r in self._depositions.values()
            # Drafts are not published yet, so they are not findable.
            if r.state != "draft" and tags[0] in r.tags
        ]
        return 200, {"results": results}

    # -- helpers

    def _authorized(self, headers: Mapping[str, str]) -> bool:
        value = _header(headers, "Authorization") or ""
        scheme, _, token = value.partition(" ")
        if scheme != "token" or not token.strip():
            return False
        if self.config.required_token is not None:
            return token.strip() == self.config.required_token
        return True


def _not_a_draft(record: _DepositionRecord) -> tuple[int, dict] | None:
    """The refusal of an upload or a publish to a deposition past draft."""
    if record.state != "draft":
        return 400, {"error": "validation", "message": "deposition is not a draft"}
    return None


def _header(headers: Mapping[str, str], name: str) -> str | None:
    lowered = name.lower()
    for key, value in headers.items():
        if key.lower() == lowered:
            return value
    return None


def _json_body(body: bytes) -> dict | None:
    if not body:
        return None
    try:
        document = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    return document if isinstance(document, dict) else None


# ---------------------------------------------------------------------------
# Standalone HTTP server


#: Seconds between the serve loop's shutdown checks: ``stop()`` waits up to
#: this long, and an idle server wakes this often.
_POLL_INTERVAL = 0.005


class MockServer:
    """Serves a :class:`MockService` over HTTP on a background thread."""

    def __init__(self, service: MockService, host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self._serving = False
        handler = _make_handler(service)
        try:
            self._httpd = ThreadingHTTPServer((host, port), handler)
        except OSError as exc:
            raise BindError(f"cannot bind {host}:{port}: {exc}") from exc
        self.host, self.port = self._httpd.server_address[:2]

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        self._serving = True
        threading.Thread(
            target=self._httpd.serve_forever, args=(_POLL_INTERVAL,), daemon=True
        ).start()

    def stop(self) -> None:
        # shutdown() blocks forever unless the serve loop was entered.
        if self._serving:
            self._httpd.shutdown()
            self._serving = False
        self._httpd.server_close()


class _BodyReader:
    """The ``Content-Length`` bytes of one request body on a connection's
    stream; ``len()`` is the declared length."""

    def __init__(self, stream: BinaryIO, length: int):
        self._stream = stream
        self._length = self._left = length

    def __len__(self) -> int:
        return self._length

    def read(self, size: int = -1) -> bytes:
        if size < 0 or size > self._left:
            size = self._left
        data = self._stream.read(size)
        self._left -= len(data)
        return data

    def readinto(self, buffer) -> int:
        """Fill ``buffer`` with the next bytes of the body, at most what is
        left of it; 0 at its end."""
        view = memoryview(buffer)[: self._left]
        count = self._stream.readinto(view)
        self._left -= count
        return count

    def discard_rest(self) -> None:
        buffer = _chunk_buffer(self._left)
        while self._left and self.readinto(buffer):
            pass


def _chunk_buffer(length: int) -> bytearray:
    """A buffer for reading a body of ``length`` bytes in chunks: no larger
    than the body, so a small request does not pay for a 1 MB allocation."""
    return bytearray(min(CHUNK_SIZE, length))


def _make_handler(service: MockService):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # The headers and the body go out in two writes. With Nagle's
        # algorithm the body would wait for the client's delayed ACK of the
        # headers, about 40 ms on every keep-alive request.
        disable_nagle_algorithm = True

        def _dispatch(self):
            length = (self.headers.get("Content-Length") or "0").strip()
            if not (length.isascii() and length.isdigit()):
                # The body cannot be framed, so the connection cannot go on.
                self.close_connection = True
                message = f"Content-Length {length!r} is not a non-negative integer"
                self._send(400, {"error": "validation", "message": message})
                return
            body = _BodyReader(self.rfile, int(length))
            try:
                status, document = service.handle_request(
                    self.command, self.path, dict(self.headers.items()), body
                )
            except ConnectionDropped:
                # Close without responding; clients see a dropped connection.
                self.close_connection = True
                return
            # Closing a connection with unread bytes would reset it, and the
            # next request on it would start inside this body.
            body.discard_rest()
            self._send(status, document)

        def _send(self, status: int, document: dict) -> None:
            payload = json.dumps(document).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        # Every method reaches the service, which answers a request that no
        # endpoint matches with 404.
        do_GET = do_POST = do_PUT = do_PATCH = do_DELETE = _dispatch

        def log_message(self, fmt, *args):
            logger.debug("%s %s", self.address_string(), fmt % args)

    return Handler


@click.command()
@click.option("--port", type=int, help="Listen port.  [default: that of the profile's base_url]")
@click.option(
    "--profile",
    type=click.Choice(list(default_profiles())),
    default="figshare-like",
    show_default=True,
    help="Capability profile to emulate.",
)
@click.option(
    "--snapshot",
    type=click.Path(dir_okay=False, path_type=Path),
    default=None,
    help="State file loaded at startup (if present) and written at shutdown.",
)
def main(port: int | None, profile: str, snapshot: Path | None) -> None:
    """Run a standalone mock repository service until SIGINT or SIGTERM."""
    logging.basicConfig(level=logging.INFO)
    builtin = default_profiles()[profile]
    if port is None:
        port = urlsplit(builtin.base_url).port
    service = MockService(ServiceConfig(can_search=builtin.can_search))
    if snapshot is not None and snapshot.exists():
        service.load_snapshot(snapshot)
        click.echo(f"loaded snapshot from {snapshot}", err=True)
    try:
        server = MockServer(service, port=port)
    except BindError as exc:
        click.echo(f"error: {exc}", err=True)
        raise SystemExit(1)
    # Blocked before start(), so the server threads inherit the mask. On Linux
    # a blocked signal stays pending for sigwait() even when the parent
    # ignored it, as a non-interactive shell does SIGINT for a background job.
    stop_signals = {signal.SIGINT, signal.SIGTERM}
    signal.pthread_sigmask(signal.SIG_BLOCK, stop_signals)
    server.start()
    click.echo(f"{profile} mock service listening on {server.base_url}", err=True)
    try:
        signal.sigwait(stop_signals)
    finally:
        server.stop()
        if snapshot is not None:
            service.save_snapshot(snapshot)
            click.echo(f"snapshot written to {snapshot}", err=True)


if __name__ == "__main__":
    main()
