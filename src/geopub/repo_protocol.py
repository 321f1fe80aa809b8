"""Client side of the repository deposition protocol.

The protocol is JSON over HTTP. A backend is described by a
:class:`BackendProfile` whose capabilities differ (notably: whether the
service supports searching existing depositions). Requests go over HTTP or
HTTPS, through :class:`HttpTransport`.

The endpoints are the table :data:`ENDPOINTS`, which the client and the mock
service both route by. Authentication is the header
``Authorization: token <TOKEN>``.
"""

from __future__ import annotations

import base64
import json
import logging
import os
import select
import threading
import time
import weakref
from dataclasses import dataclass, field
from enum import Enum
from typing import IO, Mapping
from urllib.parse import quote, unquote, urlsplit

from .errors import CapabilityNotSupportedError, ConfigError, NetworkError, ProtocolError
from .manifest import DepositionMeta, ManifestEntry
from .vcs_info import AuthorRef

logger = logging.getLogger(__name__)

#: Retries for idempotent GETs, on top of the initial attempt.
GET_RETRIES = 3
#: First backoff delay between GET retries, doubled each time.
RETRY_BACKOFF_SECONDS = 0.25
#: Seconds an HTTP request may wait for the connection or for response bytes.
HTTP_TIMEOUT_SECONDS = 30.0
#: Bytes of a file body sent per write.
HTTP_BLOCKSIZE = 1024 * 1024

#: The protocol: operation name -> (method, path template). ``{id}`` stands
#: for a deposition id; search takes its ``?tag=`` query on top of the path.
ENDPOINTS: dict[str, tuple[str, str]] = {
    "create": ("POST", "/api/v1/depositions"),
    "upload": ("POST", "/api/v1/depositions/{id}/files"),
    "publish": ("POST", "/api/v1/depositions/{id}/actions/publish"),
    "make_public": ("POST", "/api/v1/depositions/{id}/actions/make_public"),
    "search": ("GET", "/api/v1/depositions"),
    "get": ("GET", "/api/v1/depositions/{id}"),
}


class DepositionState(Enum):
    DRAFT = "draft"
    PRIVATE = "private"
    PUBLIC = "public"


@dataclass(frozen=True)
class BackendProfile:
    """One configured repository backend."""

    name: str
    base_url: str
    can_search: bool
    # Secret; kept out of reprs and log lines.
    auth_token: str = field(default="", repr=False)


@dataclass(frozen=True)
class RemoteFile:
    """A file stored by the service, with the server-verified digest."""

    file_id: int
    name: str
    size: int
    sha256: str


@dataclass(frozen=True)
class Deposition:
    """Server-side deposition record as seen by the client."""

    id: int
    state: DepositionState
    doi: str
    doi_active: bool
    title: str
    description: str
    tags: tuple[str, ...]
    authors: tuple[AuthorRef, ...]
    files: tuple[RemoteFile, ...]


@dataclass(frozen=True)
class PublicationResult:
    """Outcome of publishing: the citable identifiers."""

    publication_id: int
    doi: str
    doi_active: bool


def author_service_id(author: AuthorRef, profile_name: str) -> str | None:
    """The author's id for a backend, trying the profile name and its base
    form without the ``-like`` suffix (AUTHORS files typically use the short
    service name, e.g. ``figshare:1234``)."""
    ids = author.service_ids
    if profile_name in ids:
        return ids[profile_name]
    short = profile_name.removesuffix("-like")
    return ids.get(short)


# ---------------------------------------------------------------------------
# Transport


@dataclass
class TransportResponse:
    status: int
    body: bytes

    def json(self) -> dict:
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"malformed response body: {exc}", status=self.status) from exc


class HttpTransport:
    """HTTP/1.1 transport on :mod:`http.client`: one keep-alive connection per
    thread, so one transport serves any number of threads.

    The environment is read once, for ``base_url``: the scheme's proxy, else
    ``ALL_PROXY`` (skipped for a host that ``NO_PROXY`` names), and for
    ``https`` the CA bundle of ``REQUESTS_CA_BUNDLE`` or ``CURL_CA_BUNDLE``,
    else the system's trust store. ``~/.netrc`` is not read, so it cannot
    replace the token header with other credentials. A request is sent once;
    retrying is the caller's decision. A ``base_url`` that is not an http or
    https URL with a host raises :class:`ConfigError`.
    """

    def __init__(self, base_url: str):
        # Imported here, so that ``import geopub`` and runs that send nothing
        # do not load an HTTP client.
        import http.client
        import urllib.request

        target = urlsplit(base_url)
        try:
            host, port = target.hostname, target.port
        except ValueError:  # a port that is not a number from 0 to 65535
            host = port = None
        if target.scheme not in ("http", "https") or not host:
            raise ConfigError(f"base_url {base_url!r} is not an http:// or https:// URL")
        proxies = urllib.request.getproxies_environment()
        proxy = proxies.get(target.scheme) or proxies.get("all")
        if proxy and urllib.request.proxy_bypass_environment(target.netloc, proxies):
            proxy = None
        #: Headers every request carries, and whether its target is the absolute URL.
        self._proxy_headers: dict[str, str] = {}
        self._absolute_target = False
        tunnel: tuple | None = None
        if proxy:
            proxy_url = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            auth = {}
            if proxy_url.username is not None:
                credentials = f"{unquote(proxy_url.username)}:{unquote(proxy_url.password or '')}"
                auth["Proxy-Authorization"] = "Basic " + base64.b64encode(
                    credentials.encode("utf-8")
                ).decode("ascii")
            if target.scheme == "https":
                tunnel = (host, port, auth)
            else:
                self._proxy_headers, self._absolute_target = auth, True
            host, port = proxy_url.hostname, proxy_url.port or 80

        options = {"timeout": HTTP_TIMEOUT_SECONDS, "blocksize": HTTP_BLOCKSIZE}
        if target.scheme == "https":
            import ssl

            cafile = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
            options["context"] = ssl.create_default_context(cafile=cafile or None)
            connection_class = http.client.HTTPSConnection
        else:
            connection_class = http.client.HTTPConnection

        def connect() -> http.client.HTTPConnection:
            connection = connection_class(host, port, **options)
            if tunnel is not None:
                connection.set_tunnel(*tunnel)
            return connection

        self._connect = connect
        self._errors = (OSError, http.client.HTTPException)
        self._local = threading.local()
        # Every connection opened, so that the sockets of all threads are
        # closed when the transport is.
        self._connections: list[http.client.HTTPConnection] = []
        weakref.finalize(self, _close_all, self._connections)

    def request(
        self, method: str, url: str, headers: Mapping[str, str], body: bytes | IO[bytes] | None
    ) -> TransportResponse:
        headers = {**self._proxy_headers, **headers}
        if body is not None and not isinstance(body, bytes):
            # Without a length http.client sends a file chunked.
            position = body.tell()
            headers["Content-Length"] = str(body.seek(0, os.SEEK_END) - position)
            body.seek(position)
        if self._absolute_target:
            target = url
        else:
            parts = urlsplit(url)
            target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        connection = self._connection()
        try:
            connection.request(method, target, body=body, headers=headers)
            response = connection.getresponse()
            return TransportResponse(status=response.status, body=response.read())
        except self._errors as exc:
            connection.close()
            raise NetworkError(f"{method} {url}: {exc}") from exc

    def _connection(self):
        """This thread's connection; one the server has closed is reopened."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._local.connection = self._connect()
            self._connections.append(connection)
        elif connection.sock is not None and _readable(connection.sock):
            # An idle keep-alive socket is readable only once the server has
            # closed it; the next request opens a new one.
            connection.close()
        return connection


def _close_all(connections: list) -> None:
    for connection in connections:
        connection.close()


def _readable(sock) -> bool:
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


# ---------------------------------------------------------------------------
# Client

_STATUS_ERRORS = {cls.status: cls for cls in ProtocolError.__subclasses__() if cls.status}


def _remote_file(row: dict) -> RemoteFile:
    """A stored-file row, as the upload response and a deposition's files give it."""
    return RemoteFile(
        file_id=row["file_id"], name=row["name"], size=row["size"], sha256=row["sha256"]
    )


class RepositoryClient:
    """Client handle for one backend profile.

    Safe to share across threads; uploads to distinct files of the same
    deposition may run concurrently. Idempotent GETs are retried up to
    :data:`GET_RETRIES` times with exponential backoff; uploads and other
    state-changing requests are never auto-retried.
    """

    def __init__(self, profile: BackendProfile):
        self.profile = profile
        self.transport = HttpTransport(profile.base_url)

    # -- operations

    def create_deposition(self, meta: DepositionMeta, private: bool = False) -> Deposition:
        """Create a draft deposition with a reserved, inactive DOI."""
        payload = {
            "title": meta.title,
            "description": meta.description,
            "tags": list(meta.tags),
            "authors": [
                {"name": author.name, "id": author_service_id(author, self.profile.name)}
                for author in meta.authors
            ],
            "private": private,
        }
        return self._deposition(self._expect(self._request("create", json_body=payload), 201))

    def upload_file(
        self, deposition_id: int, entry: ManifestEntry, content: bytes | IO[bytes]
    ) -> RemoteFile:
        """Upload one file to a draft deposition.

        The server verifies the declared digest against the received bytes
        and enforces per-file and total quotas.
        """
        document = self._expect(
            self._request(
                "upload",
                deposition_id,
                headers={
                    "X-File-Name": entry.name,
                    "X-File-SHA256": entry.sha256,
                    "Content-Type": "application/octet-stream",
                },
                body=content,
            ),
            201,
        )
        return _remote_file(document)

    def publish_deposition(self, deposition_id: int, private: bool = False) -> PublicationResult:
        """Publish a draft: public (DOI goes live) or private (DOI stays
        reserved)."""
        return self._publication(
            self._request("publish", deposition_id, json_body={"private": private})
        )

    def make_public(self, deposition_id: int) -> PublicationResult:
        """Flip a private deposition to public; the DOI string is unchanged."""
        return self._publication(self._request("make_public", deposition_id))

    def search_by_tag(self, tag: str) -> list[Deposition]:
        """Find published depositions carrying ``tag`` exactly.

        Raises:
            CapabilityNotSupportedError: the backend cannot search.
        """
        if not self.profile.can_search:
            raise CapabilityNotSupportedError(
                f"backend {self.profile.name!r} does not support searching"
            )
        document = self._expect(
            self._request("search", query=f"?tag={quote(tag, safe='')}"), 200
        )
        return [self._deposition(row) for row in document["results"]]

    def get_deposition(self, deposition_id: int) -> Deposition:
        """Fetch the full server-side record, files included."""
        return self._deposition(self._expect(self._request("get", deposition_id), 200))

    # -- plumbing

    def _request(
        self,
        op: str,
        deposition_id: int | None = None,
        *,
        query: str = "",
        headers: Mapping[str, str] | None = None,
        body: bytes | IO[bytes] | None = None,
        json_body: dict | None = None,
    ) -> TransportResponse:
        method, path = ENDPOINTS[op]
        url = self.profile.base_url.rstrip("/") + path.format(id=deposition_id) + query
        request_headers = {"Authorization": f"token {self.profile.auth_token}"}
        if json_body is not None:
            body = json.dumps(json_body).encode("utf-8")
            request_headers["Content-Type"] = "application/json"
        if headers:
            request_headers.update(headers)

        attempts = 1 + (GET_RETRIES if method == "GET" else 0)
        delay = RETRY_BACKOFF_SECONDS
        failure: NetworkError | None = None
        for attempt in range(attempts):
            if attempt:
                time.sleep(delay)
                delay *= 2
                logger.debug("retrying %s %s (attempt %d)", method, url, attempt + 1)
            try:
                response = self.transport.request(method, url, request_headers, body)
            except NetworkError as exc:
                failure = exc
                continue
            # 501 is a capability signal, not a server failure.
            if response.status >= 500 and response.status != 501:
                failure = NetworkError(
                    f"{method} {url}: server error {response.status}", status=response.status
                )
                continue
            return response
        assert failure is not None
        raise failure

    def _deposition(self, document: dict) -> Deposition:
        """Parse the deposition document that create, get and each search
        row return."""
        return Deposition(
            id=document["id"],
            state=DepositionState(document["state"]),
            doi=document["doi"],
            doi_active=document["doi_active"],
            title=document["title"],
            description=document["description"],
            tags=tuple(document["tags"]),
            authors=tuple(
                AuthorRef(
                    name=row["name"],
                    service_ids={self.profile.name: row["id"]} if row.get("id") else {},
                )
                for row in document["authors"]
            ),
            files=tuple(_remote_file(row) for row in document["files"]),
        )

    def _publication(self, response: TransportResponse) -> PublicationResult:
        """Parse the status document that publish and make_public return."""
        document = self._expect(response, 200)
        return PublicationResult(
            publication_id=document["id"], doi=document["doi"], doi_active=document["doi_active"]
        )

    def _expect(self, response: TransportResponse, expected_status: int) -> dict:
        if response.status == expected_status:
            return response.json()
        error_cls = _STATUS_ERRORS.get(response.status, ProtocolError)
        try:
            detail = response.json()
        except ProtocolError:
            detail = {}
        message = detail.get("message") or detail.get("error") or response.body.decode(
            "utf-8", "replace"
        )
        raise error_cls(f"service returned {response.status}: {message}", status=response.status)
