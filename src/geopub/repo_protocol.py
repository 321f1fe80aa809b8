"""Client side of the repository deposition protocol.

The protocol is JSON over HTTP. A backend is described by a
:class:`BackendProfile` whose capabilities differ (notably: whether the
service supports searching existing depositions). Transports are pluggable:
``http(s)://`` URLs go over the network, ``mock://NAME`` URLs dispatch
directly to an in-process service registered under NAME, with no sockets
involved.

The endpoints are the table :data:`ENDPOINTS`, which the client and the mock
service both route by. Authentication is the header
``Authorization: token <TOKEN>``.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import IO, Callable, Mapping
from urllib.parse import quote, urlsplit

import requests

from .errors import CapabilityNotSupportedError, NetworkError, ProtocolError
from .manifest import ManifestEntry
from .vcs_info import AuthorRef

logger = logging.getLogger(__name__)

#: Retries for idempotent GETs, on top of the initial attempt.
GET_RETRIES = 3
#: First backoff delay between GET retries, doubled each time.
RETRY_BACKOFF_SECONDS = 0.25
#: Seconds an HTTP request may wait for the connection or for response bytes.
HTTP_TIMEOUT_SECONDS = 30.0

#: The protocol: operation name -> (method, path template). ``{id}`` stands
#: for a deposition id; search takes its ``?tag=`` query on top of the path.
ENDPOINTS: dict[str, tuple[str, str]] = {
    "create": ("POST", "/api/v1/depositions"),
    "upload": ("POST", "/api/v1/depositions/{id}/files"),
    "publish": ("POST", "/api/v1/depositions/{id}/actions/publish"),
    "make_public": ("POST", "/api/v1/depositions/{id}/actions/make_public"),
    "collaborators": ("POST", "/api/v1/depositions/{id}/collaborators"),
    "tags": ("POST", "/api/v1/depositions/{id}/tags"),
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
    collaborators: tuple[str, ...]


@dataclass(frozen=True)
class DepositionSummary:
    """Search result row."""

    id: int
    doi: str
    title: str
    tags: tuple[str, ...]


@dataclass(frozen=True)
class PublicationResult:
    """Outcome of publishing: the citable identifiers."""

    publication_id: int
    doi: str
    doi_active: bool


@dataclass(frozen=True)
class DepositionMeta:
    """Metadata sent when creating a deposition."""

    title: str
    description: str = ""
    tags: tuple[str, ...] = ()
    authors: tuple[AuthorRef, ...] = ()


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
# Transports


@dataclass
class TransportResponse:
    status: int
    body: bytes

    def json(self) -> dict:
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"malformed response body: {exc}", status=self.status) from exc


#: (method, path_with_query, headers, body) -> (status, payload dict)
InProcessHandler = Callable[[str, str, Mapping[str, str], bytes], "tuple[int, dict]"]

_INPROCESS_REGISTRY: dict[str, InProcessHandler] = {}


def register_inprocess_handler(name: str, handler: InProcessHandler) -> str:
    """Expose ``handler`` as the in-process backend ``mock://name``."""
    _INPROCESS_REGISTRY[name] = handler
    return f"mock://{name}"


def unregister_inprocess_handler(name: str) -> None:
    _INPROCESS_REGISTRY.pop(name, None)


class HttpTransport:
    """Real HTTP transport on a shared :class:`requests.Session`."""

    def __init__(self):
        self._session = requests.Session()

    def request(
        self, method: str, url: str, headers: Mapping[str, str], body: bytes | IO[bytes] | None
    ) -> TransportResponse:
        try:
            response = self._session.request(
                method, url, headers=dict(headers), data=body, timeout=HTTP_TIMEOUT_SECONDS
            )
        except requests.RequestException as exc:
            raise NetworkError(f"{method} {url}: {exc}") from exc
        return TransportResponse(status=response.status_code, body=response.content)


class InProcessTransport:
    """Dispatches requests directly to a registered in-process service."""

    def request(
        self, method: str, url: str, headers: Mapping[str, str], body: bytes | IO[bytes] | None
    ) -> TransportResponse:
        parts = urlsplit(url)
        handler = _INPROCESS_REGISTRY.get(parts.netloc)
        if handler is None:
            raise NetworkError(f"no in-process service registered as {parts.netloc!r}")
        path = parts.path + (f"?{parts.query}" if parts.query else "")
        if body is None:
            payload = b""
        elif isinstance(body, bytes):
            payload = body
        else:
            payload = body.read()
        try:
            status, document = handler(method, path, headers, payload)
        except ConnectionError as exc:
            raise NetworkError(f"{method} {url}: connection dropped") from exc
        return TransportResponse(status=status, body=json.dumps(document).encode("utf-8"))


def transport_for(base_url: str):
    """Pick a transport implementation from the URL scheme."""
    scheme = urlsplit(base_url).scheme
    if scheme in ("http", "https"):
        return HttpTransport()
    if scheme == "mock":
        return InProcessTransport()
    raise ValueError(f"unsupported URL scheme in {base_url!r}")


# ---------------------------------------------------------------------------
# Client

_STATUS_ERRORS = {cls.status: cls for cls in ProtocolError.__subclasses__() if cls.status}


class RepositoryClient:
    """Client handle for one backend profile.

    Safe to share across threads; uploads to distinct files of the same
    deposition may run concurrently. Idempotent GETs are retried up to
    :data:`GET_RETRIES` times with exponential backoff; uploads and other
    state-changing requests are never auto-retried.
    """

    def __init__(self, profile: BackendProfile, *, retry_backoff: float = RETRY_BACKOFF_SECONDS):
        self.profile = profile
        self.transport = transport_for(profile.base_url)
        self._retry_backoff = retry_backoff

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
        document = self._expect(self._request("create", json_body=payload), 201)
        return Deposition(
            id=document["id"],
            state=DepositionState(document["state"]),
            doi=document["doi"],
            doi_active=document["doi_active"],
            title=meta.title,
            description=meta.description,
            tags=tuple(meta.tags),
            authors=tuple(meta.authors),
            files=(),
            collaborators=(),
        )

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
        return RemoteFile(
            file_id=document["file_id"],
            name=document["name"],
            size=document["size"],
            sha256=document["sha256"],
        )

    def publish_deposition(self, deposition_id: int, private: bool = False) -> PublicationResult:
        """Publish a draft: public (DOI goes live) or private (DOI stays
        reserved)."""
        return self._publication(
            self._request("publish", deposition_id, json_body={"private": private})
        )

    def make_public(self, deposition_id: int) -> PublicationResult:
        """Flip a private deposition to public; the DOI string is unchanged."""
        return self._publication(self._request("make_public", deposition_id))

    def search_by_tag(self, tag: str) -> list[DepositionSummary]:
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
        return [
            DepositionSummary(
                id=row["id"], doi=row["doi"], title=row["title"], tags=tuple(row["tags"])
            )
            for row in document["results"]
        ]

    def get_deposition(self, deposition_id: int) -> Deposition:
        """Fetch the full server-side record, files included."""
        document = self._expect(self._request("get", deposition_id), 200)
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
            files=tuple(
                RemoteFile(
                    file_id=row["file_id"],
                    name=row["name"],
                    size=row["size"],
                    sha256=row["sha256"],
                )
                for row in document["files"]
            ),
            collaborators=tuple(document["collaborators"]),
        )

    def add_collaborator(self, deposition_id: int, collaborator: str) -> int:
        """Grant a collaborator access to a private deposition; returns the
        updated count. Adding the same name twice is idempotent."""
        document = self._expect(
            self._request(
                "collaborators",
                deposition_id,
                json_body={"name": collaborator},
            ),
            200,
        )
        return document["count"]

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
        delay = self._retry_backoff
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
