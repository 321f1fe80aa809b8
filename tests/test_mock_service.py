from __future__ import annotations

import hashlib
import http.client
import json
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
from types import SimpleNamespace
from urllib.parse import urlsplit

import pytest
from click.testing import CliRunner

from conftest import body_reader

from geopub import mock_service
from geopub.errors import BindError, NetworkError
from geopub.manifest import ManifestEntry
from geopub.mock_service import Fault, MockServer, MockService, ServiceConfig
from geopub.repo_protocol import ENDPOINTS, BackendProfile, DepositionMeta, RepositoryClient

TOKEN = "test-token"
AUTH = {"Authorization": f"token {TOKEN}"}


def direct_sender(service: MockService):
    def send(method, path, headers=None, body=b""):
        merged = dict(AUTH)
        merged.update(headers or {})
        return service.handle_request(method, path, merged, body_reader(body))

    return send


def http_sender(base_url: str):
    address = urlsplit(base_url)

    def send(method, path, headers=None, body=b""):
        merged = dict(AUTH)
        merged.update(headers or {})
        connection = http.client.HTTPConnection(address.hostname, address.port, timeout=10)
        try:
            connection.request(method, path, body=body, headers=merged)
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    return send


@pytest.fixture
def service():
    return MockService(ServiceConfig.figshare_like(per_file_limit=1024))


@pytest.fixture(params=["in-process", "http"])
def sender(request, service):
    """The same request sequences run directly and over real HTTP."""
    if request.param == "in-process":
        yield direct_sender(service)
    else:
        server = MockServer(service)
        server.start()
        try:
            yield http_sender(server.base_url)
        finally:
            server.stop()


@pytest.fixture
def hashed(monkeypatch) -> list[int]:
    """The sizes of the chunks the mock hashes, in order."""
    sizes: list[int] = []

    class CountingSha256:
        """An incremental sha256 that counts the bytes it is given."""

        def __init__(self):
            self._digest = hashlib.sha256()
            self.hexdigest = self._digest.hexdigest

        def update(self, data):
            sizes.append(len(data))
            self._digest.update(data)

    monkeypatch.setattr(mock_service, "hashlib", SimpleNamespace(sha256=CountingSha256))
    return sizes


def _create_body(**overrides) -> bytes:
    document = {
        "title": "Orkney",
        "description": "files",
        "tags": ["orkney", "qgis"],
        "authors": [{"name": "Ada", "id": "554577"}],
        "private": False,
    }
    document.update(overrides)
    return json.dumps(document).encode()


class TestWireConformance:
    """Byte-structure of the protocol: exact field names and status codes."""

    def test_create_shape(self, sender):
        status, document = sender("POST", "/api/v1/depositions", body=_create_body())
        assert status == 201
        assert document == {
            "id": 1,
            "doi": "10.5072/geopub.1",
            "doi_active": False,
            "state": "draft",
            "title": "Orkney",
            "description": "files",
            "tags": ["orkney", "qgis"],
            "authors": [{"name": "Ada", "id": "554577"}],
            "files": [],
        }

    def test_upload_shape_and_errors(self, sender):
        sender("POST", "/api/v1/depositions", body=_create_body())
        content = b"data bytes"
        digest = hashlib.sha256(content).hexdigest()
        status, document = sender(
            "POST",
            "/api/v1/depositions/1/files",
            headers={"X-File-Name": "data.nc", "X-File-SHA256": digest},
            body=content,
        )
        assert status == 201
        assert document == {
            "file_id": 1,
            "name": "data.nc",
            "size": len(content),
            "sha256": digest,
        }

        status, document = sender(
            "POST",
            "/api/v1/depositions/1/files",
            headers={"X-File-Name": "bad.nc", "X-File-SHA256": "0" * 64},
            body=b"mismatch",
        )
        assert (status, document) == (422, {"error": "checksum"})

        oversize = b"x" * 2048
        status, document = sender(
            "POST",
            "/api/v1/depositions/1/files",
            headers={
                "X-File-Name": "big.nc",
                "X-File-SHA256": hashlib.sha256(oversize).hexdigest(),
            },
            body=oversize,
        )
        assert (status, document) == (413, {"error": "quota"})

    def test_publish_make_public_and_get_shapes(self, sender):
        sender("POST", "/api/v1/depositions", body=_create_body())
        content = b"payload"
        sender(
            "POST",
            "/api/v1/depositions/1/files",
            headers={
                "X-File-Name": "p.bin",
                "X-File-SHA256": hashlib.sha256(content).hexdigest(),
            },
            body=content,
        )
        status, document = sender(
            "POST",
            "/api/v1/depositions/1/actions/publish",
            body=json.dumps({"private": True}).encode(),
        )
        assert status == 200
        assert document == {
            "id": 1,
            "doi": "10.5072/geopub.1",
            "doi_active": False,
            "state": "private",
        }

        status, document = sender("POST", "/api/v1/depositions/1/actions/make_public")
        assert status == 200
        assert document["state"] == "public"
        assert document["doi_active"] is True
        assert document["doi"] == "10.5072/geopub.1"

        status, document = sender("GET", "/api/v1/depositions/1")
        assert status == 200
        assert document == {
            "id": 1,
            "doi": "10.5072/geopub.1",
            "doi_active": True,
            "state": "public",
            "title": "Orkney",
            "description": "files",
            "tags": ["orkney", "qgis"],
            "authors": [{"name": "Ada", "id": "554577"}],
            "files": [
                {
                    "file_id": 1,
                    "name": "p.bin",
                    "size": len(content),
                    "sha256": hashlib.sha256(content).hexdigest(),
                }
            ],
        }

    def test_search_shape(self, sender):
        sender("POST", "/api/v1/depositions", body=_create_body())
        content = b"x"
        sender(
            "POST",
            "/api/v1/depositions/1/files",
            headers={
                "X-File-Name": "x.bin",
                "X-File-SHA256": hashlib.sha256(content).hexdigest(),
            },
            body=content,
        )
        sender("POST", "/api/v1/depositions/1/actions/publish", body=b'{"private": false}')
        status, document = sender("GET", "/api/v1/depositions?tag=orkney")
        assert status == 200
        assert document == {
            "results": [
                {
                    "id": 1,
                    "doi": "10.5072/geopub.1",
                    "doi_active": True,
                    "state": "public",
                    "title": "Orkney",
                    "description": "files",
                    "tags": ["orkney", "qgis"],
                    "authors": [{"name": "Ada", "id": "554577"}],
                    "files": [
                        {
                            "file_id": 1,
                            "name": "x.bin",
                            "size": 1,
                            "sha256": hashlib.sha256(content).hexdigest(),
                        }
                    ],
                }
            ]
        }

    def test_collaborators_path_is_not_found(self, sender):
        sender("POST", "/api/v1/depositions", body=_create_body(private=True))
        content = b"x"
        sender(
            "POST",
            "/api/v1/depositions/1/files",
            headers={
                "X-File-Name": "x.bin",
                "X-File-SHA256": hashlib.sha256(content).hexdigest(),
            },
            body=content,
        )
        sender("POST", "/api/v1/depositions/1/actions/publish", body=b'{"private": true}')
        status, document = sender(
            "POST", "/api/v1/depositions/1/collaborators", body=b'{"name": "person0"}'
        )
        assert (status, document) == (404, {"error": "not_found"})

    def test_validation_and_not_found_codes(self, sender):
        status, document = sender("POST", "/api/v1/depositions", body=_create_body(title=""))
        assert status == 400
        assert document["error"] == "validation"
        status, _ = sender("GET", "/api/v1/depositions/42")
        assert status == 404
        status, _ = sender("POST", "/api/v1/depositions/42/actions/publish")
        assert status == 404
        status, _ = sender("GET", "/api/v1/unknown")
        assert status == 404
        # No endpoint appends a tag, even to an existing draft.
        sender("POST", "/api/v1/depositions", body=_create_body())
        status, document = sender("POST", "/api/v1/depositions/1/tags", body=b'{"tag": "x"}')
        assert (status, document) == (404, {"error": "not_found"})

    def test_upload_to_unknown_deposition_refused_before_hashing(self, sender, hashed):
        sender("POST", "/api/v1/depositions", body=_create_body())
        content = b"x" * 3_000_000
        headers = {"X-File-Name": "big.bin", "X-File-SHA256": hashlib.sha256(content).hexdigest()}
        status, document = sender("POST", "/api/v1/depositions/2/files", headers, content)
        assert (status, document, sum(hashed)) == (404, {"error": "not_found"}, 0)
        # The same upload to the existing draft is hashed, then refused by quota.
        status, document = sender("POST", "/api/v1/depositions/1/files", headers, content)
        assert (status, document, sum(hashed)) == (413, {"error": "quota"}, len(content))

    def test_upload_to_published_deposition_refused_before_hashing(self, sender, hashed):
        sender("POST", "/api/v1/depositions", body=_create_body())
        small = b"x"
        headers = {"X-File-Name": "x.bin", "X-File-SHA256": hashlib.sha256(small).hexdigest()}
        sender("POST", "/api/v1/depositions/1/files", headers, small)
        sender("POST", "/api/v1/depositions/1/actions/publish", body=b'{"private": false}')
        hashed.clear()
        content = b"x" * 3_000_000
        headers = {"X-File-Name": "big.bin", "X-File-SHA256": hashlib.sha256(content).hexdigest()}
        status, document = sender("POST", "/api/v1/depositions/1/files", headers, content)
        assert (status, document, sum(hashed)) == (
            400,
            {"error": "validation", "message": "deposition is not a draft"},
            0,
        )

    def test_auth_codes(self, sender):
        status, document = sender("POST", "/api/v1/depositions", headers={"Authorization": ""})
        assert (status, document) == (401, {"error": "auth"})

    def test_search_not_supported_on_zenodo_like(self):
        service = MockService(ServiceConfig.zenodo_like())
        send = direct_sender(service)
        status, document = send("GET", "/api/v1/depositions?tag=x")
        assert (status, document) == (501, {"error": "search_not_supported"})

    @pytest.mark.parametrize("op", list(ENDPOINTS))
    def test_each_operation_routes_to_its_own_endpoint(self, sender, service, op):
        service.inject_fault(Fault.http500(), on=op)
        own_method, own_path = ENDPOINTS[op]
        other_method = "GET" if own_method == "POST" else "POST"
        for method, path in [*ENDPOINTS.values(), (other_method, own_path)]:
            status, _ = sender(method, path.format(id=1))
            assert (status == 500) == ((method, path) == (own_method, own_path)), (method, path)

    @pytest.mark.parametrize("method", ["PUT", "PATCH", "DELETE"])
    def test_other_methods_not_found_and_counted(self, sender, service, method):
        status, document = sender(method, "/api/v1/depositions", body=_create_body())
        assert (status, document) == (404, {"error": "not_found"})
        assert service.request_count == 1


class TestAuth:
    @pytest.mark.parametrize(
        "header",
        [None, "", "Bearer abc", "token ", "token"],
    )
    def test_rejected_headers(self, header):
        service = MockService()
        headers = {} if header is None else {"Authorization": header}
        status, document = service.handle_request(
            "POST", "/api/v1/depositions", headers, body_reader(_create_body())
        )
        assert (status, document) == (401, {"error": "auth"})

    def test_any_non_empty_token_accepted_by_default(self):
        service = MockService()
        status, _ = service.handle_request(
            "POST",
            "/api/v1/depositions",
            {"Authorization": "token whatever"},
            body_reader(_create_body()),
        )
        assert status == 201

    def test_strict_token_mode(self):
        service = MockService(ServiceConfig(required_token="sesame"))
        ok, _ = service.handle_request(
            "POST",
            "/api/v1/depositions",
            {"Authorization": "token sesame"},
            body_reader(_create_body()),
        )
        bad, _ = service.handle_request(
            "POST",
            "/api/v1/depositions",
            {"Authorization": "token nope"},
            body_reader(_create_body()),
        )
        assert (ok, bad) == (201, 401)


class TestFaults:
    def test_unknown_operation_rejected(self):
        with pytest.raises(ValueError, match="uplaod"):
            MockService().inject_fault(Fault.http500(), on="uplaod")

    def test_every_operation_and_star_accepted(self):
        service = MockService()
        for on in [*ENDPOINTS, "*"]:
            service.inject_fault(Fault.http500(), on=on)


class TestServiceConfig:
    def test_defaults(self):
        config = ServiceConfig()
        assert config.per_file_limit == 250 * 1024 * 1024
        assert config.private_quota == 1024 * 1024 * 1024

    def test_limits_must_be_positive(self):
        with pytest.raises(ValueError):
            ServiceConfig(per_file_limit=0)

    def test_profile_constructors(self):
        assert ServiceConfig.figshare_like().can_search is True
        assert ServiceConfig.zenodo_like().can_search is False


class TestSnapshot:
    def test_round_trip(self, tmp_path, backend):
        client = backend.client()
        deposition = client.create_deposition(
            DepositionMeta(title="T", tags=("a",)), private=True
        )
        content = b"bytes"
        entry = ManifestEntry(
            path=None, name="f.bin", size=5, sha256=hashlib.sha256(content).hexdigest()
        )
        client.upload_file(deposition.id, entry, content)
        snapshot = tmp_path / "state.json"
        backend.service.save_snapshot(snapshot)

        restored = MockService(ServiceConfig.figshare_like())
        restored.load_snapshot(snapshot)
        assert restored.deposition_count() == 1
        record = restored.deposition_record(deposition.id)
        assert record["files"][0]["sha256"] == entry.sha256
        # The id counter continues after the snapshot.
        status, document = direct_sender(restored)(
            "POST", "/api/v1/depositions", body=_create_body()
        )
        assert document["id"] == deposition.id + 1

    def test_snapshot_with_collaborators_loads(self, tmp_path):
        """A snapshot from before the collaborators endpoint went still loads."""
        snapshot = tmp_path / "state.json"
        file = {"file_id": 1, "name": "f.bin", "size": 5, "sha256": "ab" * 32}
        record = {
            "id": 1,
            "doi": "10.5072/geopub.1",
            "state": "private",
            "doi_active": False,
            "title": "T",
            "description": "",
            "tags": ["a"],
            "authors": [],
            "private_intent": True,
            "files": [file],
            "collaborators": ["alice"],
        }
        snapshot.write_text(json.dumps({"next_id": 2, "depositions": [record]}))
        restored = MockService()
        restored.load_snapshot(snapshot)
        assert restored.deposition_record(1) == {
            "id": 1,
            "doi": "10.5072/geopub.1",
            "doi_active": False,
            "state": "private",
            "title": "T",
            "description": "",
            "tags": ["a"],
            "authors": [],
            "files": [file],
        }

    def test_fresh_instance_is_empty(self):
        assert MockService().deposition_count() == 0

    def test_save_syncs_file_before_rename_and_directory_after(
        self, tmp_path, service, durability_log
    ):
        direct_sender(service)("POST", "/api/v1/depositions", body=_create_body())
        service.save_snapshot(tmp_path / "state.json")
        assert durability_log == ["fsync file", "replace", "fsync directory"]


class TestHttpServer:
    def test_bind_error_on_occupied_port(self):
        first = MockServer(MockService())
        try:
            with pytest.raises(BindError):
                MockServer(MockService(), port=first.port)
        finally:
            first.stop()

    @pytest.mark.parametrize("length", ["-1", "-5", "abc"])
    def test_bad_content_length_answered_400_and_closed(self, length):
        server = MockServer(MockService())
        server.start()
        try:
            # The timeout turns a handler that waits for a body into a failure.
            with socket.create_connection((server.host, server.port), timeout=5) as conn:
                conn.sendall(
                    f"POST /api/v1/depositions HTTP/1.1\r\nHost: test\r\n"
                    f"Authorization: token {TOKEN}\r\nContent-Length: {length}\r\n\r\n".encode()
                )
                reply = b""
                # Reading to the end checks that the server closed the connection.
                while chunk := conn.recv(4096):
                    reply += chunk
        finally:
            server.stop()
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert json.loads(body)["error"] == "validation"

    def test_keep_alive_get_has_no_delayed_ack_floor(self):
        server = MockServer(MockService())
        server.start()
        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        latencies = []
        try:
            connection.request("POST", "/api/v1/depositions", body=_create_body(), headers=AUTH)
            assert connection.getresponse().read()
            for _ in range(20):
                start = time.perf_counter()
                connection.request("GET", "/api/v1/depositions/1", headers=AUTH)
                response = connection.getresponse()
                response.read()
                latencies.append(time.perf_counter() - start)
                assert response.status == 200
        finally:
            connection.close()
            server.stop()
        # A response body held back by Nagle's algorithm until the client's
        # delayed ACK arrives costs about 40 ms.
        assert statistics.median(latencies) < 0.020

    @pytest.mark.parametrize(
        "size, bound",
        # A buffer of a fixed 1 MB would break the first bound; a new object
        # per read holds two chunks at once and breaks the second.
        [(1000, 64 * 1024), (3 * mock_service.MB + 7, 3 * mock_service.MB // 2)],
        ids=["1KB", "3MB"],
    )
    def test_upload_is_hashed_in_one_buffer_sized_to_it(self, monkeypatch, size, bound):
        service = MockService()
        handle = service.handle_request
        peaks = []

        def traced_handle(*args):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return handle(*args)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1] - base)

        monkeypatch.setattr(service, "handle_request", traced_handle)
        server = MockServer(service)
        server.start()
        content = b"x" * size
        headers = {"X-File-Name": "b.bin", "X-File-SHA256": hashlib.sha256(content).hexdigest()}
        send = http_sender(server.base_url)
        tracemalloc.start()
        try:
            send("POST", "/api/v1/depositions", body=_create_body())
            status, document = send("POST", "/api/v1/depositions/1/files", headers, content)
        finally:
            tracemalloc.stop()
            server.stop()
        assert (status, document["size"]) == (201, size)
        assert peaks[-1] < bound

    def test_drop_fault_over_http(self):
        service = MockService()
        service.inject_fault(Fault.drop(), on="create")
        server = MockServer(service)
        server.start()
        try:
            profile = BackendProfile("figshare-like", server.base_url, True, TOKEN)
            client = RepositoryClient(profile)
            with pytest.raises(NetworkError):
                client.create_deposition(DepositionMeta(title="T"))
        finally:
            server.stop()

    def test_full_client_flow_over_http(self, orkney):
        service = MockService()
        server = MockServer(service)
        server.start()
        try:
            profile = BackendProfile("figshare-like", server.base_url, True, TOKEN)
            client = RepositoryClient(profile)
            deposition = client.create_deposition(DepositionMeta(title="T", tags=("t",)))
            content = orkney.mesh.read_bytes()
            entry = ManifestEntry(
                path=orkney.mesh,
                name="orkney.msh",
                size=len(content),
                sha256=hashlib.sha256(content).hexdigest(),
            )
            client.upload_file(deposition.id, entry, content)
            result = client.publish_deposition(deposition.id)
            assert result.doi_active is True
            assert client.search_by_tag("t")[0].id == deposition.id
        finally:
            server.stop()


class TestLocking:
    def test_get_answered_while_an_upload_hashes(self, service, monkeypatch):
        send = direct_sender(service)
        send("POST", "/api/v1/depositions", body=_create_body())
        content = b"payload"
        digest = hashlib.sha256(content).hexdigest()
        hashing, release = threading.Event(), threading.Event()

        class SlowSha256:
            """An incremental sha256 whose first ``update()`` blocks."""

            def __init__(self):
                self._digest = hashlib.sha256()
                self.hexdigest = self._digest.hexdigest

            def update(self, data):
                if not hashing.is_set():
                    hashing.set()
                    release.wait(timeout=10)
                self._digest.update(data)

        monkeypatch.setattr(mock_service, "hashlib", SimpleNamespace(sha256=SlowSha256))
        uploaded, fetched = [], []
        upload = threading.Thread(
            target=lambda: uploaded.append(
                send(
                    "POST",
                    "/api/v1/depositions/1/files",
                    headers={"X-File-Name": "p.bin", "X-File-SHA256": digest},
                    body=content,
                )
            )
        )
        get = threading.Thread(
            target=lambda: fetched.append(send("GET", "/api/v1/depositions/1"))
        )
        upload.start()
        try:
            assert hashing.wait(timeout=10)
            get.start()
            get.join(timeout=2)
            assert not get.is_alive(), "the get waited for the upload's hash"
        finally:
            release.set()
            upload.join(timeout=10)
        get.join(timeout=10)
        assert not (upload.is_alive() or get.is_alive())
        assert fetched[0][0] == 200
        assert uploaded[0][0] == 201


class TestStandaloneProcess:
    @pytest.mark.parametrize(
        "profile, default_port, can_search",
        [("figshare-like", 8472, True), ("zenodo-like", 8473, False)],
    )
    def test_default_port_and_capability_follow_the_profile(
        self, monkeypatch, profile, default_port, can_search
    ):
        bound = []

        def refuse(service, host="127.0.0.1", port=0):
            bound.append((port, service.config.can_search))
            raise BindError(f"cannot bind {host}:{port}")

        # Nothing binds, and the command exits before it touches the signal mask.
        monkeypatch.setattr(mock_service, "MockServer", refuse)
        result = CliRunner().invoke(mock_service.main, ["--profile", profile])
        assert (result.exit_code, bound) == (1, [(default_port, can_search)])

    @pytest.mark.parametrize("signal_name", ["SIGINT", "SIGTERM"])
    def test_serves_snapshot_and_shuts_down(self, tmp_path, signal_name):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        snapshot = tmp_path / "state.json"
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "geopub.mock_service",
                "--port",
                str(port),
                "--snapshot",
                str(snapshot),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            # As in a background job of a non-interactive shell.
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
        )
        try:
            deadline = time.time() + 10
            while True:
                connection = http.client.HTTPConnection("127.0.0.1", port, timeout=2)
                try:
                    connection.request(
                        "POST", "/api/v1/depositions", body=_create_body(), headers=AUTH
                    )
                    response = connection.getresponse()
                    document = json.loads(response.read())
                    break
                except OSError:
                    assert time.time() < deadline, "server did not come up"
                    time.sleep(0.05)
                finally:
                    connection.close()
            assert response.status == 201
            assert document["id"] == 1
            process.send_signal(getattr(signal, signal_name))
            assert process.wait(timeout=10) == 0
        finally:
            process.kill()
            process.communicate()
        state = json.loads(snapshot.read_text())
        assert state["depositions"][0]["id"] == 1
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"]


class TestQuotaAccounting:
    def test_private_total_never_exceeds_quota(self):
        import random

        rng = random.Random(7)
        config = ServiceConfig.figshare_like(per_file_limit=500, private_quota=2000)
        service = MockService(config)
        send = direct_sender(service)
        send("POST", "/api/v1/depositions", body=_create_body(private=True))
        for i in range(40):
            content = b"z" * rng.randint(1, 600)
            send(
                "POST",
                "/api/v1/depositions/1/files",
                headers={
                    "X-File-Name": f"f{i}.bin",
                    "X-File-SHA256": hashlib.sha256(content).hexdigest(),
                },
                body=content,
            )
            record = service.deposition_record(1)
            assert sum(f["size"] for f in record["files"]) <= config.private_quota
