from __future__ import annotations

import hashlib
import threading

import pytest

from geopub.errors import (
    AuthError,
    CapabilityNotSupportedError,
    ChecksumMismatchError,
    NetworkError,
    NotFoundError,
    QuotaError,
    ValidationError,
)
from geopub.manifest import ManifestEntry
from geopub.mock_service import Fault, ServiceConfig
from geopub.repo_protocol import (
    BackendProfile,
    DepositionMeta,
    DepositionState,
    RepositoryClient,
    author_service_id,
)
from geopub.vcs_info import AuthorRef


def entry_for(content: bytes, name: str = "file.bin") -> ManifestEntry:
    return ManifestEntry(
        path=None, name=name, size=len(content), sha256=hashlib.sha256(content).hexdigest()
    )


META = DepositionMeta(title="Orkney data", description="d", tags=("orkney", "qgis"))


class TestCreateDeposition:
    def test_create_returns_draft_with_reserved_doi(self, backend):
        deposition = backend.client().create_deposition(META)
        assert deposition.state is DepositionState.DRAFT
        assert deposition.doi_active is False
        assert deposition.id == 1
        assert deposition.doi == "10.5072/geopub.1"

    def test_empty_title_rejected(self, backend):
        with pytest.raises(ValidationError):
            backend.client().create_deposition(DepositionMeta(title="   "))

    def test_bad_token_rejected(self, make_backend):
        backend = make_backend(ServiceConfig.figshare_like(required_token="sesame"))
        good = RepositoryClient(
            BackendProfile("figshare-like", backend.profile.base_url, True, "sesame")
        )
        assert good.create_deposition(META).id == 1
        bad = RepositoryClient(
            BackendProfile("figshare-like", backend.profile.base_url, True, "wrong")
        )
        with pytest.raises(AuthError):
            bad.create_deposition(META)

    def test_empty_token_rejected(self, make_backend):
        backend = make_backend(token="")
        with pytest.raises(AuthError):
            backend.client().create_deposition(META)


class TestUploadFile:
    def test_round_trip_preserves_digest(self, backend):
        client = backend.client()
        deposition = client.create_deposition(META)
        content = b"netcdf bathymetry bytes"
        remote = client.upload_file(deposition.id, entry_for(content), content)
        assert remote.sha256 == hashlib.sha256(content).hexdigest()
        fetched = client.get_deposition(deposition.id)
        assert fetched.files[0].sha256 == remote.sha256
        assert fetched.files[0].size == len(content)

    def test_wrong_declared_digest_rejected(self, backend):
        client = backend.client()
        deposition = client.create_deposition(META)
        entry = entry_for(b"actual content")
        with pytest.raises(ChecksumMismatchError):
            client.upload_file(deposition.id, entry, b"different content")

    def test_per_file_limit_enforced(self, make_backend):
        backend = make_backend(ServiceConfig.figshare_like(per_file_limit=1024))
        client = backend.client()
        deposition = client.create_deposition(META)
        content = b"x" * 2048
        with pytest.raises(QuotaError):
            client.upload_file(deposition.id, entry_for(content), content)

    def test_private_total_quota_atomic_reject(self, make_backend):
        backend = make_backend(
            ServiceConfig.figshare_like(per_file_limit=1024, private_quota=1500)
        )
        client = backend.client()
        deposition = client.create_deposition(META, private=True)
        first = b"a" * 1000
        client.upload_file(deposition.id, entry_for(first, "a.bin"), first)
        second = b"b" * 1000
        with pytest.raises(QuotaError):
            client.upload_file(deposition.id, entry_for(second, "b.bin"), second)
        # The failed upload must not have changed server state.
        record = backend.service.deposition_record(deposition.id)
        assert [f["name"] for f in record["files"]] == ["a.bin"]

    def test_public_intent_has_no_total_quota(self, make_backend):
        backend = make_backend(
            ServiceConfig.figshare_like(per_file_limit=1024, private_quota=1500)
        )
        client = backend.client()
        deposition = client.create_deposition(META, private=False)
        for i in range(3):
            content = bytes([i]) * 1000
            client.upload_file(deposition.id, entry_for(content, f"f{i}.bin"), content)
        assert len(client.get_deposition(deposition.id).files) == 3

    def test_unknown_deposition_not_found(self, backend):
        with pytest.raises(NotFoundError):
            backend.client().upload_file(99, entry_for(b"x"), b"x")

    def test_upload_after_publish_rejected(self, backend):
        client = backend.client()
        deposition = client.create_deposition(META)
        client.upload_file(deposition.id, entry_for(b"x"), b"x")
        client.publish_deposition(deposition.id)
        with pytest.raises(ValidationError):
            client.upload_file(deposition.id, entry_for(b"y", "y.bin"), b"y")

    def test_concurrent_uploads_to_one_deposition(self, backend):
        client = backend.client()
        deposition = client.create_deposition(META)
        errors = []

        def upload(i: int):
            content = f"file number {i}".encode()
            try:
                client.upload_file(deposition.id, entry_for(content, f"f{i}.bin"), content)
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        threads = [threading.Thread(target=upload, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(client.get_deposition(deposition.id).files) == 8


class TestPublishAndMakePublic:
    def _draft_with_file(self, client):
        deposition = client.create_deposition(META)
        client.upload_file(deposition.id, entry_for(b"payload"), b"payload")
        return deposition

    def test_publish_public_activates_doi(self, backend):
        client = backend.client()
        deposition = self._draft_with_file(client)
        result = client.publish_deposition(deposition.id, private=False)
        assert result.doi_active is True
        assert result.doi == deposition.doi

    def test_publish_private_keeps_doi_reserved(self, backend):
        client = backend.client()
        deposition = self._draft_with_file(client)
        result = client.publish_deposition(deposition.id, private=True)
        assert result.doi_active is False
        assert result.doi == deposition.doi

    def test_publish_twice_rejected(self, backend):
        client = backend.client()
        deposition = self._draft_with_file(client)
        client.publish_deposition(deposition.id)
        with pytest.raises(ValidationError):
            client.publish_deposition(deposition.id)

    def test_publish_without_files_rejected(self, backend):
        client = backend.client()
        deposition = client.create_deposition(META)
        with pytest.raises(ValidationError):
            client.publish_deposition(deposition.id)

    def test_make_public_preserves_doi(self, backend):
        client = backend.client()
        deposition = self._draft_with_file(client)
        private = client.publish_deposition(deposition.id, private=True)
        public = client.make_public(deposition.id)
        assert public.doi == private.doi == deposition.doi
        assert public.doi_active is True

    def test_make_public_on_public_rejected(self, backend):
        client = backend.client()
        deposition = self._draft_with_file(client)
        client.publish_deposition(deposition.id)
        with pytest.raises(ValidationError):
            client.make_public(deposition.id)

    def test_make_public_unknown_id(self, backend):
        with pytest.raises(NotFoundError):
            backend.client().make_public(404)


class TestSearch:
    def test_finds_published_tag(self, backend):
        client = backend.client()
        deposition = client.create_deposition(META)
        client.upload_file(deposition.id, entry_for(b"x"), b"x")
        client.publish_deposition(deposition.id)
        hits = client.search_by_tag("orkney")
        assert [h.id for h in hits] == [deposition.id]
        assert hits[0].doi == deposition.doi

    def test_absent_tag_is_empty(self, backend):
        assert backend.client().search_by_tag("nothing-here") == []

    def test_drafts_are_not_findable(self, backend):
        client = backend.client()
        client.create_deposition(META)
        assert client.search_by_tag("orkney") == []

    def test_search_less_profile_fails_fast_without_request(self, make_backend):
        backend = make_backend(ServiceConfig.zenodo_like())
        client = backend.client()
        before = backend.service.request_count
        with pytest.raises(CapabilityNotSupportedError):
            client.search_by_tag("anything")
        assert backend.service.request_count == before

    def test_server_side_501_is_mapped(self, make_backend):
        backend = make_backend(ServiceConfig.zenodo_like())
        # A client that believes the backend can search still gets the
        # capability error from the wire.
        lying_profile = BackendProfile(
            "zenodo-like", backend.profile.base_url, True, "test-token"
        )
        with pytest.raises(CapabilityNotSupportedError):
            RepositoryClient(lying_profile).search_by_tag("anything")


class TestCollaborators:
    def _private(self, client):
        deposition = client.create_deposition(META, private=True)
        client.upload_file(deposition.id, entry_for(b"x"), b"x")
        client.publish_deposition(deposition.id, private=True)
        return deposition

    def test_limit_of_five_then_quota_error(self, backend):
        client = backend.client()
        deposition = self._private(client)
        for i in range(5):
            assert client.add_collaborator(deposition.id, f"person{i}") == i + 1
        with pytest.raises(QuotaError):
            client.add_collaborator(deposition.id, "person5")

    def test_duplicate_is_idempotent(self, backend):
        client = backend.client()
        deposition = self._private(client)
        assert client.add_collaborator(deposition.id, "alice") == 1
        assert client.add_collaborator(deposition.id, "alice") == 1

    def test_public_deposition_rejected(self, backend):
        client = backend.client()
        deposition = client.create_deposition(META)
        client.upload_file(deposition.id, entry_for(b"x"), b"x")
        client.publish_deposition(deposition.id)
        with pytest.raises(ValidationError):
            client.add_collaborator(deposition.id, "alice")


class TestRetryPolicy:
    def test_get_retried_then_network_error(self, backend):
        backend.service.inject_fault(Fault.http500(), on="search")
        client = backend.client()
        before = backend.service.request_count
        with pytest.raises(NetworkError):
            client.search_by_tag("anything")
        # Initial attempt plus three retries.
        assert backend.service.request_count == before + 4

    def test_upload_drop_not_retried(self, backend):
        client = backend.client()
        deposition = client.create_deposition(META)
        backend.service.inject_fault(Fault.drop(), on="upload")
        before = backend.service.request_count
        with pytest.raises(NetworkError):
            client.upload_file(deposition.id, entry_for(b"x"), b"x")
        assert backend.service.request_count == before + 1

    def test_post_500_not_retried(self, backend):
        backend.service.inject_fault(Fault.http500(), on="create")
        before = backend.service.request_count
        with pytest.raises(NetworkError):
            backend.client().create_deposition(META)
        assert backend.service.request_count == before + 1

    def test_clearing_faults_restores_service(self, backend):
        backend.service.inject_fault(Fault.http500(), on="create")
        client = backend.client()
        with pytest.raises(NetworkError):
            client.create_deposition(META)
        backend.service.clear_faults()
        assert client.create_deposition(META).id == 1

    def test_slow_start_still_succeeds(self, backend):
        backend.service.inject_fault(Fault.slow_start(20), on="create")
        assert backend.client().create_deposition(META).id == 1


class TestDoiImmutability:
    def test_every_observation_returns_same_doi(self, backend):
        client = backend.client()
        deposition = client.create_deposition(META, private=True)
        seen = {deposition.doi}
        content = b"bytes"
        client.upload_file(deposition.id, entry_for(content), content)
        seen.add(client.get_deposition(deposition.id).doi)
        seen.add(client.publish_deposition(deposition.id, private=True).doi)
        seen.add(client.get_deposition(deposition.id).doi)
        seen.add(client.make_public(deposition.id).doi)
        seen.add(client.get_deposition(deposition.id).doi)
        assert seen == {deposition.doi}


class TestAuthorWireMapping:
    def test_short_service_name_resolves_for_like_profiles(self):
        author = AuthorRef(name="Ada", service_ids={"figshare": "554577"})
        assert author_service_id(author, "figshare-like") == "554577"
        assert author_service_id(author, "zenodo-like") is None

    def test_exact_profile_name_wins(self):
        author = AuthorRef(name="Ada", service_ids={"figshare-like": "A", "figshare": "B"})
        assert author_service_id(author, "figshare-like") == "A"

    def test_authors_travel_to_server(self, backend):
        client = backend.client()
        meta = DepositionMeta(
            title="T",
            authors=(AuthorRef(name="Ada", service_ids={"figshare": "554577"}),),
        )
        deposition = client.create_deposition(meta)
        record = backend.service.deposition_record(deposition.id)
        assert record["authors"] == [{"name": "Ada", "id": "554577"}]
