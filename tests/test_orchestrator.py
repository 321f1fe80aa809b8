from __future__ import annotations

import json
import logging
import os
import subprocess
import sys
import tarfile
from pathlib import Path

import pytest

import geopub
from geopub.errors import (
    CacheCorruptError,
    CacheLockError,
    MissingFileError,
    NetworkError,
    ValidationError,
)
from geopub.manifest import build_manifest, checksum_file
from geopub.mock_service import Fault, ServiceConfig
from geopub.orchestrator import (
    DoiCache,
    DoiCacheRecord,
    build_source_archive,
    plan_data,
    publish_data,
    publish_software,
    version_tag,
)
from geopub.qgis_project import collect_datasources, parse_project
from geopub.vcs_info import detect_version


@pytest.fixture
def source_tree(tmp_path: Path) -> Path:
    tree = tmp_path / "meshtool"
    (tree / "src").mkdir(parents=True)
    (tree / "src" / "main.py").write_text("print('mesh')\n")
    (tree / "README").write_text("a mesh tool\n")
    (tree / "AUTHORS").write_text("Ada Lovelace <ada@example.org> figshare:554577\n")
    return tree


@pytest.fixture
def cache(tmp_path: Path) -> DoiCache:
    return DoiCache(tmp_path / "cache" / "doi_cache.json")


class TestPublishData:
    def test_end_to_end_against_mock(self, orkney, backend):
        result = publish_data(
            backend.profile, orkney.project, orkney.mesh, client=backend.client()
        )
        assert result.doi_active is True

        record = backend.service.deposition_record(result.publication_id)
        assert record["state"] == "public"

        project = parse_project(orkney.project)
        manifest = build_manifest(project, collect_datasources(project), orkney.mesh)
        assert [f["name"] for f in record["files"]] == [e.name for e in manifest.entries]
        assert [f["sha256"] for f in record["files"]] == [e.sha256 for e in manifest.entries]

    def test_private_keeps_doi_inactive(self, orkney, backend):
        result = publish_data(
            backend.profile, orkney.project, private=True, client=backend.client()
        )
        assert result.doi_active is False
        assert backend.service.deposition_record(result.publication_id)["state"] == "private"

    def test_missing_file_fails_before_any_network_traffic(self, orkney, backend):
        orkney.bathymetry.unlink()
        with pytest.raises(MissingFileError):
            publish_data(backend.profile, orkney.project, client=backend.client())
        assert backend.service.request_count == 0

    def test_upload_failure_abandons_draft(self, orkney, backend, caplog):
        backend.service.inject_fault(Fault.drop(), on="upload")
        with caplog.at_level(logging.ERROR, logger="geopub.orchestrator"):
            with pytest.raises(NetworkError):
                publish_data(backend.profile, orkney.project, client=backend.client())
        # The draft stays on the server for manual cleanup, and its id is
        # reported.
        assert backend.service.deposition_count() == 1
        assert backend.service.deposition_record(1)["state"] == "draft"
        assert any("1" in r.message and "draft" in r.message for r in caplog.records)

    def test_metadata_overrides_reach_server(self, orkney, backend):
        result = publish_data(
            backend.profile,
            orkney.project,
            title="Custom Title",
            description="Custom description.",
            client=backend.client(),
        )
        record = backend.service.deposition_record(result.publication_id)
        assert record["title"] == "Custom Title"
        assert record["description"] == "Custom description."

    def test_related_software_doi_tag_survives_publish(self, orkney, backend):
        result = publish_data(
            backend.profile,
            orkney.project,
            related_software_doi="10.5072/geopub.77",
            client=backend.client(),
        )
        record = backend.service.deposition_record(result.publication_id)
        assert "uses-software-doi:10.5072/geopub.77" in record["tags"]
        # The tag travels in the create request: create, uploads, publish.
        manifest = plan_data(orkney.project)
        assert backend.service.request_count == len(manifest.entries) + 2

    def test_blank_related_software_doi_rejected_before_any_request(self, orkney, backend):
        with pytest.raises(ValidationError):
            publish_data(
                backend.profile,
                orkney.project,
                related_software_doi="   ",
                client=backend.client(),
            )
        assert backend.service.request_count == 0
        assert backend.service.deposition_count() == 0


class TestPublishSoftware:
    def test_idempotent_on_searchable_backend(self, source_tree, backend):
        first = publish_software(backend.profile, source_tree, client=backend.client())
        second = publish_software(backend.profile, source_tree, client=backend.client())
        assert first.reused is False
        assert second.reused is True
        assert first.result.doi == second.result.doi
        assert backend.service.deposition_count() == 1

    def test_two_publications_without_search_or_cache(self, source_tree, make_backend):
        backend = make_backend(ServiceConfig.zenodo_like())
        first = publish_software(
            backend.profile, source_tree, client=backend.client()
        )
        second = publish_software(
            backend.profile, source_tree, client=backend.client()
        )
        assert backend.service.deposition_count() == 2
        assert first.result.doi != second.result.doi

    def test_cache_restores_idempotence_without_search(self, source_tree, make_backend, cache):
        backend = make_backend(ServiceConfig.zenodo_like())
        first = publish_software(
            backend.profile, source_tree, cache=cache, client=backend.client()
        )
        second = publish_software(
            backend.profile, source_tree, cache=cache, client=backend.client()
        )
        assert backend.service.deposition_count() == 1
        assert second.reused is True
        assert first.result.doi == second.result.doi

    def test_version_tag_and_archive_name_on_server(self, source_tree, backend):
        outcome = publish_software(backend.profile, source_tree, client=backend.client())
        version = detect_version(source_tree)
        record = backend.service.deposition_record(outcome.result.publication_id)
        assert version_tag(version) in record["tags"]
        assert record["files"][0]["name"] == f"meshtool-{version.id[:12]}.tar"

    def test_authors_file_feeds_deposition(self, source_tree, backend):
        outcome = publish_software(backend.profile, source_tree, client=backend.client())
        record = backend.service.deposition_record(outcome.result.publication_id)
        assert record["authors"] == [{"name": "Ada Lovelace", "id": "554577"}]

    def test_dirty_git_tree_gets_dirty_tag(self, source_tree, backend):
        _git(source_tree, "init", "-q")
        _git(source_tree, "add", ".")
        _git(source_tree, "commit", "-q", "-m", "initial")
        (source_tree / "README").write_text("edited\n")
        outcome = publish_software(backend.profile, source_tree, client=backend.client())
        assert outcome.version.dirty is True
        record = backend.service.deposition_record(outcome.result.publication_id)
        assert any(tag.endswith("-dirty") for tag in record["tags"])

    def test_stale_cache_record_triggers_republish(self, source_tree, make_backend, cache):
        backend = make_backend(ServiceConfig.zenodo_like())
        version = detect_version(source_tree)
        cache.put(
            DoiCacheRecord(
                backend_name=backend.profile.name,
                version_id=version.id,
                publication_id=999,
                doi="10.5072/geopub.999",
                created_at="2026-01-01T00:00:00+00:00",
            )
        )
        outcome = publish_software(
            backend.profile, source_tree, cache=cache, client=backend.client()
        )
        assert outcome.reused is False
        refreshed = cache.get(backend.profile.name, version.id)
        assert refreshed.publication_id == outcome.result.publication_id

    def test_cache_records_are_software_kind_only(self, source_tree, make_backend, cache):
        backend = make_backend(ServiceConfig.zenodo_like())
        publish_software(backend.profile, source_tree, cache=cache, client=backend.client())
        document = json.loads(cache.path.read_text())
        assert {r["artifact_kind"] for r in document["records"]} == {"software"}

    @pytest.mark.parametrize("searchable", [True, False], ids=["search", "cache"])
    def test_public_run_makes_private_publication_public(
        self, source_tree, make_backend, cache, searchable
    ):
        backend = make_backend(
            ServiceConfig.figshare_like() if searchable else ServiceConfig.zenodo_like()
        )
        first = publish_software(
            backend.profile, source_tree, private=True, cache=cache, client=backend.client()
        )
        second = publish_software(backend.profile, source_tree, cache=cache, client=backend.client())
        assert second.reused is True
        assert second.result.publication_id == first.result.publication_id
        assert second.result.doi == first.result.doi
        assert second.result.doi_active is True
        assert backend.service.deposition_record(first.result.publication_id)["state"] == "public"

    @pytest.mark.parametrize("searchable", [True, False], ids=["search", "cache"])
    def test_private_run_after_public_sends_no_make_public(
        self, source_tree, make_backend, cache, searchable
    ):
        backend = make_backend(
            ServiceConfig.figshare_like() if searchable else ServiceConfig.zenodo_like()
        )
        first = publish_software(backend.profile, source_tree, cache=cache, client=backend.client())
        # A make_public request would now fail the run.
        backend.service.inject_fault(Fault.http500(), on="make_public")
        second = publish_software(
            backend.profile, source_tree, private=True, cache=cache, client=backend.client()
        )
        assert second.reused is True
        assert second.result == first.result

    def test_private_software_publication(self, source_tree, backend):
        outcome = publish_software(
            backend.profile, source_tree, private=True, client=backend.client()
        )
        assert outcome.result.doi_active is False


class TestDoiCache:
    def _record(self, version="v1", doi="10.5072/geopub.1", publication_id=1):
        return DoiCacheRecord(
            backend_name="zenodo-like",
            version_id=version,
            publication_id=publication_id,
            doi=doi,
            created_at="2026-01-01T00:00:00+00:00",
        )

    def test_get_on_missing_cache_is_none(self, cache):
        assert cache.get("zenodo-like", "v1") is None

    def test_put_then_get_round_trip(self, cache):
        record = self._record()
        cache.put(record)
        assert cache.get("zenodo-like", "v1") == record

    def test_put_overwrites_same_key(self, cache):
        cache.put(self._record(doi="10.5072/geopub.1", publication_id=1))
        cache.put(self._record(doi="10.5072/geopub.2", publication_id=2))
        found = cache.get("zenodo-like", "v1")
        assert found.publication_id == 2
        document = json.loads(cache.path.read_text())
        assert len(document["records"]) == 1

    def test_file_written_by_earlier_versions_round_trips(self, cache):
        # The exact bytes that earlier versions, with their artifact-kind
        # enum, wrote for this record.
        written = (
            '{\n  "records": [\n    {\n      "backend_name": "zenodo-like",\n'
            '      "artifact_kind": "software",\n      "version_id": "v1",\n'
            '      "publication_id": 1,\n      "doi": "10.5072/geopub.1",\n'
            '      "created_at": "2026-01-01T00:00:00+00:00"\n    }\n  ]\n}'
        )
        cache.path.parent.mkdir(parents=True, exist_ok=True)
        cache.path.write_text(written)
        assert cache.get("zenodo-like", "v1") == self._record()
        cache.put(self._record())
        assert cache.path.read_text() == written

    def test_record_of_another_kind_aborts(self, cache):
        cache.put(self._record())
        cache.path.write_text(cache.path.read_text().replace('"software"', '"data"'))
        with pytest.raises(CacheCorruptError):
            cache.get("zenodo-like", "v1")

    def test_truncated_cache_file_aborts(self, cache):
        cache.path.parent.mkdir(parents=True, exist_ok=True)
        cache.path.write_text('{"records": [{"backend_name": "x"')
        with pytest.raises(CacheCorruptError):
            cache.get("zenodo-like", "v1")
        with pytest.raises(CacheCorruptError):
            cache.put(self._record())

    def test_lock_contention_fails_fast(self, cache):
        other = DoiCache(cache.path)
        with cache.lock():
            with pytest.raises(CacheLockError):
                with other.lock():
                    pass

    def test_publish_software_fails_fast_when_locked(
        self, source_tree, make_backend, cache
    ):
        backend = make_backend(ServiceConfig.zenodo_like())
        with DoiCache(cache.path).lock():
            with pytest.raises(CacheLockError):
                publish_software(
                    backend.profile, source_tree, cache=cache, client=backend.client()
                )

    def test_lock_released_after_use(self, cache):
        with cache.lock():
            pass
        with cache.lock():
            pass

    def test_lock_freed_when_holder_crashes(self, source_tree, make_backend, cache):
        # A child process takes the lock and dies without leaving the block.
        holder = (
            "import os, sys\n"
            "from geopub.orchestrator import DoiCache\n"
            "with DoiCache(sys.argv[1]).lock():\n"
            "    os._exit(17)\n"
        )
        package_root = Path(geopub.__file__).resolve().parents[1]
        path = [str(package_root), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        child = subprocess.run(
            [sys.executable, "-c", holder, str(cache.path)], env=env, timeout=60
        )
        assert child.returncode == 17

        backend = make_backend(ServiceConfig.zenodo_like())
        outcome = publish_software(
            backend.profile, source_tree, cache=cache, client=backend.client()
        )
        assert outcome.reused is False
        assert cache.get(backend.profile.name, outcome.version.id)


def _git(repo: Path, *args: str) -> None:
    subprocess.run(
        ["git", "-C", str(repo), "-c", "user.email=t@example.org", "-c", "user.name=T", *args],
        capture_output=True,
        check=True,
    )


class TestSourceArchive:
    def test_two_builds_are_byte_identical(self, source_tree, tmp_path):
        a = build_source_archive(source_tree, tmp_path / "a", "abcdef123456")
        b = build_source_archive(source_tree, tmp_path / "b", "abcdef123456")
        assert a.read_bytes() == b.read_bytes()

    def test_invariant_under_listing_order(self, source_tree, tmp_path, monkeypatch):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        normal = build_source_archive(source_tree, tmp_path / "a", "v")

        real_walk = os.walk

        def reversed_walk(top, **kwargs):
            for dirpath, dirnames, filenames in real_walk(top, **kwargs):
                dirnames.reverse()
                filenames.reverse()
                yield dirpath, dirnames, filenames

        monkeypatch.setattr(os, "walk", reversed_walk)
        shuffled = build_source_archive(source_tree, tmp_path / "b", "v")
        assert normal.read_bytes() == shuffled.read_bytes()

    def test_members_are_rooted_and_complete(self, source_tree, tmp_path):
        archive = build_source_archive(source_tree, tmp_path, "deadbeef0000")
        with tarfile.open(archive) as tar:
            names = tar.getnames()
            assert sorted(names) == [
                "meshtool/AUTHORS",
                "meshtool/README",
                "meshtool/src/main.py",
            ]
            extracted = tar.extractfile("meshtool/src/main.py").read()
        assert extracted == (source_tree / "src" / "main.py").read_bytes()

    def test_vcs_metadata_excluded(self, source_tree, tmp_path):
        _git(source_tree, "init", "-q")
        _git(source_tree, "add", ".")
        _git(source_tree, "commit", "-q", "-m", "x")
        archive = build_source_archive(source_tree, tmp_path, "v")
        with tarfile.open(archive) as tar:
            assert not any(".git" in name for name in tar.getnames())

    def test_content_change_changes_bytes(self, source_tree, tmp_path):
        before = build_source_archive(source_tree, tmp_path / "a", "v").read_bytes()
        (source_tree / "README").write_text("changed\n")
        after = build_source_archive(source_tree, tmp_path / "b", "v").read_bytes()
        assert before != after

    def test_archive_checksum_matches_manifest_checksum(self, source_tree, tmp_path):
        archive = build_source_archive(source_tree, tmp_path, "v")
        # Independent digest of the archive bytes.
        import hashlib

        assert checksum_file(archive) == hashlib.sha256(archive.read_bytes()).hexdigest()
