from __future__ import annotations

import builtins
import errno
import gc
import hashlib
import io
import json
import logging
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import write_project
from test_vcs_info import BATCH_TREES, _noise, _reference_tree_hash, _write_files

import geopub
from geopub import manifest, orchestrator, vcs_info
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
)
from geopub.qgis_project import collect_datasources, parse_project
from geopub.repo_protocol import RepositoryClient
from geopub.vcs_info import BATCH, detect_version


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
        result = publish_data(backend.profile, orkney.project, orkney.mesh)
        assert result.doi_active is True

        record = backend.service.deposition_record(result.publication_id)
        assert record["state"] == "public"

        project = parse_project(orkney.project)
        manifest = build_manifest(project, collect_datasources(project), orkney.mesh)
        assert [f["name"] for f in record["files"]] == [e.name for e in manifest.entries]
        assert [f["sha256"] for f in record["files"]] == [e.sha256 for e in manifest.entries]

    def test_private_keeps_doi_inactive(self, orkney, backend):
        result = publish_data(backend.profile, orkney.project, private=True)
        assert result.doi_active is False
        assert backend.service.deposition_record(result.publication_id)["state"] == "private"

    def test_missing_file_fails_before_any_network_traffic(self, orkney, backend):
        orkney.bathymetry.unlink()
        with pytest.raises(MissingFileError):
            publish_data(backend.profile, orkney.project)
        assert backend.service.request_count == 0

    def test_upload_failure_abandons_draft(self, orkney, backend, caplog):
        backend.service.inject_fault(Fault.drop(), on="upload")
        with caplog.at_level(logging.ERROR, logger="geopub.orchestrator"):
            with pytest.raises(NetworkError):
                publish_data(backend.profile, orkney.project)
        # The draft stays on the server for manual cleanup, and its id is
        # reported.
        assert backend.service.deposition_count() == 1
        assert backend.service.deposition_record(1)["state"] == "draft"
        assert any("1" in r.message and "draft" in r.message for r in caplog.records)

    def test_any_failure_after_create_reports_draft(self, orkney, backend, monkeypatch, caplog):
        delete_after_create(monkeypatch, orkney.bathymetry)
        with caplog.at_level(logging.ERROR, logger="geopub.orchestrator"):
            with pytest.raises(FileNotFoundError):
                publish_data(backend.profile, orkney.project)
        assert backend.service.deposition_record(1)["state"] == "draft"
        assert any("draft deposition 1 was left" in r.getMessage() for r in caplog.records)

    def test_metadata_overrides_reach_server(self, orkney, backend):
        result = publish_data(
            backend.profile,
            orkney.project,
            title="Custom Title",
            description="Custom description.",
        )
        record = backend.service.deposition_record(result.publication_id)
        assert record["title"] == "Custom Title"
        assert record["description"] == "Custom description."

    def test_related_software_doi_tag_survives_publish(self, orkney, backend):
        result = publish_data(
            backend.profile,
            orkney.project,
            related_software_doi="10.5072/geopub.77",
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
            )
        assert backend.service.request_count == 0
        assert backend.service.deposition_count() == 0

    @pytest.mark.parametrize("name", ["地図.tif", "a b.tif", "100%.tif"])
    def test_file_publishes_under_its_own_name(self, tmp_path, backend, name):
        (tmp_path / name).write_bytes(b"II*\0raster")
        project = write_project(tmp_path / "map.qgs", [("map", f"./{name}")])
        result = publish_data(backend.profile, project)
        record = backend.service.deposition_record(result.publication_id)
        assert [f["name"] for f in record["files"]] == ["map.qgs", name]


class TestPlanReachesServer:
    """The server records exactly the metadata of the manifest a flow
    deposits."""

    @pytest.fixture
    def deposited(self, monkeypatch) -> list:
        manifests = []
        deposit = orchestrator._deposit

        def spy(client, manifest, **kwargs):
            manifests.append(manifest)
            return deposit(client, manifest, **kwargs)

        monkeypatch.setattr(orchestrator, "_deposit", spy)
        return manifests

    @staticmethod
    def _assert_recorded(backend, publication_id, meta):
        record = backend.service.deposition_record(publication_id)
        assert record["title"] == meta.title
        assert record["description"] == meta.description
        assert record["tags"] == list(meta.tags)
        assert [author["name"] for author in record["authors"]] == [a.name for a in meta.authors]

    def test_data(self, orkney, backend, deposited):
        doi = "10.5072/geopub.77"
        result = publish_data(backend.profile, orkney.project, orkney.mesh, related_software_doi=doi)
        [manifest] = deposited
        assert manifest == plan_data(orkney.project, orkney.mesh, related_software_doi=doi)
        assert manifest.meta.tags[-1] == f"uses-software-doi:{doi}"
        self._assert_recorded(backend, result.publication_id, manifest.meta)

    def test_fresh_software(self, source_tree, backend, deposited):
        outcome = publish_software(backend.profile, source_tree)
        [manifest] = deposited
        assert outcome.reused is False
        assert [a.name for a in manifest.meta.authors] == ["Ada Lovelace"]
        self._assert_recorded(backend, outcome.result.publication_id, manifest.meta)


MB = 1024 * 1024


def _grid_project(root: Path, sizes: list[int]) -> Path:
    """A project with one data file of each size, in that order, each of
    distinct bytes."""
    layers = []
    for i, size in enumerate(sizes):
        (root / f"grid{i}.nc").write_bytes(bytes([i]) * size)
        layers.append((f"grid {i}", f"./grid{i}.nc"))
    return write_project(root / "grids.qgs", layers)


def _wait_for_thread_count(expected: int, timeout: float = 5.0) -> int:
    """The number of live threads once it is ``expected``, or when
    ``timeout`` seconds have passed."""
    deadline = time.monotonic() + timeout
    while threading.active_count() != expected and time.monotonic() < deadline:
        time.sleep(0.01)
    return threading.active_count()


class TestUploadPool:
    """Files of at least 1 MiB upload side by side, one thread per
    processor the process may run on; smaller ones upload in manifest order
    on the calling thread."""

    @pytest.fixture(autouse=True)
    def two_processors(self, monkeypatch):
        monkeypatch.setattr(vcs_info, "_usable_processors", lambda: 2)

    def test_large_files_upload_side_by_side(self, tmp_path, backend, monkeypatch):
        project = _grid_project(tmp_path, [2 * MB] * 3)
        lock, overlapped = threading.Lock(), threading.Event()
        in_flight = [0]
        handle = backend.service.handle_request

        def counting_handle(method, path, headers, body):
            if not path.endswith("/files"):
                return handle(method, path, headers, body)
            with lock:
                in_flight[0] += 1
                if in_flight[0] >= 2:
                    overlapped.set()
            try:
                # Hold the first upload until a second one arrives; one at a
                # time, none ever does.
                overlapped.wait(timeout=5)
                return handle(method, path, headers, body)
            finally:
                with lock:
                    in_flight[0] -= 1

        monkeypatch.setattr(backend.service, "handle_request", counting_handle)
        result = publish_data(backend.profile, project)
        assert overlapped.is_set(), "no two uploads were in flight at once"
        record = backend.service.deposition_record(result.publication_id)
        expected = plan_data(project).entries
        assert sorted((f["name"], f["sha256"]) for f in record["files"]) == sorted(
            (e.name, e.sha256) for e in expected
        )

    def test_more_workers_than_cores_store_each_file_once(self, tmp_path, backend, monkeypatch):
        monkeypatch.setattr(vcs_info, "_usable_processors", lambda: 4)
        project = _grid_project(tmp_path, [MB, 10, 2 * MB, 20, MB + 1, 3 * MB, 30, MB])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            result = publish_data(backend.profile, project)
        finally:
            sys.setswitchinterval(interval)
        files = backend.service.deposition_record(result.publication_id)["files"]
        entries = plan_data(project).entries
        assert sorted(f["file_id"] for f in files) == list(range(1, len(entries) + 1))
        assert sorted((f["name"], f["size"], f["sha256"]) for f in files) == sorted(
            (e.name, e.size, e.sha256) for e in entries
        )

    @pytest.mark.parametrize("large", [False, True], ids=["small-only", "one-large"])
    def test_without_two_large_files_uploads_in_manifest_order(
        self, orkney, backend, monkeypatch, large
    ):
        if large:
            orkney.bathymetry.write_bytes(b"CDF\x01" * (MB // 2))
        pools = _count_calls(monkeypatch, manifest, "ThreadPoolExecutor")
        result = publish_data(backend.profile, orkney.project, orkney.mesh)
        names = [e.name for e in plan_data(orkney.project, orkney.mesh).entries]
        record = backend.service.deposition_record(result.publication_id)
        assert [(f["file_id"], f["name"]) for f in record["files"]] == list(
            enumerate(names, start=1)
        )
        assert pools == []

    def test_failed_pooled_upload_stops_the_rest(self, tmp_path, backend, monkeypatch, caplog):
        project = _grid_project(tmp_path, [2 * MB] * 6)
        backend.service.inject_fault(Fault.drop(), on="upload")
        started = []
        upload_file = RepositoryClient.upload_file

        def recording_upload(client, deposition_id, entry, content):
            started.append(entry.name)
            return upload_file(client, deposition_id, entry, content)

        monkeypatch.setattr(RepositoryClient, "upload_file", recording_upload)
        threads = threading.active_count()
        with caplog.at_level(logging.ERROR, logger="geopub.orchestrator"):
            with pytest.raises(NetworkError) as excinfo:
                publish_data(backend.profile, project)
        assert type(excinfo.value) is NetworkError
        left = [r for r in caplog.records if "draft deposition 1 was left" in r.getMessage()]
        assert len(left) == 1
        # Every upload fails, so each thread that uploads (the calling one
        # and two workers) starts at most one: the seven entries are never
        # all tried.
        assert len(started) <= 3
        assert backend.service.deposition_record(1)["files"] == []
        # The client, and with it its connections, goes with the traceback;
        # a socket left unclosed would raise its ResourceWarning here.
        del excinfo
        gc.collect()
        assert _wait_for_thread_count(threads) == threads


class TestPublishSoftware:
    def test_non_latin1_root_publishes_under_its_own_name(self, tmp_path, backend):
        tree = tmp_path / "地図tool"
        _write_tree(tree, [("main.py", b"print('map')\n", False)])
        outcome = publish_software(backend.profile, tree)
        record = backend.service.deposition_record(outcome.result.publication_id)
        assert [f["name"] for f in record["files"]] == [f"地図tool-{outcome.version.id[:12]}.tar"]

    def test_idempotent_on_searchable_backend(self, source_tree, backend):
        first = publish_software(backend.profile, source_tree)
        second = publish_software(backend.profile, source_tree)
        assert first.reused is False
        assert second.reused is True
        assert first.result.doi == second.result.doi
        assert backend.service.deposition_count() == 1

    def test_two_publications_without_search_or_cache(self, source_tree, make_backend):
        backend = make_backend(ServiceConfig.zenodo_like())
        first = publish_software(backend.profile, source_tree)
        second = publish_software(backend.profile, source_tree)
        assert backend.service.deposition_count() == 2
        assert first.result.doi != second.result.doi

    def test_cache_restores_idempotence_without_search(self, source_tree, make_backend, cache):
        backend = make_backend(ServiceConfig.zenodo_like())
        first = publish_software(backend.profile, source_tree, cache=cache)
        second = publish_software(backend.profile, source_tree, cache=cache)
        assert backend.service.deposition_count() == 1
        assert second.reused is True
        assert first.result.doi == second.result.doi

    def test_version_tag_and_archive_name_on_server(self, source_tree, backend):
        outcome = publish_software(backend.profile, source_tree)
        version = detect_version(source_tree)
        record = backend.service.deposition_record(outcome.result.publication_id)
        assert version.tag in record["tags"]
        assert record["files"][0]["name"] == f"meshtool-{version.id[:12]}.tar"

    def test_authors_file_feeds_deposition(self, source_tree, backend):
        outcome = publish_software(backend.profile, source_tree)
        record = backend.service.deposition_record(outcome.result.publication_id)
        assert record["authors"] == [{"name": "Ada Lovelace", "id": "554577"}]

    def test_dirty_git_tree_gets_tree_hash_tag(self, source_tree, backend):
        _commit_all(source_tree)
        (source_tree / "README").write_text("edited\n")
        outcome = publish_software(backend.profile, source_tree)
        assert outcome.version.dirty is True
        digest = _reference_tree_hash(source_tree)
        assert outcome.version.id == digest
        record = backend.service.deposition_record(outcome.result.publication_id)
        tag = f"version:treehash:{digest}"
        assert tag == outcome.version.tag
        assert record["tags"] == [tag, "meshtool"]
        assert record["title"] == f"meshtool source ({digest[:12]})"

    @pytest.mark.parametrize("searchable", [True, False], ids=["search", "cache"])
    def test_second_edit_of_dirty_tree_gets_new_deposition(
        self, source_tree, make_backend, cache, searchable
    ):
        backend = make_backend(
            ServiceConfig.figshare_like() if searchable else ServiceConfig.zenodo_like()
        )
        _commit_all(source_tree)
        (source_tree / "README").write_text("first edit\n")
        first = publish_software(backend.profile, source_tree, cache=cache)
        (source_tree / "README").write_text("second edit\n")
        second = publish_software(backend.profile, source_tree, cache=cache)
        assert second.reused is False
        assert second.result.doi != first.result.doi
        assert backend.service.deposition_count() == 2

    @pytest.mark.parametrize("dirty", [False, True], ids=["clean", "dirty"])
    def test_untracked_directory_in_working_tree_is_refused(
        self, source_tree, backend, dirty
    ):
        _commit_all(source_tree)
        if dirty:
            (source_tree / "README").write_text("edited\n")
        nested = source_tree / "newproj"
        nested.mkdir()
        (nested / "main.py").write_text("print('new')\n")
        with pytest.raises(FileNotFoundError, match="git tracks no file"):
            publish_software(backend.profile, nested)
        assert backend.service.deposition_count() == 0

    @pytest.mark.parametrize("searchable", [True, False], ids=["search", "cache"])
    def test_same_dirty_state_reuses_deposition(
        self, source_tree, make_backend, cache, searchable
    ):
        backend = make_backend(
            ServiceConfig.figshare_like() if searchable else ServiceConfig.zenodo_like()
        )
        _commit_all(source_tree)
        (source_tree / "README").write_text("edited\n")
        first = publish_software(backend.profile, source_tree, cache=cache)
        second = publish_software(backend.profile, source_tree, cache=cache)
        assert second.reused is True
        assert second.result.doi == first.result.doi
        assert backend.service.deposition_count() == 1

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
        outcome = publish_software(backend.profile, source_tree, cache=cache)
        assert outcome.reused is False
        refreshed = cache.get(backend.profile.name, version.id)
        assert refreshed.publication_id == outcome.result.publication_id

    def test_cache_hit_on_another_deposition_triggers_republish(
        self, source_tree, tmp_path, make_backend, cache, caplog
    ):
        first = publish_software(
            make_backend(ServiceConfig.zenodo_like()).profile, source_tree, cache=cache
        )
        # The server restarts without its state, and another tree takes id 1.
        backend = make_backend(ServiceConfig.zenodo_like())
        other_tree = tmp_path / "other"
        other_tree.mkdir()
        (other_tree / "main.py").write_text("print('other')\n")
        other = publish_software(backend.profile, other_tree)
        assert first.result.publication_id == other.result.publication_id == 1
        with caplog.at_level(logging.WARNING, logger="geopub.orchestrator"):
            outcome = publish_software(backend.profile, source_tree, cache=cache)
        assert outcome.reused is False
        assert outcome.result.publication_id == 2
        assert outcome.result.doi != other.result.doi
        version = detect_version(source_tree)
        assert cache.get(backend.profile.name, version.id).publication_id == 2
        assert any("does not carry" in r.getMessage() for r in caplog.records)

    def test_cache_record_of_clean_commit_keeps_its_key(self, source_tree, make_backend, cache):
        backend = make_backend(ServiceConfig.zenodo_like())
        _commit_all(source_tree)
        head = _git(source_tree, "rev-parse", "HEAD")
        published = publish_software(backend.profile, source_tree)
        # A record keyed by the bare head commit, as every earlier version wrote it.
        cache.put(
            DoiCacheRecord(
                backend_name=backend.profile.name,
                version_id=head,
                publication_id=published.result.publication_id,
                doi=published.result.doi,
                created_at="2026-01-01T00:00:00+00:00",
            )
        )
        outcome = publish_software(backend.profile, source_tree, cache=cache)
        assert outcome.reused is True
        assert outcome.result.doi == published.result.doi

    def test_cache_records_are_software_kind_only(self, source_tree, make_backend, cache):
        backend = make_backend(ServiceConfig.zenodo_like())
        publish_software(backend.profile, source_tree, cache=cache)
        document = json.loads(cache.path.read_text())
        assert {r["artifact_kind"] for r in document["records"]} == {"software"}

    @pytest.mark.parametrize("searchable", [True, False], ids=["search", "cache"])
    def test_public_run_makes_private_publication_public(
        self, source_tree, make_backend, cache, searchable
    ):
        backend = make_backend(
            ServiceConfig.figshare_like() if searchable else ServiceConfig.zenodo_like()
        )
        first = publish_software(backend.profile, source_tree, private=True, cache=cache)
        second = publish_software(backend.profile, source_tree, cache=cache)
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
        first = publish_software(backend.profile, source_tree, cache=cache)
        # A make_public request would now fail the run.
        backend.service.inject_fault(Fault.http500(), on="make_public")
        second = publish_software(backend.profile, source_tree, private=True, cache=cache)
        assert second.reused is True
        assert second.result == first.result

    def test_private_software_publication(self, source_tree, backend):
        outcome = publish_software(backend.profile, source_tree, private=True)
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

    def test_put_syncs_file_before_rename_and_directory_after(self, cache, durability_log):
        cache.put(self._record())
        assert durability_log == ["fsync file", "replace", "fsync directory"]

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
                publish_software(backend.profile, source_tree, cache=cache)

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
        outcome = publish_software(backend.profile, source_tree, cache=cache)
        assert outcome.reused is False
        assert cache.get(backend.profile.name, outcome.version.id)


def _git(repo: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(repo), "-c", "user.email=t@example.org", "-c", "user.name=T", *args],
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()


def _commit_all(repo: Path) -> None:
    _git(repo, "init", "-q")
    _git(repo, "add", ".")
    _git(repo, "commit", "-q", "-m", "initial")


def _archive(source_dir: Path, dest_dir: Path) -> Path:
    return build_source_archive(detect_version(source_dir), dest_dir)


def _tarfile_archive(source_dir: Path) -> bytes:
    """The archive of ``source_dir`` as ``tarfile.GNU_FORMAT`` writes it: the
    oracle for the bytes of :func:`build_source_archive`."""
    version = detect_version(source_dir)
    buffer = io.BytesIO()
    with tarfile.open(fileobj=buffer, mode="w", format=tarfile.GNU_FORMAT) as tar:
        for path, relative in version.files():
            stat = os.stat(path)
            info = tarfile.TarInfo(name=f"{version.source_dir.name}/{os.fsdecode(relative)}")
            info.size = stat.st_size
            info.mtime = 0
            info.mode = 0o755 if stat.st_mode & 0o100 else 0o644
            info.uid = info.gid = 0
            info.uname = info.gname = ""
            with open(path, "rb") as handle:
                tar.addfile(info, handle)
    return buffer.getvalue()


def _write_tree(root: Path, files) -> None:
    """Write each (relative path, content, executable) of ``files`` under
    ``root``; a path is a ``str`` or its raw ``bytes``."""
    for relative, content, executable in files:
        path = root / os.fsdecode(relative)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(content)
        path.chmod(0o755 if executable else 0o644)


def shrink_after_fstat(monkeypatch, path: Path, size: int = 10) -> None:
    """Truncate ``path`` to ``size`` bytes as soon as an open handle of it is
    stat'ed: the file shrinks between its ``fstat`` and its read."""
    real_fstat = os.fstat
    inode = path.stat().st_ino

    def fstat(fd):
        result = real_fstat(fd)
        if result.st_ino == inode:
            os.truncate(path, size)
        return result

    monkeypatch.setattr(os, "fstat", fstat)


#: Path segments that put multibyte UTF-8 characters at every byte offset.
_segment = st.text(alphabet="abzAZ09-_.é€𝄞", min_size=1, max_size=60)


@st.composite
def _trees(draw):
    """Up to five files, up to three directories deep, of up to 2000 bytes.
    A directory segment starts with ``d`` and a file name with ``f``, so no
    path is both a file and a directory."""
    files = draw(
        st.lists(
            st.tuples(
                st.lists(_segment.map("d".__add__), max_size=3),
                _segment.map("f".__add__),
                st.binary(max_size=2000),
                st.booleans(),
            ),
            min_size=1,
            max_size=5,
            unique_by=lambda file: "/".join([*file[0], file[1]]),
        )
    )
    return [
        ("/".join([*dirs, name]), content, executable)
        for dirs, name, content, executable in files
    ]


class TestSourceArchive:
    def test_two_builds_are_byte_identical(self, source_tree, tmp_path):
        a = _archive(source_tree, tmp_path / "a")
        b = _archive(source_tree, tmp_path / "b")
        assert a.read_bytes() == b.read_bytes()

    def test_invariant_under_listing_order(self, source_tree, tmp_path, reverse_listing):
        normal = _archive(source_tree, tmp_path / "a")
        reverse_listing()
        shuffled = _archive(source_tree, tmp_path / "b")
        assert normal.read_bytes() == shuffled.read_bytes()

    def test_members_are_rooted_and_complete(self, source_tree, tmp_path):
        archive = _archive(source_tree, tmp_path)
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
        _commit_all(source_tree)
        archive = _archive(source_tree, tmp_path)
        with tarfile.open(archive) as tar:
            assert not any(".git" in name for name in tar.getnames())

    def test_commit_archive_holds_tracked_files_only(self, source_tree, tmp_path):
        (source_tree / ".gitignore").write_text("build/\n")
        _commit_all(source_tree)
        (source_tree / ".env").write_text("API_TOKEN=local-secret\n")
        (source_tree / "build").mkdir()
        (source_tree / "build" / "x.o").write_bytes(b"\x7fELF")
        version = detect_version(source_tree)
        assert version.dirty is False
        with tarfile.open(build_source_archive(version, tmp_path)) as tar:
            assert sorted(tar.getnames()) == [
                "meshtool/.gitignore",
                "meshtool/AUTHORS",
                "meshtool/README",
                "meshtool/src/main.py",
            ]

    def test_commit_archive_skips_symlinks_and_deleted_files(self, source_tree, tmp_path):
        (source_tree / "link").symlink_to("README")
        _commit_all(source_tree)
        (source_tree / "AUTHORS").unlink()
        version = detect_version(source_tree)
        assert version.dirty is True
        with tarfile.open(build_source_archive(version, tmp_path)) as tar:
            assert sorted(tar.getnames()) == ["meshtool/README", "meshtool/src/main.py"]

    def test_unmerged_paths_are_archived_once(self, source_tree, tmp_path):
        _commit_all(source_tree)
        _git(source_tree, "checkout", "-q", "-b", "other")
        (source_tree / "README").write_text("other\n")
        _git(source_tree, "commit", "-q", "-am", "other")
        _git(source_tree, "checkout", "-q", "-")
        (source_tree / "README").write_text("main\n")
        _git(source_tree, "commit", "-q", "-am", "main")
        with pytest.raises(subprocess.CalledProcessError):
            _git(source_tree, "merge", "-q", "other")
        version = detect_version(source_tree)
        assert version.dirty is True
        with tarfile.open(build_source_archive(version, tmp_path)) as tar:
            assert tar.getnames() == [
                "meshtool/AUTHORS",
                "meshtool/README",
                "meshtool/src/main.py",
            ]

    def test_clones_of_one_commit_give_identical_archives(self, source_tree, tmp_path):
        _commit_all(source_tree)
        clones = [tmp_path / side / "meshtool" for side in ("a", "b")]
        for clone in clones:
            subprocess.run(
                ["git", "clone", "-q", str(source_tree), str(clone)],
                capture_output=True,
                check=True,
            )
        (clones[1] / "notes.txt").write_text("untracked\n")
        a, b = (_archive(clone, tmp_path / "out" / clone.parent.name) for clone in clones)
        assert a.name == b.name
        assert a.read_bytes() == b.read_bytes()

    def test_content_change_changes_bytes(self, source_tree, tmp_path):
        before = _archive(source_tree, tmp_path / "a").read_bytes()
        (source_tree / "README").write_text("changed\n")
        after = _archive(source_tree, tmp_path / "b").read_bytes()
        assert before != after

    def test_archive_checksum_matches_manifest_checksum(self, source_tree, tmp_path):
        archive = _archive(source_tree, tmp_path)
        # Independent digest of the archive bytes.
        assert checksum_file(archive) == hashlib.sha256(archive.read_bytes()).hexdigest()

    def test_digest_is_fed_every_byte_written(self, source_tree, tmp_path):
        digest = hashlib.sha256()
        archive = build_source_archive(detect_version(source_tree), tmp_path, digest=digest)
        assert digest.hexdigest() == hashlib.sha256(archive.read_bytes()).hexdigest()

    @pytest.mark.parametrize(
        "files",
        [
            # "meshtool/" takes 9 bytes of each member name.
            [("n" * 91, b"exactly 100", False)],
            [("n" * 92, b"101: a LongLink first", False)],
            [("d" * 200 + "/" + "e" * 200 + "/" + "n" * 100, b"511: one LongLink block", False)],
            [("n" * 90 + "é" + "n" * 20, b"a character across byte 100", False)],
            [("empty", b"", False)],
            [("blocks", b"b" * 2048, False)],
            [("grid.bin", bytes(range(256)) * 12 * 1024 + b"odd end", False)],
            [("run.sh", b"#!/bin/sh\n", True), ("lib.sh", b"true\n", False)],
        ],
        ids=[
            "name-100",
            "name-101",
            "name-511",
            "utf8-across-100",
            "empty-file",
            "size-multiple-of-512",
            "3mb-several-chunks",
            "exec-bit",
        ],
    )
    def test_bytes_match_tarfile_gnu_format(self, tmp_path, files):
        tree = tmp_path / "meshtool"
        _write_tree(tree, files)
        archive = _archive(tree, tmp_path / "out")
        assert archive.read_bytes() == _tarfile_archive(tree)

    @settings(max_examples=25, deadline=None)
    @given(files=_trees())
    def test_bytes_match_tarfile_gnu_format_on_any_tree(self, files):
        with tempfile.TemporaryDirectory() as scratch:
            tree = Path(scratch) / "meshtool"
            _write_tree(tree, files)
            archive = _archive(tree, Path(scratch) / "out")
            assert archive.read_bytes() == _tarfile_archive(tree)

    @pytest.mark.parametrize("under_git", [False, True], ids=["plain", "git"])
    def test_non_utf8_file_name_publishes_with_its_raw_bytes(
        self, source_tree, backend, tmp_path, under_git
    ):
        _write_tree(source_tree, [(b"caf\xe9.txt", b"menu\n", False)])
        if under_git:
            _commit_all(source_tree)
        outcome = publish_software(backend.profile, source_tree)
        assert outcome.reused is False
        archive = _archive(source_tree, tmp_path / "out")
        with tarfile.open(archive) as tar:
            names = [os.fsencode(name) for name in tar.getnames()]
        assert b"meshtool/caf\xe9.txt" in names
        assert archive.read_bytes() == _tarfile_archive(source_tree)

    def test_dirty_tree_lists_a_non_utf8_name_as_its_raw_bytes(self, source_tree, tmp_path):
        _write_tree(
            source_tree, [(b"caf\xe9.txt", b"menu\n", False), ("run.sh", b"#!/bin/sh\n", True)]
        )
        _commit_all(source_tree)
        (source_tree / "run.sh").write_bytes(b"#!/bin/sh\nexit 0\n")
        version = detect_version(source_tree)
        assert version.dirty is True
        assert (os.fsencode(source_tree) + b"/caf\xe9.txt", b"caf\xe9.txt") in version.files()
        assert version.id == _reference_tree_hash(source_tree)
        archive = _archive(source_tree, tmp_path / "out")
        assert archive.read_bytes() == _tarfile_archive(source_tree)

    def test_only_the_owner_exec_bit_counts(self, tmp_path):
        tree = tmp_path / "meshtool"
        _write_tree(tree, [("owner.sh", b"a", False), ("others.sh", b"b", False)])
        (tree / "owner.sh").chmod(0o700)
        (tree / "others.sh").chmod(0o611)
        assert detect_version(tree).id == _reference_tree_hash(tree)
        assert _archive(tree, tmp_path / "out").read_bytes() == _tarfile_archive(tree)

    def test_file_shrinking_while_archived_raises_naming_it(
        self, source_tree, tmp_path, monkeypatch
    ):
        victim = source_tree / "README"
        victim.write_bytes(b"x" * 5000)
        version = detect_version(source_tree)
        shrink_after_fstat(monkeypatch, victim)
        with pytest.raises(OSError) as raised:
            build_source_archive(version, tmp_path)
        assert str(victim) in str(raised.value)
        assert "expected 5000 bytes" in str(raised.value)


#: Trees whose archive, before its two end blocks, spans more than one
#: :data:`BATCH`: a member header is 512 bytes and its content is padded to a
#: multiple of 512, so the archive meets a batch's end only between blocks.
ARCHIVE_BATCH_TREES = {
    "archive-of-exactly-two-batches": lambda: [("a.bin", _noise(2 * BATCH - 512))],
    # "b"*150 gets a LongLink header, which starts the second batch.
    "long-name-header-starts-a-batch": lambda: [
        ("a.bin", _noise(BATCH - 1000)),
        ("b" * 150, b"long"),
    ],
    "empty-members-across-a-batch": lambda: [
        ("a.bin", _noise(BATCH - 1535)),
        ("b0", b""),
        ("b1", b""),
        ("c.bin", _noise(BATCH, seed=1)),
        ("d0", b""),
    ],
}


@pytest.fixture
def two_processors(monkeypatch) -> None:
    """Report two processors the process may run on, so a stream past one
    batch hands its batches to a worker thread on any host."""
    monkeypatch.setattr(vcs_info, "_usable_processors", lambda: 2)


@pytest.fixture
def thread_starts(monkeypatch) -> list:
    """Each thread the test's own thread starts from then on, as a
    one-tuple. A loopback backend's handler threads, which its serving
    thread starts, are not counted."""
    caller = threading.current_thread()
    starts = []
    start = threading.Thread.start

    def recording_start(thread):
        if threading.current_thread() is caller:
            starts.append((thread,))
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return starts


class _FullDisk:
    """A file opened for writing whose every write fails with ``error``,
    recording the thread that tried it."""

    def __init__(self, handle, error: OSError):
        self.handle = handle
        self.error = error
        self.writers: list[threading.Thread] = []

    def write(self, data) -> int:
        self.writers.append(threading.current_thread())
        raise self.error

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.handle.close()


class TestArchivePipeline:
    """Streams past one batch, whose batches a worker thread hashes and
    writes while the next one is read."""

    @pytest.mark.parametrize("name", [*BATCH_TREES, *ARCHIVE_BATCH_TREES])
    def test_id_and_archive_match_their_references(
        self, tmp_path, two_processors, thread_starts, name
    ):
        tree = tmp_path / "meshtool"
        _write_files(tree, {**BATCH_TREES, **ARCHIVE_BATCH_TREES}[name]())
        version = detect_version(tree)
        thread_starts.clear()
        archive = build_source_archive(version, tmp_path / "out")
        [(worker,)] = thread_starts
        assert not worker.is_alive()
        assert version.id == _reference_tree_hash(tree)
        assert archive.read_bytes() == _tarfile_archive(tree)

    def test_many_batches_under_a_short_switch_interval(self, tmp_path, two_processors):
        # Sizes on and around a batch, so that the reader and the worker trade
        # buffers often and at every kind of offset.
        sizes = [BATCH // 3, 0, 2 * BATCH + 1, 17, BATCH, BATCH - 1, 5000, 3 * BATCH // 2]
        tree = tmp_path / "meshtool"
        _write_files(tree, [(f"f{i}", _noise(size, seed=i)) for i, size in enumerate(sizes)])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            version = detect_version(tree)
            archive = build_source_archive(version, tmp_path / "out")
        finally:
            sys.setswitchinterval(interval)
        assert version.id == _reference_tree_hash(tree)
        assert archive.read_bytes() == _tarfile_archive(tree)

    @pytest.mark.parametrize("step", ["id", "archive"])
    def test_file_shrinking_after_the_first_batch_raises_naming_it(
        self, tmp_path, monkeypatch, two_processors, thread_starts, step
    ):
        tree = tmp_path / "meshtool"
        _write_files(tree, [("a.bin", _noise(BATCH + BATCH // 2)), ("b.txt", b"x" * 5000)])
        version = detect_version(tree)
        threads = threading.active_count()
        thread_starts.clear()
        victim = tree / "b.txt"
        shrink_after_fstat(monkeypatch, victim)
        with pytest.raises(OSError) as raised:
            if step == "id":
                detect_version(tree)
            else:
                build_source_archive(version, tmp_path / "out")
        assert str(victim) in str(raised.value)
        assert "expected 5000 bytes" in str(raised.value)
        assert len(thread_starts) == 1
        assert not any(thread.is_alive() for thread, in thread_starts)
        assert threading.active_count() == threads

    def test_write_error_propagates_unwrapped_and_closes_the_archive(
        self, tmp_path, monkeypatch, two_processors, thread_starts
    ):
        tree = tmp_path / "meshtool"
        _write_files(tree, BATCH_TREES["file-over-two-batches"]())
        version = detect_version(tree)
        threads = threading.active_count()
        thread_starts.clear()
        error = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        archives: list[_FullDisk] = []

        def open_on_full_disk(file, mode="r", *args, **kwargs):
            handle = builtins.open(file, mode, *args, **kwargs)
            if "w" not in mode:
                return handle
            archives.append(_FullDisk(handle, error))
            return archives[-1]

        monkeypatch.setattr(vcs_info, "open", open_on_full_disk, raising=False)
        with pytest.raises(OSError) as raised:
            build_source_archive(version, tmp_path / "out")
        assert raised.value is error
        [archive] = archives
        assert archive.handle.closed
        # The first batch's write, on the worker.
        assert [(writer,) for writer in archive.writers] == thread_starts
        assert not any(thread.is_alive() for thread, in thread_starts)
        assert threading.active_count() == threads

    def test_stream_under_one_batch_starts_no_thread(
        self, source_tree, tmp_path, two_processors, thread_starts
    ):
        version = detect_version(source_tree)
        build_source_archive(version, tmp_path / "out", digest=hashlib.sha256())
        assert thread_starts == []

    def test_one_processor_starts_no_thread(self, tmp_path, monkeypatch, thread_starts):
        monkeypatch.setattr(vcs_info, "_usable_processors", lambda: 1)
        tree = tmp_path / "meshtool"
        _write_files(tree, BATCH_TREES["file-over-two-batches"]())
        version = detect_version(tree)
        archive = build_source_archive(version, tmp_path / "out")
        assert thread_starts == []
        assert version.id == _reference_tree_hash(tree)
        assert archive.read_bytes() == _tarfile_archive(tree)


class TestThreadBudget:
    """The threads a publication starts: none for files under 1 MiB, and
    none at all on one processor."""

    def test_data_publication_of_small_files_starts_no_thread(
        self, orkney, backend, two_processors, thread_starts
    ):
        thread_starts.clear()
        result = publish_data(backend.profile, orkney.project, orkney.mesh)
        assert thread_starts == []
        entries = plan_data(orkney.project, orkney.mesh).entries
        assert backend.service.request_count == len(entries) + 2
        record = backend.service.deposition_record(result.publication_id)
        assert [(f["name"], f["sha256"]) for f in record["files"]] == [
            (e.name, e.sha256) for e in entries
        ]

    def test_one_processor_starts_no_thread_at_any_site(
        self, tmp_path, backend, monkeypatch, thread_starts
    ):
        monkeypatch.setattr(vcs_info, "_usable_processors", lambda: 1)
        # Two files of 2 MiB each: a hashing pool and an upload pool on more
        # than one processor, and a stream past one batch for the worker.
        (tmp_path / "data").mkdir()
        project = _grid_project(tmp_path / "data", [2 * MB] * 2)
        tree = tmp_path / "meshtool"
        _write_files(tree, [(f"grid{i}.bin", bytes([i]) * 2 * MB) for i in range(2)])
        thread_starts.clear()
        data = publish_data(backend.profile, project)
        software = publish_software(backend.profile, tree)
        assert thread_starts == []
        entries = plan_data(project).entries
        record = backend.service.deposition_record(data.publication_id)
        assert [(f["name"], f["sha256"]) for f in record["files"]] == [
            (e.name, e.sha256) for e in entries
        ]
        assert software.reused is False
        assert software.version.id == _reference_tree_hash(tree)


def _id_and_archive(tree: Path, dest_dir: Path) -> tuple[str, bytes]:
    """The version id of ``tree`` and the bytes of its archive."""
    version = detect_version(tree)
    return version.id, build_source_archive(version, dest_dir).read_bytes()


@st.composite
def _tree_pairs(draw):
    """A tree of :func:`_trees` and a variant of it, each as (root name,
    files): the same files, the root renamed, one exec bit toggled, two
    neighbouring files joined into one with NUL bytes, or one byte changed."""
    files = draw(_trees())
    variant = draw(st.sampled_from(["same", "root", "exec", "join", "byte"]))
    root, other = "meshtool", list(files)
    if variant == "root":
        root = "meshtool2"
    elif variant == "exec":
        at = draw(st.integers(0, len(files) - 1))
        path, content, executable = files[at]
        other[at] = (path, content, not executable)
    elif variant == "join":
        assume(len(files) >= 2)
        other.sort(key=lambda file: file[0].encode())
        at = draw(st.integers(0, len(files) - 2))
        (path, content, executable), (next_path, next_content, _) = other[at : at + 2]
        joined = content + b"\0" + next_path.encode() + b"\0" + next_content
        other[at : at + 2] = [(path, joined, executable)]
    elif variant == "byte":
        filled = [at for at, (_, content, _) in enumerate(files) if content]
        assume(filled)
        at = draw(st.sampled_from(filled))
        path, content, executable = files[at]
        offset = draw(st.integers(0, len(content) - 1))
        changed = content[:offset] + bytes([content[offset] ^ 1]) + content[offset + 1 :]
        other[at] = (path, changed, executable)
    return ("meshtool", files), (root, other)


class TestIdNamesTheArchive:
    """Two plain or dirty trees get the same version id exactly when their
    archives are byte-identical, so a reused DOI holds the same bytes."""

    def test_renamed_root_gets_another_id(self, source_tree, tmp_path):
        copy = shutil.copytree(source_tree, tmp_path / "meshtool2")
        first = _id_and_archive(source_tree, tmp_path / "out" / "a")
        second = _id_and_archive(copy, tmp_path / "out" / "b")
        assert first[1] != second[1]
        assert first[0] != second[0]

    def test_exec_bit_of_a_plain_tree_changes_the_id(self, source_tree, tmp_path):
        before = _id_and_archive(source_tree, tmp_path / "a")
        (source_tree / "README").chmod(0o755)
        after = _id_and_archive(source_tree, tmp_path / "b")
        assert before[1] != after[1]
        assert before[0] != after[0]

    def test_content_with_nul_bytes_is_not_two_files(self, tmp_path):
        joined, split = tmp_path / "joined" / "meshtool", tmp_path / "split" / "meshtool"
        _write_tree(joined, [("a", b"X\0b\0Y", False)])
        _write_tree(split, [("a", b"X", False), ("b", b"Y", False)])
        first = _id_and_archive(joined, tmp_path / "out" / "joined")
        second = _id_and_archive(split, tmp_path / "out" / "split")
        assert first[1] != second[1]
        assert first[0] != second[0]

    @settings(deadline=None)
    @given(pair=_tree_pairs())
    def test_same_id_exactly_when_same_archive(self, pair):
        with tempfile.TemporaryDirectory() as scratch:
            sides = []
            for side, (root, files) in zip("ab", pair):
                tree = Path(scratch) / side / root
                _write_tree(tree, files)
                sides.append(_id_and_archive(tree, Path(scratch) / "out" / side))
        (first_id, first_archive), (second_id, second_archive) = sides
        assert (first_id == second_id) == (first_archive == second_archive)


def delete_after_create(monkeypatch, path: Path) -> None:
    """Make ``path`` vanish once a draft is created: after planning, before
    its upload."""
    create = RepositoryClient.create_deposition

    def wrapper(*args, **kwargs):
        deposition = create(*args, **kwargs)
        path.unlink()
        return deposition

    monkeypatch.setattr(RepositoryClient, "create_deposition", wrapper)


def _count_calls(monkeypatch, owner, name: str) -> list:
    """Wrap ``owner.name`` so that each call's positional arguments are
    recorded in the returned list."""
    calls = []
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestCost:
    """How often a publication lists the tree, starts a process and builds
    an archive."""

    def test_fresh_plain_publication_lists_tree_once(self, source_tree, backend, monkeypatch):
        scans = _count_calls(monkeypatch, os, "scandir")
        outcome = publish_software(backend.profile, source_tree)
        assert outcome.reused is False
        assert [path for path, in scans].count(os.fsencode(source_tree)) == 1

    def test_clean_commit_reuse_runs_one_process_and_never_walks(
        self, source_tree, backend, monkeypatch
    ):
        _commit_all(source_tree)
        publish_software(backend.profile, source_tree)
        processes = _count_calls(monkeypatch, subprocess, "Popen")
        listings = _count_calls(monkeypatch, vcs_info, "_list_files")
        scans = _count_calls(monkeypatch, os, "scandir")
        outcome = publish_software(backend.profile, source_tree)
        assert outcome.reused is True
        assert len(processes) == 1
        assert listings == scans == []

    def test_reuse_on_searchable_backend_is_one_request(self, source_tree, backend):
        publish_software(backend.profile, source_tree)
        before = backend.service.request_count
        outcome = publish_software(backend.profile, source_tree)
        assert outcome.reused is True
        assert backend.service.request_count - before == 1

    @pytest.mark.parametrize("under_git", [False, True], ids=["plain", "git"])
    def test_archive_built_once_per_fresh_publication(
        self, source_tree, backend, monkeypatch, under_git
    ):
        if under_git:
            _commit_all(source_tree)
        built = _count_calls(monkeypatch, orchestrator, "build_source_archive")
        first = publish_software(backend.profile, source_tree)
        second = publish_software(backend.profile, source_tree)
        assert (first.reused, second.reused) == (False, True)
        assert len(built) == 1

    def test_fresh_plain_publication_reads_its_archive_once(
        self, source_tree, backend, monkeypatch
    ):
        real_open = builtins.open
        archive_reads = []

        def recording_open(file, mode="r", *args, **kwargs):
            if str(file).endswith(".tar") and "r" in mode:
                archive_reads.append(file)
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", recording_open)
        checksums = _count_calls(monkeypatch, manifest, "checksum_file")
        outcome = publish_software(backend.profile, source_tree)
        assert outcome.reused is False
        assert len(archive_reads) == 1  # the upload's
        assert checksums == []

    def test_archive_of_a_32_mb_file_peaks_under_6_mb(self, source_tree, tmp_path):
        with open(source_tree / "grid.bin", "wb") as grid:
            grid.truncate(32 * 1024 * 1024)
        version = detect_version(source_tree)
        tracemalloc.start()
        try:
            build_source_archive(version, tmp_path / "out", digest=hashlib.sha256())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 1024 * 1024

    def test_id_of_a_32_mb_file_peaks_under_3_mb(self, source_tree):
        with open(source_tree / "grid.bin", "wb") as grid:
            grid.truncate(32 * 1024 * 1024)
        tracemalloc.start()
        try:
            detect_version(source_tree)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 1024 * 1024
