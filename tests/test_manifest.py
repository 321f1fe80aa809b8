from __future__ import annotations

import hashlib
import json
import logging
import os
import sys
import threading
from pathlib import Path

import pytest

from conftest import write_project
from test_orchestrator import MB, _count_calls, _grid_project

from geopub import manifest, vcs_info
from geopub.errors import MissingFileError
from geopub.manifest import (
    build_manifest,
    checksum_file,
    derive_metadata,
    manifest_to_json,
    map_files,
)
from geopub.qgis_project import collect_datasources, parse_project

# sha256 of zero bytes and of b"geopub", frozen from the sha256sum utility.
EMPTY_SHA256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
GEOPUB_SHA256 = "79f544d42d5c46eb4aa9d26b8bc7ccfbfd95c466e41601f1fff9bfe71a7a5a9f"


class TestChecksumFile:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty"
        path.write_bytes(b"")
        assert checksum_file(path) == EMPTY_SHA256

    def test_known_content(self, tmp_path):
        path = tmp_path / "q"
        path.write_bytes(b"geopub")
        assert checksum_file(path) == GEOPUB_SHA256

    def test_deterministic(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"some bytes" * 1000)
        assert checksum_file(path) == checksum_file(path)

    def test_unreadable_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            checksum_file(tmp_path / "gone")


class TestDeriveMetadata:
    def test_empty_title_falls_back_to_stem(self, orkney):
        project = parse_project(orkney.project)
        title, tags = derive_metadata(project)
        assert title == "orkney"
        assert tags == ["orkney", "coastline", "bathymetry", "mesh resolution", "qgis"]

    def test_project_title_verbatim(self, tmp_path):
        path = write_project(
            tmp_path / "o.qgs", [("coastline", "./c.shp")], title="Orkney and Shetland Isles"
        )
        title, _ = derive_metadata(parse_project(path))
        assert title == "Orkney and Shetland Isles"

    def test_duplicate_layer_names_collapse(self, tmp_path):
        path = write_project(
            tmp_path / "dup.qgs", [("coast", "./a.shp"), ("Coast", "./b.shp")]
        )
        _, tags = derive_metadata(parse_project(path))
        assert tags.count("coast") == 1

    def test_tags_are_lowercase_and_include_qgis(self, tmp_path):
        path = write_project(tmp_path / "Mixed.qgs", [("UPPER", "./a.nc")])
        _, tags = derive_metadata(parse_project(path))
        assert tags == ["mixed", "upper", "qgis"]


def _orkney_manifest(orkney, **kwargs):
    project = parse_project(orkney.project)
    sources = collect_datasources(project)
    return build_manifest(project, sources, kwargs.pop("mesh_path", orkney.mesh), **kwargs)


class TestBuildManifest:
    def test_full_fixture_has_seven_entries(self, orkney):
        manifest = _orkney_manifest(orkney)
        assert len(manifest.entries) == 7
        assert manifest.entries[0].path == orkney.project

    def test_without_mesh_only_mesh_entry_missing(self, orkney):
        with_mesh = _orkney_manifest(orkney)
        without_mesh = _orkney_manifest(orkney, mesh_path=None)
        assert len(without_mesh.entries) == 6
        assert with_mesh.entries[:6] == without_mesh.entries
        assert with_mesh.entries[6].path == orkney.mesh

    def test_completeness_matches_independent_set(self, orkney):
        # Independent expectation: the union computed directly from the
        # fixture's own file list.
        manifest = _orkney_manifest(orkney)
        assert {e.path for e in manifest.entries} == set(orkney.all_files)

    def test_missing_source_raises_naming_exactly_it(self, orkney):
        orkney.bathymetry.unlink()
        with pytest.raises(MissingFileError) as excinfo:
            _orkney_manifest(orkney)
        assert excinfo.value.paths == [str(orkney.bathymetry)]

    def test_all_missing_files_reported_at_once(self, orkney):
        project = parse_project(orkney.project)
        sources = collect_datasources(project)
        # Files vanish between datasource collection and the manifest build.
        orkney.bathymetry.unlink()
        orkney.mesh.unlink()
        orkney.sidecars[0].unlink()
        with pytest.raises(MissingFileError) as excinfo:
            build_manifest(project, sources, orkney.mesh)
        assert set(excinfo.value.paths) == {
            str(orkney.bathymetry),
            str(orkney.mesh),
            str(orkney.sidecars[0]),
        }

    def test_each_file_is_stated_once(self, orkney, monkeypatch):
        project = parse_project(orkney.project)
        sources = collect_datasources(project)
        stats = _count_calls(monkeypatch, os, "stat")
        entries = build_manifest(project, sources, orkney.mesh).entries
        assert len(stats) == len(entries) == 7

    def test_total_size_is_sum_of_entry_sizes(self, orkney):
        manifest = _orkney_manifest(orkney)
        assert manifest.total_size == sum(e.size for e in manifest.entries)
        assert manifest.total_size == sum(p.stat().st_size for p in orkney.all_files)

    def test_checksums_match_per_file_checksum(self, orkney):
        manifest = _orkney_manifest(orkney)
        for entry in manifest.entries:
            assert entry.sha256 == checksum_file(entry.path)

    def test_duplicate_basenames_get_parent_prefix(self, tmp_path):
        (tmp_path / "bathy").mkdir()
        (tmp_path / "res").mkdir()
        (tmp_path / "bathy" / "depth.nc").write_bytes(b"a")
        (tmp_path / "res" / "depth.nc").write_bytes(b"b")
        path = write_project(
            tmp_path / "p.qgs", [("a", "./bathy/depth.nc"), ("b", "./res/depth.nc")]
        )
        project = parse_project(path)
        manifest = build_manifest(project, collect_datasources(project))
        names = [e.name for e in manifest.entries]
        assert names == ["p.qgs", "bathy__depth.nc", "res__depth.nc"]

    def test_collision_extends_to_more_ancestors_when_needed(self, tmp_path):
        for top in ("left", "right"):
            (tmp_path / top / "data").mkdir(parents=True)
            (tmp_path / top / "data" / "depth.nc").write_bytes(top.encode())
        path = write_project(
            tmp_path / "p.qgs",
            [("l", "./left/data/depth.nc"), ("r", "./right/data/depth.nc")],
        )
        project = parse_project(path)
        manifest = build_manifest(project, collect_datasources(project))
        names = [e.name for e in manifest.entries]
        assert names == ["p.qgs", "left__data__depth.nc", "right__data__depth.nc"]
        assert len(set(names)) == len(names)

    def test_build_is_deterministic(self, orkney):
        first = _orkney_manifest(orkney)
        second = _orkney_manifest(orkney)
        assert first == second
        assert manifest_to_json(first) == manifest_to_json(second)

    def test_metadata_defaults_and_overrides(self, orkney):
        manifest = _orkney_manifest(orkney)
        assert manifest.meta.title == "orkney"
        assert "orkney.qgs" in manifest.meta.description
        assert "7" in manifest.meta.description
        overridden = _orkney_manifest(orkney, title="My Title", description="My words.")
        assert overridden.meta.title == "My Title"
        assert overridden.meta.description == "My words."

    def test_mesh_header_mismatch_warns_but_builds(self, orkney, caplog):
        orkney.mesh.write_text("not a mesh at all\n")
        with caplog.at_level(logging.WARNING, logger="geopub.manifest"):
            manifest = _orkney_manifest(orkney)
        assert len(manifest.entries) == 7
        assert any("mesh" in r.message.lower() for r in caplog.records)

    def test_good_mesh_header_does_not_warn(self, orkney, caplog):
        with caplog.at_level(logging.WARNING, logger="geopub.manifest"):
            _orkney_manifest(orkney)
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


def _grid_manifest(root: Path, sizes: list[int]):
    project = parse_project(_grid_project(root, sizes))
    return build_manifest(project, collect_datasources(project))


class TestHashingPool:
    """Files of at least 1 MiB are hashed side by side, one thread per
    processor the process may run on; smaller ones on the calling thread."""

    @pytest.fixture(autouse=True)
    def two_processors(self, monkeypatch):
        monkeypatch.setattr(vcs_info, "_usable_processors", lambda: 2)

    def test_large_files_hashed_side_by_side(self, tmp_path, monkeypatch):
        lock, overlapped = threading.Lock(), threading.Event()
        in_flight = [0]
        checksum = manifest.checksum_file

        def overlapping_checksum(path):
            if Path(path).stat().st_size < MB:
                return checksum(path)
            with lock:
                in_flight[0] += 1
                if in_flight[0] >= 2:
                    overlapped.set()
            try:
                # Hold the first large file until a second one is hashed; one
                # at a time, none ever is.
                overlapped.wait(timeout=5)
                return checksum(path)
            finally:
                with lock:
                    in_flight[0] -= 1

        monkeypatch.setattr(manifest, "checksum_file", overlapping_checksum)
        built = _grid_manifest(tmp_path, [2 * MB] * 3)
        assert overlapped.is_set(), "no two large files were hashed at once"
        assert [e.sha256 for e in built.entries] == [
            hashlib.sha256(e.path.read_bytes()).hexdigest() for e in built.entries
        ]

    def test_small_files_hashed_on_the_calling_thread(self, tmp_path, monkeypatch):
        hashed_on = {}
        checksum = manifest.checksum_file

        def recording_checksum(path):
            hashed_on[Path(path).name] = threading.current_thread()
            return checksum(path)

        monkeypatch.setattr(manifest, "checksum_file", recording_checksum)
        built = _grid_manifest(tmp_path, [10, 2 * MB, MB - 1, MB, 30])
        caller = threading.current_thread()
        assert {e.name: hashed_on[e.name] is caller for e in built.entries} == {
            "grids.qgs": True,
            "grid0.nc": True,
            "grid1.nc": False,
            "grid2.nc": True,
            "grid3.nc": False,
            "grid4.nc": True,
        }
        assert [e.sha256 for e in built.entries] == [
            hashlib.sha256(e.path.read_bytes()).hexdigest() for e in built.entries
        ]

    def test_results_in_item_order_under_a_short_switch_interval(self, monkeypatch):
        monkeypatch.setattr(vcs_info, "_usable_processors", lambda: 4)
        sizes = [MB, 10, 2 * MB, 20, MB + 1, 3 * MB, 30, MB] * 4
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = map_files(lambda item: item * item, range(len(sizes)), sizes)
        finally:
            sys.setswitchinterval(interval)
        assert results == [item * item for item in range(len(sizes))]

    def test_failed_large_item_stops_the_rest(self):
        started = []

        def failing(item):
            started.append(item)
            raise ValueError(item)

        with pytest.raises(ValueError) as raised:
            map_files(failing, range(7), [MB] * 6 + [10])
        # Each thread that works (the calling one and two pool threads)
        # starts at most one item: after a failure no further item starts.
        assert len(started) <= 3
        assert raised.value.args == (min(started),)

    def test_earliest_failed_item_in_order_propagates(self):
        started = []

        def work(item):
            started.append(item)
            if item in (1, 2):
                raise ValueError(item)
            return item

        with pytest.raises(ValueError) as raised:
            map_files(work, range(4), [MB, 10, MB, 10])
        # Item 1 fails on this thread, whatever item 2 does meanwhile on the
        # pool; item 3, after it on this thread, never starts.
        assert raised.value.args == (1,)
        assert 3 not in started


class TestManifestJson:
    def test_golden_structure(self, tmp_path):
        (tmp_path / "q.nc").write_bytes(b"geopub")
        path = write_project(tmp_path / "tiny.qgs", [("layer", "./q.nc")])
        project = parse_project(path)
        manifest = build_manifest(project, collect_datasources(project))
        document = json.loads(manifest_to_json(manifest))
        assert document == {
            "title": "tiny",
            "tags": ["tiny", "layer", "qgis"],
            "entries": [
                {
                    "name": "tiny.qgs",
                    "size": path.stat().st_size,
                    "sha256": checksum_file(path),
                },
                {"name": "q.nc", "size": 6, "sha256": GEOPUB_SHA256},
            ],
            "total_size": path.stat().st_size + 6,
        }

    def test_key_order_is_stable(self, orkney):
        text = manifest_to_json(_orkney_manifest(orkney))
        assert text.index('"title"') < text.index('"tags"') < text.index('"entries"')
        assert text.index('"entries"') < text.index('"total_size"')
