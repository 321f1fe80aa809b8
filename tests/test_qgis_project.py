from __future__ import annotations

import logging
import re
from pathlib import Path

import pytest

from conftest import write_project
from fixture_projects import build_fixture_projects
from reference_scan import scan_datasources

from geopub.errors import ParseError
from geopub.qgis_project import (
    DataSourceRef,
    LayerEntry,
    collect_datasources,
    parse_project,
    resolve_datasource,
)


class TestParseProject:
    def test_zero_maplayers_gives_empty_layers(self, tmp_path):
        path = write_project(tmp_path / "empty.qgs", [])
        project = parse_project(path)
        assert project.layers == ()
        assert project.path == path

    def test_orkney_layer_count_matches_text_scan(self, orkney):
        raw = orkney.project.read_text()
        datasource_count = len(re.findall(r"<datasource>", raw))
        project = parse_project(orkney.project)
        assert datasource_count == 3
        assert len(project.layers) == datasource_count

    def test_document_order_is_preserved(self, orkney):
        project = parse_project(orkney.project)
        assert [layer.layer_name for layer in project.layers] == [
            "coastline",
            "bathymetry",
            "mesh resolution",
        ]

    def test_not_xml_raises_parse_error(self, tmp_path):
        path = tmp_path / "broken.qgs"
        path.write_text("not xml")
        with pytest.raises(ParseError):
            parse_project(path)

    def test_wrong_root_raises_parse_error(self, tmp_path):
        path = tmp_path / "other.xml"
        path.write_text("<html><body/></html>")
        with pytest.raises(ParseError, match="root"):
            parse_project(path)

    def test_unreadable_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            parse_project(tmp_path / "does-not-exist.qgs")

    def test_title_is_read_when_present(self, tmp_path):
        path = write_project(tmp_path / "t.qgs", [], title="Orkney and Shetland Isles")
        assert parse_project(path).title == "Orkney and Shetland Isles"

    def test_missing_title_is_empty(self, tmp_path):
        path = tmp_path / "untitled.qgs"
        path.write_text('<qgis version="2.8"><projectlayers/></qgis>')
        assert parse_project(path).title == ""

    def test_raw_datasource_is_verbatim(self, tmp_path):
        path = write_project(tmp_path / "p.qgs", [("layer", "./a.nc|layername=z")])
        layer = parse_project(path).layers[0]
        assert layer.raw_datasource == "./a.nc|layername=z"

    def test_empty_datasources_are_dropped(self, tmp_path):
        path = tmp_path / "gaps.qgs"
        path.write_text(
            "<qgis><projectlayers>"
            "<maplayer><layername>a</layername></maplayer>"
            "<maplayer><datasource>   </datasource></maplayer>"
            "<maplayer><datasource>real.nc</datasource></maplayer>"
            "</projectlayers></qgis>"
        )
        project = parse_project(path)
        assert len(project.layers) == 1
        assert project.layers[0].raw_datasource == "real.nc"


class TestResolveDatasource:
    def test_absolute_path_unchanged(self):
        entry = LayerEntry(layer_name="coast", raw_datasource="/data/coast.shp")
        ref = resolve_datasource(entry, "/home/u/p")
        assert isinstance(ref, DataSourceRef)
        assert ref.resolved_path == Path("/data/coast.shp")

    def test_relative_with_pipe_suffix(self):
        entry = LayerEntry(layer_name="z", raw_datasource="./bathy/depth.nc|layername=z")
        ref = resolve_datasource(entry, "/home/u/p")
        assert ref.resolved_path == Path("/home/u/p/bathy/depth.nc")

    def test_database_source_is_non_file(self):
        entry = LayerEntry(layer_name="pg", raw_datasource="dbname='gis' table=\"coast\"")
        assert resolve_datasource(entry, "/p") is None

    def test_url_parameter_is_non_file(self):
        entry = LayerEntry(layer_name="wms", raw_datasource="crs=EPSG:4326&url=http://x/ows")
        assert resolve_datasource(entry, "/p") is None

    def test_url_scheme_is_non_file(self):
        entry = LayerEntry(layer_name="tiles", raw_datasource="https://tiles.example/a.png")
        assert resolve_datasource(entry, "/p") is None

    def test_quoted_subdataset_prefix(self):
        entry = LayerEntry(layer_name="b", raw_datasource='NETCDF:"./grids/bathy.nc":depth')
        ref = resolve_datasource(entry, "/p")
        assert ref.resolved_path == Path("/p/grids/bathy.nc")

    def test_unquoted_subdataset_prefix(self):
        entry = LayerEntry(layer_name="b", raw_datasource="NETCDF:grids/bathy.nc:depth")
        ref = resolve_datasource(entry, "/p")
        assert ref.resolved_path == Path("/p/grids/bathy.nc")

    @pytest.mark.parametrize(
        "raw,expected",
        [('2DM:"/data/mesh.2dm"', "/data/mesh.2dm"), ('3Di:"./x.nc"', "/p/x.nc")],
        ids=["2DM", "3Di"],
    )
    def test_driver_name_may_start_with_a_digit(self, raw, expected):
        ref = resolve_datasource(LayerEntry(layer_name="mesh", raw_datasource=raw), "/p")
        assert ref.resolved_path == Path(expected)

    def test_sidecars_only_existing_ones(self, tmp_path):
        shp = tmp_path / "coast.shp"
        shp.write_bytes(b"shp")
        (tmp_path / "coast.dbf").write_bytes(b"dbf")
        (tmp_path / "coast.prj").write_bytes(b"prj")
        entry = LayerEntry(layer_name="c", raw_datasource=str(shp))
        ref = resolve_datasource(entry, tmp_path)
        assert ref.sidecars == (tmp_path / "coast.dbf", tmp_path / "coast.prj")

    @pytest.mark.parametrize("filename", ["coast.SHP", "coast.Shp"])
    def test_sidecar_table_is_keyed_by_lowercased_suffix(self, tmp_path, filename):
        shp = tmp_path / filename
        shp.write_bytes(b"shp")
        (tmp_path / "coast.shx").write_bytes(b"shx")
        entry = LayerEntry(layer_name="c", raw_datasource=str(shp))
        assert resolve_datasource(entry, tmp_path).sidecars == (tmp_path / "coast.shx",)

    def test_non_shapefile_has_no_sidecars(self, tmp_path):
        (tmp_path / "depth.nc").write_bytes(b"nc")
        (tmp_path / "depth.dbf").write_bytes(b"dbf")
        entry = LayerEntry(layer_name="d", raw_datasource=str(tmp_path / "depth.nc"))
        assert resolve_datasource(entry, tmp_path).sidecars == ()


class TestCollectDatasources:
    def test_duplicate_layers_collapse_to_one(self, tmp_path):
        path = write_project(
            tmp_path / "dup.qgs",
            [("a", "./data/zones.shp"), ("b", "./data/zones.shp")],
        )
        refs = collect_datasources(parse_project(path))
        assert [ref.resolved_path for ref in refs] == [tmp_path / "data" / "zones.shp"]

    def test_orkney_refs_and_sidecars(self, orkney):
        refs = collect_datasources(parse_project(orkney.project))
        assert [ref.resolved_path for ref in refs] == [
            orkney.shapefile,
            orkney.bathymetry,
            orkney.resolution,
        ]
        # The fixture tree carries exactly .shx and .dbf next to the shapefile.
        assert sorted(p.suffix for p in refs[0].sidecars) == [".dbf", ".shx"]
        assert all(p.exists() for p in refs[0].sidecars)

    def test_database_only_project_warns_and_returns_empty(self, tmp_path, caplog):
        path = write_project(tmp_path / "db.qgs", [("pg", "dbname='gis' table=\"t\"")])
        with caplog.at_level(logging.WARNING, logger="geopub.qgis_project"):
            refs = collect_datasources(parse_project(path))
        assert refs == []
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1

    def test_output_never_exceeds_datasource_count(self, tmp_path):
        for name, layers in [
            ("a", [("x", "./a.nc"), ("y", "./b.nc")]),
            ("b", [("x", "./a.nc"), ("y", "./a.nc"), ("z", "dbname='d'")]),
            ("c", []),
        ]:
            path = write_project(tmp_path / f"{name}.qgs", layers)
            project = parse_project(path)
            count = len(re.findall(r"<datasource>", path.read_text()))
            assert len(collect_datasources(project)) <= count

    def test_collect_is_deterministic(self, orkney):
        project = parse_project(orkney.project)
        assert collect_datasources(project) == collect_datasources(project)

    def test_dedup_stability_removing_duplicate_layer(self, tmp_path):
        layers = [("a", "./data/zones.shp"), ("b", "./other.nc"), ("c", "./data/zones.shp")]
        with_dup = write_project(tmp_path / "with.qgs", layers)
        without_dup = write_project(tmp_path / "without.qgs", layers[:2])
        refs_with = collect_datasources(parse_project(with_dup))
        refs_without = collect_datasources(parse_project(without_dup))
        assert [r.resolved_path.name for r in refs_with] == [
            r.resolved_path.name for r in refs_without
        ]

    def test_all_paths_are_absolute(self, tmp_path):
        path = write_project(tmp_path / "rel.qgs", [("r", "data/grid.nc")])
        for ref in collect_datasources(parse_project(path)):
            assert ref.resolved_path.is_absolute()


class TestReferenceScanEquivalence:
    def test_battery_matches_brute_force(self, tmp_path):
        projects = build_fixture_projects(tmp_path)
        assert len(projects) >= 10
        for project_path in projects:
            expected = scan_datasources(str(project_path))
            got = [
                (str(ref.resolved_path), tuple(str(s) for s in ref.sidecars))
                for ref in collect_datasources(parse_project(project_path))
            ]
            assert got == expected, f"mismatch for {project_path.name}"

    def test_orkney_matches_brute_force(self, orkney):
        expected = scan_datasources(str(orkney.project))
        got = [
            (str(ref.resolved_path), tuple(str(s) for s in ref.sidecars))
            for ref in collect_datasources(parse_project(orkney.project))
        ]
        assert got == expected
