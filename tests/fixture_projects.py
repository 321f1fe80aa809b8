"""A battery of varied fixture projects for parser cross-checking.

Covers relative and absolute paths, provider suffixes, driver-prefixed
subdataset syntax, database and web sources, duplicates, odd extensions, and
a shapefile named only ``.shp``.
"""

from __future__ import annotations

from pathlib import Path

from conftest import write_project


def _touch(path: Path, payload: bytes = b"x") -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(payload)
    return path


def build_fixture_projects(root: Path) -> list[Path]:
    """Create every fixture project under ``root``; returns project paths."""
    projects: list[Path] = []

    def project(name: str, layers, title: str = "") -> Path:
        path = write_project(root / name / f"{name}.qgs", layers, title=title)
        projects.append(path)
        return path

    # 1: relative paths, shapefile with the full sidecar family
    base = root / "relative_plain"
    _touch(base / "vec" / "coast.shp")
    for ext in (".shx", ".dbf", ".prj", ".cpg", ".qpj"):
        _touch(base / "vec" / ("coast" + ext))
    _touch(base / "grids" / "depth.nc")
    project(
        "relative_plain",
        [("coast", "./vec/coast.shp"), ("depth", "grids/depth.nc")],
        title="Relative paths",
    )

    # 2: absolute path datasource
    base = root / "absolute_paths"
    dem = _touch(base / "raster" / "dem.tif")
    project("absolute_paths", [("dem", str(dem))])

    # 3: provider suffixes after |
    base = root / "pipe_suffixes"
    _touch(base / "data" / "depth.nc")
    _touch(base / "data" / "coast.shp")
    _touch(base / "data" / "coast.dbf")
    project(
        "pipe_suffixes",
        [
            ("depth", "./data/depth.nc|layername=z"),
            ("coast", './data/coast.shp|layerid=0|subset="CAT=1"'),
        ],
    )

    # 4: quoted subdataset prefix
    base = root / "netcdf_quoted"
    _touch(base / "grids" / "bathy.nc")
    project("netcdf_quoted", [("bathy", 'NETCDF:"./grids/bathy.nc":depth')])

    # 5: unquoted subdataset prefix, and a prefix on a non-raster extension
    base = root / "netcdf_unquoted"
    _touch(base / "grids" / "bathy.nc")
    _touch(base / "grids" / "stack.h5")
    project(
        "netcdf_unquoted",
        [
            ("bathy", "NETCDF:./grids/bathy.nc:depth"),
            ("stack", 'HDF5:"./grids/stack.h5"://group/data'),
        ],
    )

    # 6: database source among file layers
    base = root / "database_sources"
    _touch(base / "local.shp")
    project(
        "database_sources",
        [
            ("pg layer", "dbname='gis' host=localhost table=\"coast\" (geom)"),
            ("local", "./local.shp"),
        ],
    )

    # 7: web services among file layers
    base = root / "web_sources"
    _touch(base / "overlay.nc")
    project(
        "web_sources",
        [
            ("wms", "contextualWMSLegend=0&crs=EPSG:4326&url=http://wms.example/ows"),
            ("tiles", "https://tiles.example/{z}/{x}/{y}.png"),
            ("overlay", "overlay.nc"),
        ],
    )

    # 8: the same datasource referenced twice
    base = root / "duplicates_exact"
    _touch(base / "data" / "zones.shp")
    project(
        "duplicates_exact",
        [("zones", "./data/zones.shp"), ("zones again", "./data/zones.shp")],
    )

    # 9: duplicates through different spellings of one path
    base = root / "duplicates_spelled"
    grid = _touch(base / "data" / "grid.nc")
    project(
        "duplicates_spelled",
        [
            ("a", "./data/grid.nc"),
            ("b", "data/grid.nc"),
            ("c", str(grid)),
            ("d", "./data/../data/grid.nc"),
        ],
    )

    # 10: parent-relative path escaping the project directory
    shared = _touch(root / "shared_between_projects" / "dem.asc")
    project("dotdot_paths", [("shared dem", "../shared_between_projects/dem.asc")])
    assert shared.exists()

    # 11: uppercase extension still classifies (sidecar probe stays lowercase)
    base = root / "uppercase_ext"
    _touch(base / "vec" / "COAST.SHP")
    _touch(base / "vec" / "COAST.dbf")
    project("uppercase_ext", [("coast", "./vec/COAST.SHP")])

    # 12: empty datasource elements are dropped
    base = root / "empty_sources"
    _touch(base / "keep.nc")
    path = root / "empty_sources" / "empty_sources.qgs"
    path.write_text(
        '<qgis version="2.8">\n'
        "  <projectlayers>\n"
        "    <maplayer><layername>no source</layername></maplayer>\n"
        "    <maplayer><layername>blank</layername><datasource>  </datasource></maplayer>\n"
        "    <maplayer><layername>keep</layername><datasource>keep.nc</datasource></maplayer>\n"
        "  </projectlayers>\n"
        "</qgis>\n",
        encoding="utf-8",
    )
    projects.append(path)

    # 13: no layers at all
    project("no_layers", [])

    # 14: extension zoo
    base = root / "extension_zoo"
    for name in ("area.geojson", "relief.tiff", "grid.asc", "notes.txt"):
        _touch(base / "files" / name)
    project(
        "extension_zoo",
        [
            ("area", "./files/area.geojson"),
            ("relief", "./files/relief.tiff"),
            ("grid", "./files/grid.asc"),
            ("notes", "./files/notes.txt"),
        ],
    )

    # 15: a shapefile whose whole name is its suffix
    base = root / "suffix_only_name"
    for name in (".shp", ".shx", ".dbf"):
        _touch(base / "vec" / name)
    project("suffix_only_name", [("nameless", "./vec/.shp")])

    return projects
