"""Shared fixtures: project-tree builders and loopback mock backends."""

from __future__ import annotations

import os
from pathlib import Path
from xml.sax.saxutils import escape

import pytest

from geopub import repo_protocol
from geopub.mock_service import MockServer, MockService, ServiceConfig
from geopub.repo_protocol import BackendProfile, RepositoryClient


@pytest.fixture(autouse=True)
def fast_retry_backoff(monkeypatch):
    """Retried GETs wait 1 ms instead of the policy's 250 ms."""
    monkeypatch.setattr(repo_protocol, "RETRY_BACKOFF_SECONDS", 0.001)


def project_xml(layers: list[tuple[str, str]], title: str = "") -> str:
    """A minimal project document with the given (layername, datasource)
    pairs."""
    maplayers = "\n".join(
        "    <maplayer>\n"
        f"      <layername>{escape(name)}</layername>\n"
        f"      <datasource>{escape(datasource)}</datasource>\n"
        "      <provider>ogr</provider>\n"
        "    </maplayer>"
        for name, datasource in layers
    )
    return (
        '<?xml version="1.0" encoding="utf-8"?>\n'
        '<qgis projectname="" version="2.8.2">\n'
        f"  <title>{escape(title)}</title>\n"
        "  <projectlayers>\n"
        f"{maplayers}\n"
        "  </projectlayers>\n"
        "</qgis>\n"
    )


def write_project(path: Path, layers: list[tuple[str, str]], title: str = "") -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(project_xml(layers, title=title), encoding="utf-8")
    return path


class OrkneyTree:
    """A realistic fixture: coastline shapefile (with two sidecars), two
    NetCDF files, a mesh, and the project file referencing them."""

    def __init__(self, root: Path):
        data = root / "data"
        data.mkdir(parents=True)
        self.shapefile = data / "coastline.shp"
        self.shapefile.write_bytes(b"shp\x00fake coastline geometry")
        self.sidecars = [data / "coastline.dbf", data / "coastline.shx"]
        self.sidecars[0].write_bytes(b"dbf\x00attributes")
        self.sidecars[1].write_bytes(b"shx\x00index")
        self.bathymetry = data / "bathymetry.nc"
        self.bathymetry.write_bytes(b"CDF\x01fake bathymetry grid")
        self.resolution = data / "resolution.nc"
        self.resolution.write_bytes(b"CDF\x01fake resolution grid")
        mesh_dir = root / "mesh"
        mesh_dir.mkdir()
        self.mesh = mesh_dir / "orkney.msh"
        self.mesh.write_text(
            "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n$Nodes\n1\n1 0 0 0\n$EndNodes\n"
        )
        self.project = write_project(
            root / "orkney.qgs",
            [
                ("coastline", "./data/coastline.shp"),
                ("bathymetry", "./data/bathymetry.nc"),
                ("mesh resolution", "./data/resolution.nc|layername=mesh_size"),
            ],
        )
        #: Every file a complete publication must contain.
        self.all_files = [
            self.project,
            self.shapefile,
            *self.sidecars,
            self.bathymetry,
            self.resolution,
            self.mesh,
        ]


@pytest.fixture
def orkney(tmp_path: Path) -> OrkneyTree:
    return OrkneyTree(tmp_path / "orkney")


class Backend:
    """A mock backend served over loopback HTTP, plus a client profile wired
    to it."""

    def __init__(self, service: MockService, token: str = "test-token"):
        self.service = service
        self.server = MockServer(service)
        self.server.start()
        self.profile = BackendProfile(
            name="figshare-like" if service.config.can_search else "zenodo-like",
            base_url=self.server.base_url,
            can_search=service.config.can_search,
            auth_token=token,
        )

    def client(self) -> RepositoryClient:
        return RepositoryClient(self.profile)


def unset_proxies(monkeypatch) -> None:
    """Unset the proxy variables, so that loopback requests go direct."""
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)


@pytest.fixture
def make_backend(monkeypatch):
    """Factory for loopback backends, reached with no proxy; stops their
    servers on teardown."""
    unset_proxies(monkeypatch)
    created: list[Backend] = []

    def factory(config: ServiceConfig | None = None, **kwargs) -> Backend:
        backend = Backend(MockService(config or ServiceConfig.figshare_like()), **kwargs)
        created.append(backend)
        return backend

    yield factory
    for backend in created:
        backend.server.stop()


@pytest.fixture
def backend(make_backend) -> Backend:
    return make_backend()


class _ReversedListing:
    """A directory listing in reverse order, usable as ``os.scandir``'s
    result is: as an iterator and as a context manager."""

    def __init__(self, entries: list):
        self._entries = iter(entries[::-1])

    def __iter__(self):
        return self

    def __next__(self):
        return next(self._entries)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None


@pytest.fixture
def reverse_listing(monkeypatch):
    """Call the returned function to make every directory listing of the tree
    walk (``os.scandir``) come back in reverse order from then on."""
    real_scandir = os.scandir

    def reversed_scandir(path="."):
        with real_scandir(path) as entries:
            return _ReversedListing(list(entries))

    return lambda: monkeypatch.setattr(os, "scandir", reversed_scandir)
