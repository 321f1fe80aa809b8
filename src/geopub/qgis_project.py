"""Parse QGIS project files and resolve their datasource references.

A QGIS project is an XML document with root element ``qgis``. Layers live in
``maplayer`` elements under a ``projectlayers`` descendant, and each layer
names where its data lives in a ``datasource`` child. Datasource strings come
in many flavours: plain paths, paths with provider options appended after a
``|``, driver-prefixed subdataset syntax (``NETCDF:"file.nc":var``), database
connection strings, and service URLs. This module extracts the file-backed
ones and resolves them to absolute paths, each with the companion files that
:data:`SIDECAR_SUFFIXES` names for its suffix.
"""

from __future__ import annotations

import logging
import os
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

from .errors import ParseError

logger = logging.getLogger(__name__)

#: Companion files a data file needs to be usable, keyed by the data file's
#: lowercased suffix and probed in this order.
SIDECAR_SUFFIXES: dict[str, tuple[str, ...]] = {
    ".shp": (".shx", ".dbf", ".prj", ".cpg", ".qpj"),
}

_URL_SCHEME = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*://")
_DRIVER_PREFIX = re.compile(r"^([A-Za-z][A-Za-z0-9_]*):(.+)$", re.DOTALL)


@dataclass(frozen=True)
class LayerEntry:
    """One ``maplayer`` element with a non-empty datasource."""

    layer_name: str
    raw_datasource: str


@dataclass(frozen=True)
class ProjectFile:
    """A parsed project: path, title, and layers in document order."""

    path: Path
    title: str
    layers: tuple[LayerEntry, ...]


@dataclass(frozen=True)
class DataSourceRef:
    """A datasource resolved to a file, with the sidecars found next to it."""

    resolved_path: Path
    sidecars: tuple[Path, ...]


def parse_project(path: str | os.PathLike) -> ProjectFile:
    """Parse a QGIS project file.

    Returns one :class:`LayerEntry` per ``maplayer`` element that carries a
    non-empty ``datasource`` child, preserving document order. The project
    title is taken from the root's ``title`` child when present.

    Raises:
        ParseError: malformed XML, or root element is not ``qgis``.
        OSError: the file cannot be read.
    """
    project_path = Path(os.path.abspath(path))
    try:
        tree = ET.parse(project_path)
    except ET.ParseError as exc:
        raise ParseError(f"{project_path}: not well-formed XML: {exc}") from exc
    root = tree.getroot()
    if root.tag != "qgis":
        raise ParseError(
            f"{project_path}: unrecognized root element <{root.tag}>, expected <qgis>"
        )

    title = (root.findtext("title") or "").strip()

    layers = []
    for container in root.iter("projectlayers"):
        for maplayer in container.iter("maplayer"):
            raw = maplayer.findtext("datasource") or ""
            if raw.strip():
                name = (maplayer.findtext("layername") or "").strip()
                layers.append(LayerEntry(layer_name=name, raw_datasource=raw))

    return ProjectFile(path=project_path, title=title, layers=tuple(layers))


def resolve_datasource(
    entry: LayerEntry, project_dir: str | os.PathLike
) -> DataSourceRef | None:
    """Resolve one layer's datasource string to a file reference.

    Provider options (everything from the first ``|``) and driver prefixes
    (``NAME:`` followed by a quoted or unquoted path) are stripped to obtain
    the candidate path; relative candidates are resolved against
    ``project_dir``. The sidecars are the existing files that
    :data:`SIDECAR_SUFFIXES` names for the suffix from the file name's last
    dot. Strings that denote databases or remote services (``dbname=``,
    ``url=``, or a URL scheme) yield None.
    """
    raw = entry.raw_datasource.strip()
    if "dbname=" in raw or "url=" in raw or _URL_SCHEME.match(raw):
        return None

    candidate = raw.split("|", 1)[0].strip()
    candidate = _strip_driver_prefix(candidate)

    if not os.path.isabs(candidate):
        candidate = os.path.join(os.path.abspath(project_dir), candidate)
    resolved = Path(os.path.normpath(candidate))

    # Split at the name's last dot: ``Path.suffix`` of ``.shp`` is empty.
    stem, dot, suffix = resolved.name.rpartition(".")
    sidecars = tuple(
        sidecar
        for sidecar_suffix in SIDECAR_SUFFIXES.get(dot + suffix.lower(), ())
        if (sidecar := resolved.with_name(stem + sidecar_suffix)).is_file()
    )
    return DataSourceRef(resolved_path=resolved, sidecars=sidecars)


def collect_datasources(project: ProjectFile) -> list[DataSourceRef]:
    """Resolve every layer of a project, skipping non-file sources.

    Non-file sources are dropped with a warning. The result is de-duplicated
    by resolved path, keeping the first occurrence, in order of first
    appearance.
    """
    refs: dict[Path, DataSourceRef] = {}
    for entry in project.layers:
        ref = resolve_datasource(entry, project.path.parent)
        if ref is None:
            logger.warning(
                "skipping non-file datasource of layer %r: %s",
                entry.layer_name,
                entry.raw_datasource.strip(),
            )
        else:
            refs.setdefault(ref.resolved_path, ref)
    return list(refs.values())


def _strip_driver_prefix(candidate: str) -> str:
    match = _DRIVER_PREFIX.match(candidate)
    if match is None:
        return candidate
    rest = match.group(2)
    if rest.startswith('"'):
        closing = rest.find('"', 1)
        if closing > 0:
            return rest[1:closing]
        return rest[1:]
    # Unquoted subdataset syntax: the path runs up to the next colon, if any.
    return rest.split(":", 1)[0]
