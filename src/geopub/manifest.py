"""Assemble the checksummed file set and metadata for one data publication.

The manifest is the single point where missing files are reported: parsing
tolerates dangling references, but a publication must be complete.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .errors import MissingFileError
from .qgis_project import DataSourceRef, ProjectFile
from .vcs_info import AuthorRef

logger = logging.getLogger(__name__)

_CHUNK = 1024 * 1024

#: Header line that opens a Gmsh mesh file.
MESH_HEADER = b"$MeshFormat"


@dataclass(frozen=True)
class ManifestEntry:
    """One file to upload: local path, upload name, size, and digest."""

    path: Path
    name: str
    size: int
    sha256: str


@dataclass(frozen=True)
class PublicationManifest:
    """The complete file set plus derived metadata for one publication."""

    entries: tuple[ManifestEntry, ...]
    title: str
    description: str
    tags: tuple[str, ...]
    authors: tuple[AuthorRef, ...]
    total_size: int


def checksum_file(path: str | os.PathLike) -> str:
    """SHA-256 of the file's bytes, as a lowercase hex digest."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while chunk := handle.read(_CHUNK):
            digest.update(chunk)
    return digest.hexdigest()


def derive_metadata(project: ProjectFile) -> tuple[str, list[str]]:
    """Repository title and tags derived from the project.

    The title is the project's own title when non-empty, else the filename
    stem. Tags are the lowercase-normalized, de-duplicated sequence of the
    filename stem, each layer name, and the fixed tag ``qgis``.
    """
    stem = project.path.stem
    title = project.title if project.title else stem
    tags: list[str] = []
    for raw in [stem, *(layer.layer_name for layer in project.layers), "qgis"]:
        tag = raw.strip().lower()
        if tag and tag not in tags:
            tags.append(tag)
    return title, tags


def build_manifest(
    project: ProjectFile,
    sources: Sequence[DataSourceRef],
    mesh_path: str | os.PathLike | None = None,
    *,
    title: str | None = None,
    description: str | None = None,
) -> PublicationManifest:
    """Build the checksummed manifest for a project and its datasources.

    Entries are the project file itself, every source file with its sidecars,
    and the mesh file when given, in that order. Duplicate upload names are
    disambiguated with parent-directory prefixes. ``title`` and
    ``description`` override the derived defaults when given.

    Per-file hashing runs on a worker pool of one thread per processor; the
    entry order is deterministic regardless of completion order.

    Raises:
        MissingFileError: any referenced file is absent; lists every missing
            path, not just the first.
    """
    paths: list[Path] = [project.path]
    for source in sources:
        paths.append(source.resolved_path)
        paths.extend(source.sidecars)
    mesh: Path | None = None
    if mesh_path is not None:
        mesh = Path(os.path.abspath(mesh_path))
        paths.append(mesh)

    # The same file may be referenced twice (e.g. the mesh also appearing as
    # a layer); keep the first occurrence.
    unique: list[Path] = []
    seen: set[Path] = set()
    for path in paths:
        if path not in seen:
            seen.add(path)
            unique.append(path)

    missing = [path for path in unique if not path.is_file()]
    if missing:
        raise MissingFileError(missing)

    if mesh is not None and not _has_mesh_header(mesh):
        logger.warning("mesh file %s does not start with %s", mesh, MESH_HEADER.decode())

    names = _unique_names(unique)
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        digests = list(pool.map(checksum_file, unique))

    entries = tuple(
        ManifestEntry(path=path, name=name, size=path.stat().st_size, sha256=digest)
        for path, name, digest in zip(unique, names, digests)
    )

    derived_title, derived_tags = derive_metadata(project)
    return PublicationManifest(
        entries=entries,
        title=title if title is not None else derived_title,
        description=description
        if description is not None
        else f"Files of QGIS project {project.path.name} ({len(entries)} files in total).",
        tags=tuple(derived_tags),
        authors=(),
        total_size=sum(entry.size for entry in entries),
    )


def manifest_to_json(manifest: PublicationManifest) -> str:
    """The manifest as a JSON document (the dry-run preview format)."""
    return json.dumps(
        {
            "title": manifest.title,
            "tags": list(manifest.tags),
            "entries": [
                {"name": entry.name, "size": entry.size, "sha256": entry.sha256}
                for entry in manifest.entries
            ],
            "total_size": manifest.total_size,
        },
        indent=2,
    )


def _has_mesh_header(path: Path) -> bool:
    try:
        with open(path, "rb") as handle:
            head = handle.read(65536)
    except OSError:
        return False
    for line in head.splitlines():
        if line.strip():
            return line.strip() == MESH_HEADER
    return False


def _unique_names(paths: Sequence[Path]) -> list[str]:
    """Upload names for ``paths``: basenames, with colliding ones prefixed by
    as many parent directory names (joined with ``__``) as needed."""

    def candidate(path: Path, depth: int) -> str:
        if depth == 0:
            return path.name
        parents = [p.name for p in path.parents if p.name]
        prefix = "__".join(reversed(parents[:depth]))
        return f"{prefix}__{path.name}" if prefix else path.name

    depths = [0] * len(paths)
    names = [candidate(p, d) for p, d in zip(paths, depths)]
    for _ in range(32):
        duplicated = {name for name, count in Counter(names).items() if count > 1}
        if not duplicated:
            return names
        for i, name in enumerate(names):
            if name in duplicated:
                depths[i] += 1
        names = [candidate(p, d) for p, d in zip(paths, depths)]

    # Pathological trees: fall back to a numeric suffix.
    seen: Counter[str] = Counter()
    result = []
    for name in names:
        seen[name] += 1
        result.append(name if seen[name] == 1 else f"{name}.{seen[name] - 1}")
    return result
