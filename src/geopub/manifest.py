"""Assemble the checksummed file set and metadata for one publication.

A :class:`PublicationManifest` is the files to upload plus the
:class:`DepositionMeta` the deposition is created with. The manifest is the
single point where missing files are reported: parsing tolerates dangling
references, but a publication must be complete.
"""

from __future__ import annotations

import errno
import hashlib
import json
import logging
import os
import stat
import tempfile
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence, TypeVar

from . import vcs_info
from .errors import MissingFileError
from .qgis_project import DataSourceRef, ProjectFile
from .vcs_info import AuthorRef

logger = logging.getLogger(__name__)

#: Bytes from which a file's hashing or upload may run on a pool thread
#: (see :func:`map_files`).
POOL_MIN_SIZE = 1024 * 1024

_Item = TypeVar("_Item")
_Result = TypeVar("_Result")

#: Header line that opens a Gmsh mesh file.
MESH_HEADER = b"$MeshFormat"

#: The ``os.stat`` errors for which :meth:`Path.is_file` calls a path no
#: file, rather than raise them.
_ABSENT_ERRNOS = frozenset({errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP})


@dataclass(frozen=True)
class ManifestEntry:
    """One file to upload: local path, upload name, size, and digest."""

    path: Path
    name: str
    size: int
    sha256: str


@dataclass(frozen=True)
class DepositionMeta:
    """Metadata sent when creating a deposition."""

    title: str
    description: str = ""
    tags: tuple[str, ...] = ()
    authors: tuple[AuthorRef, ...] = ()


@dataclass(frozen=True)
class PublicationManifest:
    """The complete file set of one publication and the metadata it is
    deposited with."""

    entries: tuple[ManifestEntry, ...]
    meta: DepositionMeta

    @property
    def total_size(self) -> int:
        return sum(entry.size for entry in self.entries)


def checksum_file(path: str | os.PathLike) -> str:
    """SHA-256 of the file's bytes, as a lowercase hex digest."""
    with open(path, "rb") as handle:
        return hashlib.file_digest(handle, "sha256").hexdigest()


def map_files(
    work: Callable[[_Item], _Result], items: Sequence[_Item], sizes: Sequence[int]
) -> list[_Result]:
    """``work`` of each item, in item order; ``sizes`` are the bytes of each
    item's file.

    Items of at least :data:`POOL_MIN_SIZE` bytes run side by side on a pool
    of one thread per processor the process may run on, at most one per
    such item, while the others run in order on this thread. A large file's
    hashing and socket writes release the interpreter lock; a small file's
    work is Python work under it, which a pool thread's hand-offs would only
    slow. Unless two such items and two processors make at least two
    threads, every item runs in order on this thread.

    After a failure no further item starts, those in flight finish, and the
    error of the earliest failed item in order propagates.
    """
    pooled = [size >= POOL_MIN_SIZE for size in sizes]
    workers = min(sum(pooled), vcs_info._usable_processors())
    if workers < 2:
        return [work(item) for item in items]

    failed = threading.Event()

    def guarded(item: _Item) -> _Result | None:
        if failed.is_set():
            return None
        try:
            return work(item)
        except BaseException:
            # Set before a pooled item's future completes, so that no
            # worker starts another item after it.
            failed.set()
            raise

    results: list = [None] * len(items)
    failures: dict[int, BaseException] = {}
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        futures = {
            index: pool.submit(guarded, item) for index, item in enumerate(items) if pooled[index]
        }
        for index, item in enumerate(items):
            if not pooled[index]:
                try:
                    results[index] = guarded(item)
                except Exception as exc:
                    failures[index] = exc
        for index, future in futures.items():
            if future.exception() is None:
                results[index] = future.result()
            else:
                failures[index] = future.exception()
    finally:
        # An interrupt lands here with items still queued; those in flight finish.
        pool.shutdown(cancel_futures=True)
    if failures:
        raise failures[min(failures)]
    return results


def write_durably(path: Path, text: str) -> None:
    """Replace ``path`` with ``text`` through a temporary file beside it.

    The temporary file is fsynced before it is renamed over ``path``, and the
    directory after, so neither an interrupted write nor a power loss leaves
    ``path`` partial or empty: it holds the old text or the new.
    """
    fd, temp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_name, path)
    except BaseException:
        os.unlink(temp_name)
        raise
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


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

    Files of at least :data:`POOL_MIN_SIZE` bytes are hashed side by side,
    one thread per processor the process may run on, and the smaller ones
    on this thread (see :func:`map_files`); the entry order is the order
    above regardless of completion order.

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
    unique = list(dict.fromkeys(paths))

    sizes = [_regular_file_size(path) for path in unique]
    missing = [path for path, size in zip(unique, sizes) if size is None]
    if missing:
        raise MissingFileError(missing)

    if mesh is not None and not _has_mesh_header(mesh):
        logger.warning("mesh file %s does not start with %s", mesh, MESH_HEADER.decode())

    names = _unique_names(unique)
    digests = map_files(checksum_file, unique, sizes)

    entries = tuple(
        ManifestEntry(path=path, name=name, size=size, sha256=digest)
        for path, name, size, digest in zip(unique, names, sizes, digests)
    )

    derived_title, derived_tags = derive_metadata(project)
    meta = DepositionMeta(
        title=title if title is not None else derived_title,
        description=description
        if description is not None
        else f"Files of QGIS project {project.path.name} ({len(entries)} files in total).",
        tags=tuple(derived_tags),
    )
    return PublicationManifest(entries=entries, meta=meta)


def manifest_to_json(manifest: PublicationManifest) -> str:
    """The manifest as a JSON document (the dry-run preview format)."""
    return json.dumps(
        {
            "title": manifest.meta.title,
            "tags": list(manifest.meta.tags),
            "entries": [
                {"name": entry.name, "size": entry.size, "sha256": entry.sha256}
                for entry in manifest.entries
            ],
            "total_size": manifest.total_size,
        },
        indent=2,
    )


def _regular_file_size(path: Path) -> int | None:
    """The size of ``path``, from one ``os.stat``; None where
    :meth:`Path.is_file` is false for it."""
    try:
        status = os.stat(path)
    except OSError as exc:
        if exc.errno in _ABSENT_ERRNOS:
            return None
        raise
    except ValueError:  # a name no file system can hold
        return None
    return status.st_size if stat.S_ISREG(status.st_mode) else None


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
