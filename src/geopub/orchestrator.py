"""The two publication flows: project data, and software source trees.

Data publication: :func:`plan_data` builds the checksummed manifest, link
tag included, with no network traffic (the dry-run preview);
:func:`publish_data` then creates, uploads and publishes it.

Software publication: detect the exact source version, look for an existing
publication of it first (server-side search when the backend supports it,
else the local DOI cache), and only create a new deposition when none is
found. It holds the version's source archive, which :mod:`.vcs_info` writes
beside the id it must equal. The DOI cache (:class:`DoiCache`) maps a
version to its publication on a backend without search.
"""

from __future__ import annotations

import datetime as _dt
import fcntl
import hashlib
import json
import logging
import os
import tempfile
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import CacheCorruptError, CacheLockError, NotFoundError, ValidationError
from .manifest import (
    DepositionMeta,
    ManifestEntry,
    PublicationManifest,
    build_manifest,
    map_files,
    write_durably,
)
from .qgis_project import collect_datasources, parse_project
from .repo_protocol import (
    BackendProfile,
    Deposition,
    DepositionState,
    PublicationResult,
    RepositoryClient,
)
from .vcs_info import SourceVersion, build_source_archive, detect_version, parse_authors

logger = logging.getLogger(__name__)

#: The ``artifact_kind`` of every DOI cache record: only software versions
#: are cached.
_ARTIFACT_KIND = "software"


@dataclass(frozen=True)
class DoiCacheRecord:
    """Persisted mapping from a published version to its identifiers."""

    backend_name: str
    version_id: str
    publication_id: int
    doi: str
    created_at: str

    def key(self) -> tuple[str, str]:
        return (self.backend_name, self.version_id)


@dataclass(frozen=True)
class SoftwarePublication:
    """Result of a software publication, with reuse provenance."""

    result: PublicationResult
    version: SourceVersion
    reused: bool


class DoiCache:
    """JSON-file-backed map from (backend, software version) to DOI.

    Writes are atomic and durable (:func:`manifest.write_durably`) and
    guarded by an advisory ``flock`` on a sibling ``.lock`` file; a
    concurrent writer fails fast instead of corrupting the cache. The kernel
    drops the lock when its holder exits, so a crashed run leaves nothing to
    clean up. A cache file that exists but cannot be parsed aborts the
    operation rather than being silently reset.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self._held = False

    def get(self, backend_name: str, version_id: str) -> DoiCacheRecord | None:
        wanted = (backend_name, version_id)
        for record in self._load():
            if record.key() == wanted:
                return record
        return None

    def put(self, record: DoiCacheRecord) -> None:
        """Insert or overwrite the record with the same key."""
        if self._held:
            self._put_locked(record)
        else:
            with self.lock():
                self._put_locked(record)

    @contextmanager
    def lock(self):
        """Hold the cache's writer lock; a second holder fails fast."""
        lock_path = self.path.with_name(self.path.name + ".lock")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # The lock file is never removed: unlinking it would let a third run
        # lock a fresh file while a second still holds the old one.
        fd = os.open(lock_path, os.O_CREAT | os.O_WRONLY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(fd)
            raise CacheLockError(
                f"cache {self.path} is locked by another run (lock file {lock_path})"
            ) from None
        self._held = True
        try:
            yield self
        finally:
            self._held = False
            os.close(fd)

    def _put_locked(self, record: DoiCacheRecord) -> None:
        records = [r for r in self._load() if r.key() != record.key()]
        records.append(record)
        document = {
            "records": [
                {
                    "backend_name": r.backend_name,
                    "artifact_kind": _ARTIFACT_KIND,
                    "version_id": r.version_id,
                    "publication_id": r.publication_id,
                    "doi": r.doi,
                    "created_at": r.created_at,
                }
                for r in records
            ]
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        write_durably(self.path, json.dumps(document, indent=2))

    def _load(self) -> list[DoiCacheRecord]:
        if not self.path.exists():
            return []
        try:
            document = json.loads(self.path.read_text(encoding="utf-8"))
            if any(raw["artifact_kind"] != _ARTIFACT_KIND for raw in document["records"]):
                raise ValueError(f"a record's artifact_kind is not {_ARTIFACT_KIND!r}")
            return [
                DoiCacheRecord(
                    backend_name=raw["backend_name"],
                    version_id=raw["version_id"],
                    publication_id=int(raw["publication_id"]),
                    doi=raw["doi"],
                    created_at=raw["created_at"],
                )
                for raw in document["records"]
            ]
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise CacheCorruptError(f"cache file {self.path} is unreadable: {exc}") from exc


def plan_data(
    project_path: str | os.PathLike,
    mesh_path: str | os.PathLike | None = None,
    *,
    title: str | None = None,
    description: str | None = None,
    related_software_doi: str | None = None,
) -> PublicationManifest:
    """The checksummed manifest :func:`publish_data` deposits: the project
    file, every referenced data file with sidecars and the optional mesh,
    tagged ``uses-software-doi:<doi>`` when a related software DOI is given.

    Raises:
        ValidationError: ``related_software_doi`` is given but blank.
        MissingFileError: any referenced file is absent.
    """
    link_tags: tuple[str, ...] = ()
    if related_software_doi is not None:
        if not related_software_doi.strip():
            raise ValidationError("software DOI must be non-empty")
        link_tags = (f"uses-software-doi:{related_software_doi.strip()}",)
    project = parse_project(project_path)
    manifest = build_manifest(
        project, collect_datasources(project), mesh_path, title=title, description=description
    )
    meta = manifest.meta
    return replace(manifest, meta=replace(meta, tags=meta.tags + link_tags))


def publish_data(
    profile: BackendProfile,
    project_path: str | os.PathLike,
    mesh_path: str | os.PathLike | None = None,
    *,
    private: bool = False,
    title: str | None = None,
    description: str | None = None,
    related_software_doi: str | None = None,
) -> PublicationResult:
    """Publish a project's complete provenance, as planned by
    :func:`plan_data`.

    All files are checksummed before any network traffic, and after the
    client is made, so a profile it rejects costs no hashing. Files of at
    least :data:`~geopub.manifest.POOL_MIN_SIZE` bytes upload side by side,
    one thread per processor the process may run on, and the smaller ones in
    manifest order, so the deposition may list the large files in another
    order. On an upload failure no further upload starts, the draft
    deposition is abandoned (its id is logged once for manual cleanup) and
    the error of the earliest failed file in manifest order propagates.
    """
    client = RepositoryClient(profile)
    manifest = plan_data(
        project_path,
        mesh_path,
        title=title,
        description=description,
        related_software_doi=related_software_doi,
    )
    return _deposit(client, manifest, private=private)


def publish_software(
    profile: BackendProfile,
    source_dir: str | os.PathLike,
    *,
    private: bool = False,
    cache: DoiCache | None = None,
) -> SoftwarePublication:
    """Publish a software source tree, reusing an existing DOI when that
    exact version was published before.

    Lookup order: server-side tag search when the backend supports it, else
    the local DOI cache (when one is given). Without either, every run
    creates a new deposition. A public run that finds a private publication
    of the version makes it public, so the returned DOI is active. A given
    cache is locked for the whole run. Dirty working trees are publishable;
    their version tag is the tree hash of their tracked files, and a warning
    is emitted. The client is made before the tree is read, so a profile it
    rejects costs no hashing.
    """
    client = RepositoryClient(profile)
    version = detect_version(source_dir)
    if version.dirty:
        logger.warning(
            "working tree %s is dirty (uncommitted changes); publishing anyway",
            version.source_dir,
        )

    with cache.lock() if cache is not None else nullcontext():
        deposition = _find_published(client, cache, version)
        if deposition is not None:
            if not private and deposition.state is DepositionState.PRIVATE:
                logger.info("making private publication %d public", deposition.id)
                result = client.make_public(deposition.id)
            else:
                result = PublicationResult(deposition.id, deposition.doi, deposition.doi_active)
            return SoftwarePublication(result=result, version=version, reused=True)

        source_dir = version.source_dir
        authors = parse_authors(source_dir)
        with tempfile.TemporaryDirectory(prefix="geopub-archive-") as scratch:
            digest = hashlib.sha256()
            archive = build_source_archive(version, Path(scratch), digest=digest)
            entry = ManifestEntry(
                path=archive,
                name=archive.name,
                size=archive.stat().st_size,
                sha256=digest.hexdigest(),
            )
            manifest = PublicationManifest(
                entries=(entry,),
                meta=DepositionMeta(
                    title=f"{source_dir.name} source ({version.id[:12]})",
                    description=f"Source tree of {source_dir.name} at version {version.id}.",
                    tags=(version.tag, source_dir.name.lower()),
                    authors=tuple(authors),
                ),
            )
            result = _deposit(client, manifest, private=private)

        if cache is not None:
            cache.put(
                DoiCacheRecord(
                    backend_name=profile.name,
                    version_id=version.id,
                    publication_id=result.publication_id,
                    doi=result.doi,
                    created_at=_dt.datetime.now(_dt.timezone.utc).isoformat(),
                )
            )
    return SoftwarePublication(result=result, version=version, reused=False)


def _find_published(
    client: RepositoryClient,
    cache: DoiCache | None,
    version: SourceVersion,
) -> Deposition | None:
    """The existing publication of a software version: found by tag search
    when the client's backend supports it, else through the DOI cache, if
    any. A cached id counts only while its deposition carries the version's
    tag."""
    profile = client.profile
    if profile.can_search:
        hits = client.search_by_tag(version.tag)
        if not hits:
            return None
        logger.info("version already published as %s; reusing", hits[0].doi)
        return hits[0]
    record = cache.get(profile.name, version.id) if cache is not None else None
    if record is None:
        return None
    try:
        deposition = client.get_deposition(record.publication_id)
    except NotFoundError:
        deposition = None
    # A server that lost its state may have given the id to another deposition.
    if deposition is None or version.tag not in deposition.tags:
        logger.warning(
            "cached publication %d on %s is gone or does not carry %s; republishing",
            record.publication_id,
            profile.name,
            version.tag,
        )
        return None
    logger.info("version found in DOI cache as %s; reusing", record.doi)
    return deposition


def _deposit(
    client: RepositoryClient,
    manifest: PublicationManifest,
    *,
    private: bool,
) -> PublicationResult:
    """Create, upload everything (see :func:`_upload_all`), publish. On any
    failure after create the draft is abandoned, its id logged once for
    manual cleanup, and the error re-raised."""
    deposition = client.create_deposition(manifest.meta, private=private)
    logger.info(
        "created draft deposition %d (doi %s, %d files to upload)",
        deposition.id,
        deposition.doi,
        len(manifest.entries),
    )
    try:
        _upload_all(client, deposition.id, manifest.entries)
        return client.publish_deposition(deposition.id, private=private)
    except BaseException:
        logger.error(
            "publishing failed; draft deposition %d was left on the server, "
            "clean it up manually",
            deposition.id,
        )
        raise


def _upload_all(
    client: RepositoryClient, deposition_id: int, entries: tuple[ManifestEntry, ...]
) -> None:
    """Upload every entry to the draft, each on a keep-alive connection of
    the thread that uploads it. :func:`~geopub.manifest.map_files` runs the
    large ones side by side, one thread per processor the process may run
    on, and stops the rest after a failure."""

    def upload(entry: ManifestEntry) -> None:
        with open(entry.path, "rb") as handle:
            client.upload_file(deposition_id, entry, handle)
        logger.info("uploaded %s (%d bytes)", entry.name, entry.size)

    map_files(upload, entries, [entry.size for entry in entries])
