"""The two publication flows: project data, and software source trees.

Data publication: :func:`plan_data` builds the checksummed manifest, link
tag included, with no network traffic (the dry-run preview);
:func:`publish_data` then creates, uploads and publishes it.

Software publication: detect the exact source version, look for an existing
publication of it first (server-side search when the backend supports it,
else the local DOI cache), and only create a new deposition when none is
found. It holds a byte-deterministic tar archive of the files that
:mod:`.vcs_info` lists for the version: the tracked files of a commit, or
every file of a plain tree.
"""

from __future__ import annotations

import datetime as _dt
import fcntl
import json
import logging
import os
import tarfile
import tempfile
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import CacheCorruptError, CacheLockError, NotFoundError, ProtocolError, ValidationError
from .manifest import ManifestEntry, PublicationManifest, build_manifest, checksum_file
from .qgis_project import collect_datasources, parse_project
from .repo_protocol import (
    BackendProfile,
    Deposition,
    DepositionMeta,
    DepositionState,
    PublicationResult,
    RepositoryClient,
)
from .vcs_info import SourceVersion, detect_version, parse_authors

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

    Writes are atomic (temp file and rename) and guarded by an advisory
    ``flock`` on a sibling ``.lock`` file; a concurrent writer fails fast
    instead of corrupting the cache. The kernel drops the lock when its
    holder exits, so a crashed run leaves nothing to clean up. A cache
    file that exists but cannot be parsed aborts the operation rather than
    being silently reset.
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
        fd, temp_name = tempfile.mkstemp(dir=self.path.parent, prefix=self.path.name + ".")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=2)
            os.replace(temp_name, self.path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except FileNotFoundError:
                pass
            raise

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
    return replace(manifest, tags=manifest.tags + link_tags)


def publish_data(
    profile: BackendProfile,
    project_path: str | os.PathLike,
    mesh_path: str | os.PathLike | None = None,
    *,
    private: bool = False,
    title: str | None = None,
    description: str | None = None,
    related_software_doi: str | None = None,
    client: RepositoryClient | None = None,
) -> PublicationResult:
    """Publish a project's complete provenance, as planned by
    :func:`plan_data`.

    All files are checksummed before any network traffic, and after the
    client is made, so a profile it rejects costs no hashing. On an upload
    failure the draft deposition is abandoned (its id is logged for manual
    cleanup) and the error propagates.
    """
    client = client or RepositoryClient(profile)
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
    client: RepositoryClient | None = None,
) -> SoftwarePublication:
    """Publish a software source tree, reusing an existing DOI when that
    exact version was published before.

    Lookup order: server-side tag search when the backend supports it, else
    the local DOI cache (when one is given). Without either, every run
    creates a new deposition. A public run that finds a private publication
    of the version makes it public, so the returned DOI is active. A given
    cache is locked for the whole run. Dirty working trees are publishable;
    their version tag carries ``-dirty-`` and the digest of their tracked
    files, and a warning is emitted. The client is made before the tree is
    read, so a profile it rejects costs no hashing.
    """
    client = client or RepositoryClient(profile)
    version = detect_version(source_dir)
    if version.dirty:
        logger.warning(
            "working tree %s is dirty (uncommitted changes); publishing anyway",
            version.source_dir,
        )

    with cache.lock() if cache is not None else nullcontext():
        deposition = _find_published(profile, client, cache, version)
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
            archive = build_source_archive(version, Path(scratch))
            entry = ManifestEntry(
                path=archive,
                name=archive.name,
                size=archive.stat().st_size,
                sha256=checksum_file(archive),
            )
            manifest = PublicationManifest(
                entries=(entry,),
                title=f"{source_dir.name} source ({version.id[:12]})",
                description=f"Source tree of {source_dir.name} at version {version.key}.",
                tags=(version.tag, source_dir.name.lower()),
                authors=tuple(authors),
                total_size=entry.size,
            )
            result = _deposit(client, manifest, private=private)

        if cache is not None:
            cache.put(
                DoiCacheRecord(
                    backend_name=profile.name,
                    version_id=version.key,
                    publication_id=result.publication_id,
                    doi=result.doi,
                    created_at=_dt.datetime.now(_dt.timezone.utc).isoformat(),
                )
            )
    return SoftwarePublication(result=result, version=version, reused=False)


def _find_published(
    profile: BackendProfile,
    client: RepositoryClient,
    cache: DoiCache | None,
    version: SourceVersion,
) -> Deposition | None:
    """The existing publication of a software version: found by tag search
    when the backend supports it, else through the DOI cache, if any."""
    if profile.can_search:
        hits = client.search_by_tag(version.tag)
        if not hits:
            return None
        deposition = client.get_deposition(hits[0].id)
        logger.info("version already published as %s; reusing", deposition.doi)
        return deposition
    record = cache.get(profile.name, version.key) if cache is not None else None
    if record is None:
        return None
    try:
        deposition = client.get_deposition(record.publication_id)
    except NotFoundError:
        logger.warning(
            "cached publication %d no longer exists on %s; republishing",
            record.publication_id,
            profile.name,
        )
        return None
    logger.info("version found in DOI cache as %s; reusing", record.doi)
    return deposition


def build_source_archive(version: SourceVersion, dest_dir: Path) -> Path:
    """Pack a version's files into a byte-deterministic uncompressed tar.

    Members are the files of :meth:`SourceVersion.files`, in that order,
    rooted under the tree's directory name, with zeroed timestamps and
    normalized ownership/modes, so the same files always yield the same bytes.

    Raises:
        FileNotFoundError: git tracks no file under a commit's directory.
    """
    source_dir = version.source_dir
    dest_dir.mkdir(parents=True, exist_ok=True)
    archive_path = dest_dir / f"{source_dir.name}-{version.id[:12]}.tar"
    with tarfile.open(archive_path, "w", format=tarfile.GNU_FORMAT) as tar:
        for path, relative in version.files():
            stat = os.stat(path)
            info = tarfile.TarInfo(name=f"{source_dir.name}/{relative}")
            info.size = stat.st_size
            info.mtime = 0
            info.mode = 0o755 if stat.st_mode & 0o100 else 0o644
            info.uid = info.gid = 0
            info.uname = info.gname = ""
            with open(path, "rb") as handle:
                tar.addfile(info, handle)
    return archive_path


def _deposit(
    client: RepositoryClient,
    manifest: PublicationManifest,
    *,
    private: bool,
) -> PublicationResult:
    """Create, upload everything, publish. The draft is abandoned on upload
    failure and its id logged for manual cleanup."""
    meta = DepositionMeta(
        title=manifest.title,
        description=manifest.description,
        tags=manifest.tags,
        authors=manifest.authors,
    )
    deposition = client.create_deposition(meta, private=private)
    logger.info(
        "created draft deposition %d (doi %s, %d files to upload)",
        deposition.id,
        deposition.doi,
        len(manifest.entries),
    )
    try:
        for entry in manifest.entries:
            with open(entry.path, "rb") as handle:
                client.upload_file(deposition.id, entry, handle)
            logger.info("uploaded %s (%d bytes)", entry.name, entry.size)
    except ProtocolError:
        logger.error(
            "upload failed; draft deposition %d was left on the server, "
            "clean it up manually",
            deposition.id,
        )
        raise
    return client.publish_deposition(deposition.id, private=private)
