"""A software source tree's version as bytes: its id, files and archive.

A clean git working tree is identified by its head commit. Any other tree is
identified by a digest of exactly what its source archive holds: the root
directory's name and, per file, its path, owner-exec bit, size and bytes;
for a dirty working tree, those of its tracked files. :func:`_list_files`
alone lists a version's files, as raw bytes, and :func:`stream_files` alone
reads them, for the id and for the archive (:func:`build_source_archive`).
The AUTHORS file of a tree is parsed here too.
"""

from __future__ import annotations

import hashlib
import logging
import os
import re
import stat
import subprocess
from collections.abc import Callable, Iterable
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .errors import AuthorsFormatError

logger = logging.getLogger(__name__)

#: Directory names that hold version-control metadata, never part of the tree
#: content identity.
VCS_METADATA_DIRS = frozenset({b".git", b".hg", b".svn"})

#: Bytes of one batch of a file stream (:func:`stream_files`).
BATCH = 1024 * 1024

#: Tar block and record sizes; a record is the 20 blocks GNU tar writes at a time.
_BLOCK = 512
_RECORD = 20 * _BLOCK


class VersionKind(Enum):
    COMMIT = "commit"
    TREE_HASH = "treehash"


@dataclass(frozen=True)
class SourceVersion:
    """Exact version identity of a source tree."""

    kind: VersionKind
    id: str
    dirty: bool
    source_dir: Path
    #: (path, posix path under ``source_dir``) as bytes, if detect_version listed them.
    listing: tuple[tuple[bytes, bytes], ...] | None = field(
        default=None, compare=False, repr=False
    )

    @property
    def tag(self) -> str:
        """Deposition tag identifying this exact version."""
        return f"version:{self.kind.value}:{self.id}"

    def files(self) -> tuple[tuple[bytes, bytes], ...]:
        """The files of this version, as raw bytes; a clean commit's are
        listed on each call."""
        if self.listing is None:
            return _list_files(self.source_dir, tracked=self.kind is VersionKind.COMMIT)
        return self.listing


@dataclass(frozen=True)
class AuthorRef:
    """An author with optional per-service repository ids."""

    name: str
    email: str = ""
    service_ids: dict[str, str] = field(default_factory=dict)


def detect_version(source_dir: str | os.PathLike) -> SourceVersion:
    """Determine the version identity of ``source_dir``.

    A clean git working tree is its head commit. Any other tree is a
    :attr:`VersionKind.TREE_HASH` of its files (see :func:`_tree_digest`): a
    dirty working tree's tracked files, with ``dirty`` set, or every file of
    a directory outside git.

    Raises:
        NotADirectoryError: ``source_dir`` does not exist or is not a directory.
        FileNotFoundError: the tree is dirty and git tracks no file under it.
        OSError: a file shrank while it was read.
    """
    directory = Path(os.path.abspath(source_dir))
    if not directory.is_dir():
        raise NotADirectoryError(f"not a directory: {directory}")

    head, dirty = _git_status(directory) or (None, False)
    if head is not None and not dirty:
        return SourceVersion(kind=VersionKind.COMMIT, id=head, dirty=False, source_dir=directory)
    files = _list_files(directory, tracked=dirty)
    return SourceVersion(
        kind=VersionKind.TREE_HASH,
        id=_tree_digest(os.fsencode(directory.name), files),
        dirty=dirty,
        source_dir=directory,
        listing=files,
    )


def _tree_digest(root: bytes, files: tuple[tuple[bytes, bytes], ...]) -> str:
    """SHA-256 of exactly the inputs of the source archive: the root
    directory's name and a NUL byte, then per file in list order its raw
    relative path, a NUL byte, ``b"%d %d\\0" % (owner-exec bit, size)`` and
    its bytes, as :func:`stream_files` reads them. The size delimits the
    content, so no two trees give the same input.

    Raises:
        OSError: a file shrank while it was read.
    """
    digest = hashlib.sha256(root + b"\0")

    def header(name: bytes, executable: bool, size: int) -> bytes:
        return name + b"\0%d %d\0" % (executable, size)

    stream_files(files, header, digest.update)
    return digest.hexdigest()


def build_source_archive(
    version: SourceVersion, dest_dir: Path, digest: hashlib._Hash | None = None
) -> Path:
    """Pack a version's files into a byte-deterministic uncompressed tar.

    Members are the files of :meth:`SourceVersion.files`, in that order,
    rooted under the tree's directory name, with zeroed timestamps and
    normalized ownership/modes, so the same files always yield the same bytes.
    The bytes are those of ``tarfile.GNU_FORMAT``: a name longer than 100
    bytes gets a ``././@LongLink`` header first, and the archive ends on a
    10240-byte record. Each file is read once, by :func:`stream_files` (on
    more than one processor, its worker writes and hashes the archive while
    the next MiB is read), and every byte written is also fed to ``digest``
    (a :mod:`hashlib` object) when one is given.

    Raises:
        FileNotFoundError: git tracks no file under a commit's directory.
        OSError: a file shrank while it was read, or the archive could not
            be written; the archive file is closed first.
    """
    source_dir = version.source_dir
    dest_dir.mkdir(parents=True, exist_ok=True)
    archive_path = dest_dir / f"{source_dir.name}-{version.id[:12]}.tar"
    root = os.fsencode(source_dir.name) + b"/"

    def header(name: bytes, executable: bool, size: int) -> bytes:
        return _member_header(root + name, 0o755 if executable else 0o644, size)

    with open(archive_path, "wb") as tar:

        def sink(data: memoryview | bytes) -> None:
            tar.write(data)
            if digest is not None:
                digest.update(data)

        length = stream_files(version.files(), header, sink, block=_BLOCK)
        # Two zero blocks end the archive, padded to a whole record.
        sink(bytes(2 * _BLOCK + -(length + 2 * _BLOCK) % _RECORD))
    return archive_path


def _member_header(name: bytes, mode: int, size: int) -> bytes:
    """The header block(s) of a regular file, as ``tarfile.GNU_FORMAT``
    writes them."""
    if len(name) <= 100:
        return _header_block(name, mode, size, b"0")
    long_name = name + b"\0"
    return (
        _header_block(b"././@LongLink", 0, len(long_name), b"L")
        + long_name
        + bytes(-len(long_name) % _BLOCK)
        + _header_block(name[:100], mode, size, b"0")
    )


def _header_block(name: bytes, mode: int, size: int, kind: bytes) -> bytes:
    """One 512-byte header: owner, group and mtime 0, no link or user names,
    the GNU magic; a size of 8 GiB or more in GNU base-256."""
    size_field = b"%011o\0" % size if size < 8**11 else b"\x80" + size.to_bytes(11, "big")
    block = b"".join((
        name.ljust(100, b"\0"),
        b"%07o\0" % mode,
        b"0000000\0" * 2,  # uid, gid
        size_field,
        b"00000000000\0",  # mtime
        b" " * 8,  # the checksum field counts as spaces in its own sum
        kind,
        bytes(100),  # link name
        b"ustar  \0",
        bytes(_BLOCK - 265),  # user, group, device numbers, prefix, padding
    ))
    return block[:148] + b"%06o\0" % sum(block) + block[155:]


def stream_files(
    files: Iterable[tuple[bytes, bytes]],
    header: Callable[[bytes, bool, int], bytes],
    sink: Callable[[memoryview], object],
    *,
    block: int = 1,
) -> int:
    """Feed ``sink`` the stream of ``files``, each a (path, name) as bytes: per
    file ``header(name, owner-exec bit, size)``, then its bytes, padded with
    zero bytes to a multiple of ``block``. Return the stream's length.

    Each file is read once, its exec bit and size taken from ``os.fstat`` on
    the open handle, with ``readinto`` straight into a :data:`BATCH`-byte
    buffer, and ``sink`` gets each full buffer and then the last, shorter
    one; it must not keep them. When the process may run on more than one
    processor, once the stream fills its first batch, ``sink`` runs on one
    worker thread: it takes one buffer while this thread fills the other, so
    at most two batches are held. A stream under one batch, or one of a
    process on a single processor, runs ``sink`` on this thread.

    Raises:
        OSError: a file shrank while it was read, naming it and its expected
            size; or the error of ``sink``, as it raised it. The worker has
            finished either way.
    """
    batches = _Batches(sink)
    try:
        for path, name in files:
            with open(path, "rb", buffering=0) as handle:
                status = os.fstat(handle.fileno())
                batches.put(header(name, bool(status.st_mode & stat.S_IXUSR), status.st_size))
                read = batches.read(handle, status.st_size)
            if read < status.st_size:
                raise OSError(
                    f"{os.fsdecode(path)} shrank while it was read: expected {status.st_size}"
                    f" bytes, read {read}"
                )
            padding = -status.st_size % block
            if padding:
                batches.put(bytes(padding))
        return batches.finish()
    finally:
        batches.stop()


class _Batches:
    """A stream cut into :data:`BATCH`-byte batches, each handed to a sink as
    it fills: on one worker thread from the first full batch on when the
    process may run on more than one processor, else on this thread."""

    def __init__(self, sink: Callable[[memoryview], object]):
        self._sink = sink
        self._batch = memoryview(bytearray(BATCH))
        self._spare: memoryview | None = None
        self._filled = 0
        self._shipped = 0
        self._worker: ThreadPoolExecutor | None = None
        self._in_flight: Future | None = None

    def put(self, data: bytes) -> None:
        """Append ``data`` to the stream."""
        while data:
            filled = self._filled
            end = min(filled + len(data), BATCH)
            self._batch[filled:end] = data[: end - filled]
            data = data[end - filled :]
            self._filled = end
            if end == BATCH:
                self._ship()

    def read(self, handle, size: int) -> int:
        """Append up to ``size`` bytes read from ``handle``; return how many
        it held before its end."""
        remaining = size
        while remaining:
            filled = self._filled
            count = handle.readinto(self._batch[filled : min(filled + remaining, BATCH)])
            if not count:
                break
            remaining -= count
            self._filled = filled + count
            if self._filled == BATCH:
                self._ship()
        return size - remaining

    def finish(self) -> int:
        """Hand the last batch to the sink, once the one in flight is done;
        return the stream's length."""
        self._wait()
        self._sink(self._batch[: self._filled])
        return self._shipped + self._filled

    def stop(self) -> None:
        """Let the worker finish the batch in flight, and end it. After an
        error of the stream's own, one the sink may have raised meanwhile is
        dropped."""
        if self._worker is not None:
            self._worker.shutdown()

    def _ship(self) -> None:
        if not self._shipped and _usable_processors() > 1:
            self._worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="geopub-stream")
            self._spare = memoryview(bytearray(BATCH))
        if self._worker is None:
            self._sink(self._batch)
        else:
            # The spare buffer is free once the batch in it is done.
            self._wait()
            self._in_flight = self._worker.submit(self._sink, self._batch)
            self._batch, self._spare = self._spare, self._batch
        self._shipped += BATCH
        self._filled = 0

    def _wait(self) -> None:
        if self._in_flight is not None:
            self._in_flight.result()


def _usable_processors() -> int:
    """The processors this process may run on: its affinity set where the
    platform has one, else the machine's processors (the count Python 3.13
    gives a process)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _list_files(directory: Path, *, tracked: bool) -> tuple[tuple[bytes, bytes], ...]:
    """Regular files under ``directory``, each a (path, relative path) as
    the bytes the file system or git gave, sorted by the relative path's
    bytes: those git tracks when ``tracked``, else all of them with VCS
    metadata excluded. Symlinks are skipped, and so are submodules and
    tracked files deleted from the working tree.

    Raises:
        FileNotFoundError: ``tracked`` and git tracks no regular file under
            ``directory``, as for an untracked directory inside a working tree.
    """
    root = os.fsencode(directory)
    collected: list[tuple[bytes, bytes]] = []
    if tracked:
        listed = subprocess.run(
            ["git", "-C", root, "ls-files", "-z"], capture_output=True, check=True
        ).stdout
        # An unmerged path is listed once per conflict stage.
        for name in dict.fromkeys(listed.split(b"\0")[:-1]):
            path = os.path.join(root, name)
            try:
                mode = os.lstat(path).st_mode
            except OSError:
                continue
            if stat.S_ISREG(mode):
                collected.append((path, name))
        if not collected:
            raise FileNotFoundError(
                f"git tracks no file under {directory}: commit its files, or publish"
                " a copy outside the git working tree"
            )
    else:
        pending = [(root, b"")]
        while pending:
            dirpath, prefix = pending.pop()
            with os.scandir(dirpath) as entries:
                for entry in entries:
                    if entry.is_dir(follow_symlinks=False) and entry.name not in VCS_METADATA_DIRS:
                        pending.append((entry.path, prefix + entry.name + b"/"))
                    elif entry.is_file(follow_symlinks=False):
                        collected.append((entry.path, prefix + entry.name))
    collected.sort(key=lambda item: item[1])
    return tuple(collected)


_AUTHOR_LINE = re.compile(r"^(?P<name>[^<]+?)\s*<(?P<email>[^>]*)>\s*(?P<ids>.*)$")


def parse_authors(source_dir: str | os.PathLike) -> list[AuthorRef]:
    """Read the ``AUTHORS`` file in ``source_dir``, if any.

    Each non-empty, non-``#`` line must have the form::

        Full Name <email> [service:id ...]

    where zero or more trailing ``service:id`` tokens give the author's
    repository-service ids. An absent file yields an empty list.

    Raises:
        AuthorsFormatError: a line is not UTF-8 or matches none of the
            accepted shapes.
    """
    path = Path(source_dir) / "AUTHORS"
    if not path.is_file():
        return []
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The line of the first undecodable byte, numbered as below.
        line_number = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise AuthorsFormatError(line_number, f"not UTF-8: {exc.reason}") from None
    authors: list[AuthorRef] = []
    for line_number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        match = _AUTHOR_LINE.match(stripped)
        if match is None:
            raise AuthorsFormatError(
                line_number, f"expected 'Full Name <email> [service:id ...]', got {stripped!r}"
            )
        name = match["name"].strip()
        if not name:
            raise AuthorsFormatError(line_number, "author name is empty")
        service_ids: dict[str, str] = {}
        for token in match["ids"].split():
            service, sep, value = token.partition(":")
            if not sep or not service or not value:
                raise AuthorsFormatError(line_number, f"malformed service id token {token!r}")
            service_ids[service] = value
        authors.append(AuthorRef(name=name, email=match["email"].strip(), service_ids=service_ids))
    return authors


def _git_status(directory: Path) -> tuple[str, bool] | None:
    """The head commit and whether tracked files differ from it, from one git
    process; None when git is unavailable, the directory is not inside a
    working tree, or the repository has no commits yet."""
    try:
        # Without optional locks git does not write the refreshed index back,
        # so detection leaves the repository untouched and never holds its
        # index.lock against the user's own git commands.
        result = subprocess.run(
            ["git", "-C", str(directory), "status", "--porcelain=v2", "--branch",
             "--untracked-files=no"],
            capture_output=True,
            env={**os.environ, "GIT_OPTIONAL_LOCKS": "0"},
        )
    except FileNotFoundError:
        logger.debug("git executable not found; falling back to tree hash")
        return None
    if result.returncode != 0:
        return None
    head = None
    dirty = False
    # Bytes: a path git prints unquoted (``core.quotepath=false``) need not be UTF-8.
    for line in result.stdout.splitlines():
        if line.startswith(b"# branch.oid "):
            head = line.removeprefix(b"# branch.oid ").decode("ascii")
        elif not line.startswith(b"#"):
            dirty = True
    if head is None or head == "(initial)":
        return None
    return head, dirty
