"""Version identity of a software source tree, its files, and its authors.

A clean git working tree is identified by its head commit. Any other tree is
identified by a digest of exactly what its source archive holds: the root
directory's name and, per file, its path, owner-exec bit, size and bytes;
for a dirty working tree, those of its tracked files. :func:`_list_files`
alone lists a version's files, for the id and for the source archive.
"""

from __future__ import annotations

import hashlib
import logging
import os
import re
import subprocess
import sys
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .errors import AuthorsFormatError

logger = logging.getLogger(__name__)

#: Directory names that hold version-control metadata, never part of the tree
#: content identity.
VCS_METADATA_DIRS = frozenset({".git", ".hg", ".svn"})

_CHUNK = 1024 * 1024

#: The codec of :func:`os.fsencode`, which gives back the bytes of a name as
#: the file system holds them. ``str.encode`` with it skips the wrapper's
#: cost, paid twice per file on every plain-tree reuse.
_FS_ENCODING = sys.getfilesystemencoding()
_FS_ERRORS = sys.getfilesystemencodeerrors()


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
    #: (path, posix path under ``source_dir``) of each file, if detect_version listed them.
    listing: tuple[tuple[str, str], ...] | None = field(default=None, compare=False, repr=False)

    @property
    def tag(self) -> str:
        """Deposition tag identifying this exact version."""
        return f"version:{self.kind.value}:{self.id}"

    def files(self) -> tuple[tuple[str, str], ...]:
        """The files of this version; a clean commit's are listed on each call."""
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
        OSError: a file shrank while it was hashed.
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
        id=_tree_digest(directory.name, files),
        dirty=dirty,
        source_dir=directory,
        listing=files,
    )


def _tree_digest(root_name: str, files: tuple[tuple[str, str], ...]) -> str:
    """SHA-256 of exactly the inputs of the source archive: the root
    directory's name and a NUL byte, then per file in list order its
    relative path, a NUL byte, ``b"%d %d\\0" % (owner-exec bit, size)`` and
    its bytes. A path's bytes are those of its name on the file system
    (:func:`os.fsencode`); the size delimits the content, so no two trees
    give the same input.

    Raises:
        OSError: a file shrank while it was hashed.
    """
    digest = hashlib.sha256(root_name.encode(_FS_ENCODING, _FS_ERRORS) + b"\0")
    for path, relative in files:
        with open(path, "rb", buffering=0) as handle:
            stat = os.fstat(handle.fileno())
            digest.update(relative.encode(_FS_ENCODING, _FS_ERRORS))
            digest.update(b"\0%d %d\0" % (stat.st_mode >> 6 & 1, stat.st_size))
            remaining = stat.st_size
            while remaining:
                chunk = handle.read(min(remaining, _CHUNK))
                if not chunk:
                    raise OSError(
                        f"{path} shrank while it was hashed: expected"
                        f" {stat.st_size} bytes, read {stat.st_size - remaining}"
                    )
                digest.update(chunk)
                remaining -= len(chunk)
    return digest.hexdigest()


def _list_files(directory: Path, *, tracked: bool) -> tuple[tuple[str, str], ...]:
    """Regular files under ``directory``, sorted by the bytes of the relative
    path as the file system holds them (:func:`os.fsencode`): those git
    tracks when ``tracked``, else all of them with VCS metadata excluded.
    Symlinks are skipped, and so are submodules and tracked files deleted
    from the working tree.

    Raises:
        FileNotFoundError: ``tracked`` and git tracks no regular file under
            ``directory``, as for an untracked directory inside a working tree.
    """
    collected: list[tuple[str, str]] = []
    if tracked:
        listed = subprocess.run(
            ["git", "-C", directory, "ls-files", "-z"], capture_output=True, check=True
        ).stdout
        # An unmerged path is listed once per conflict stage.
        for relative in dict.fromkeys(os.fsdecode(listed).split("\0")[:-1]):
            path = os.path.join(directory, relative)
            if os.path.isfile(path) and not os.path.islink(path):
                collected.append((path, relative))
        if not collected:
            raise FileNotFoundError(
                f"git tracks no file under {directory}: commit its files, or publish"
                " a copy outside the git working tree"
            )
    else:
        pending = [(directory, "")]
        while pending:
            dirpath, prefix = pending.pop()
            with os.scandir(dirpath) as entries:
                for entry in entries:
                    if entry.is_dir(follow_symlinks=False) and entry.name not in VCS_METADATA_DIRS:
                        pending.append((entry.path, prefix + entry.name + "/"))
                    elif entry.is_file(follow_symlinks=False):
                        collected.append((entry.path, prefix + entry.name))
    collected.sort(key=lambda item: item[1].encode(_FS_ENCODING, _FS_ERRORS))
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
            text=True,
            env={**os.environ, "GIT_OPTIONAL_LOCKS": "0"},
        )
    except FileNotFoundError:
        logger.debug("git executable not found; falling back to tree hash")
        return None
    if result.returncode != 0:
        return None
    head = None
    dirty = False
    for line in result.stdout.splitlines():
        if line.startswith("# branch.oid "):
            head = line.removeprefix("# branch.oid ")
        elif not line.startswith("#"):
            dirty = True
    if head is None or head == "(initial)":
        return None
    return head, dirty
