"""Version identity of a software source tree, plus its author list.

A tree under git is identified by its head commit (with a dirty flag when
tracked files have uncommitted changes). A plain directory falls back to a
content hash over its files, so any tree gets a stable version id.
"""

from __future__ import annotations

import hashlib
import logging
import os
import re
import subprocess
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .errors import AuthorsFormatError

logger = logging.getLogger(__name__)

#: Directory names that hold version-control metadata, never part of the tree
#: content identity.
VCS_METADATA_DIRS = frozenset({".git", ".hg", ".svn"})

_CHUNK = 1024 * 1024


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


@dataclass(frozen=True)
class AuthorRef:
    """An author with optional per-service repository ids."""

    name: str
    email: str = ""
    service_ids: dict[str, str] = field(default_factory=dict)


def detect_version(source_dir: str | os.PathLike) -> SourceVersion:
    """Determine the version identity of ``source_dir``.

    Inside a git working tree the identity is the current head commit;
    otherwise it is the content hash computed by :func:`tree_hash`.

    Raises:
        NotADirectoryError: ``source_dir`` does not exist or is not a directory.
    """
    directory = Path(os.path.abspath(source_dir))
    if not directory.is_dir():
        raise NotADirectoryError(f"not a directory: {directory}")

    git = _git_status(directory)
    if git is not None:
        head, dirty = git
        return SourceVersion(kind=VersionKind.COMMIT, id=head, dirty=dirty, source_dir=directory)
    return SourceVersion(
        kind=VersionKind.TREE_HASH,
        id=tree_hash(directory),
        dirty=False,
        source_dir=directory,
    )


def tree_hash(directory: str | os.PathLike) -> str:
    """Content hash of every regular file under ``directory``.

    SHA-256 over the concatenation, in lexicographic relative-path order, of
    ``(relative path bytes, 0x00, file content bytes, 0x00)`` per file.
    Version-control metadata directories and symlinks are excluded, and the
    result does not depend on filesystem listing order.
    """
    root = Path(os.path.abspath(directory))
    digest = hashlib.sha256()
    for path, relative in iter_source_files(root):
        digest.update(relative.encode("utf-8"))
        digest.update(b"\x00")
        with open(path, "rb") as handle:
            while chunk := handle.read(_CHUNK):
                digest.update(chunk)
        digest.update(b"\x00")
    return digest.hexdigest()


def iter_source_files(root: Path) -> list[tuple[Path, str]]:
    """Regular files under ``root`` as (path, posix relative path) pairs,
    sorted by the UTF-8 bytes of the relative path, VCS metadata excluded."""
    collected: list[tuple[Path, str]] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in VCS_METADATA_DIRS]
        for filename in filenames:
            path = Path(dirpath) / filename
            if path.is_symlink() or not path.is_file():
                continue
            collected.append((path, path.relative_to(root).as_posix()))
    collected.sort(key=lambda item: item[1].encode("utf-8"))
    return collected


_AUTHOR_LINE = re.compile(r"^(?P<name>[^<]+?)\s*<(?P<email>[^>]*)>\s*(?P<ids>.*)$")


def parse_authors(source_dir: str | os.PathLike) -> list[AuthorRef]:
    """Read the ``AUTHORS`` file in ``source_dir``, if any.

    Each non-empty, non-``#`` line must have the form::

        Full Name <email> [service:id ...]

    where zero or more trailing ``service:id`` tokens give the author's
    repository-service ids. An absent file yields an empty list.

    Raises:
        AuthorsFormatError: a line matches none of the accepted shapes.
    """
    path = Path(source_dir) / "AUTHORS"
    if not path.is_file():
        return []
    authors: list[AuthorRef] = []
    for line_number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
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
        result = subprocess.run(
            ["git", "-C", str(directory), "status", "--porcelain=v2", "--branch",
             "--untracked-files=no"],
            capture_output=True,
            text=True,
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
