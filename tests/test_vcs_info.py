from __future__ import annotations

import hashlib
import os
import random
import stat
import subprocess
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from geopub import vcs_info
from geopub.errors import AuthorsFormatError
from geopub.vcs_info import (
    BATCH,
    AuthorRef,
    VersionKind,
    detect_version,
    parse_authors,
    stream_files,
)

# Frozen from independent runs of the tree-hash rule through sha256sum, for a
# directory named ``tree``:
#   printf 'tree\x00' | sha256sum
EMPTY_SHA256 = "4c91b08843fdda8593f1552b5a6f10075310e7773fed804c20e24813c963f26f"
#   printf 'tree\x00a.txt\x000 6\x00alpha\nsub/b.txt\x000 5\x00beta\n' | sha256sum
TWO_FILE_TREE_SHA256 = "118c3fda780d388f23fe35b476bd651d66fbbf57c3fc8598a9908ad41d49051c"


def _git(repo: Path, *args: str) -> str:
    result = subprocess.run(
        ["git", "-C", str(repo), "-c", "user.email=t@example.org", "-c", "user.name=T", *args],
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout.strip()


@pytest.fixture
def git_repo(tmp_path: Path) -> Path:
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    (repo / "module.py").write_text("VALUE = 1\n")
    (repo / "README").write_text("readme\n")
    _git(repo, "add", ".")
    _git(repo, "commit", "-q", "-m", "initial")
    return repo


class TestDetectVersion:
    def test_clean_checkout_matches_git_head(self, git_repo):
        expected_head = _git(git_repo, "rev-parse", "HEAD")
        version = detect_version(git_repo)
        assert version.kind is VersionKind.COMMIT
        assert version.id == expected_head
        assert version.dirty is False

    def test_edited_tracked_file_is_dirty_tree_hash(self, git_repo):
        (git_repo / "module.py").write_text("VALUE = 2\n")
        version = detect_version(git_repo)
        assert version.dirty is True
        assert version.kind is VersionKind.TREE_HASH
        assert version.id == _reference_tree_hash(git_repo)

    def test_clean_commit_id_and_tag_are_the_head(self, git_repo):
        head = _git(git_repo, "rev-parse", "HEAD")
        version = detect_version(git_repo)
        assert version.id == head
        assert version.tag == f"version:commit:{head}"

    def test_plain_tree_tag_is_its_tree_hash(self, tmp_path):
        (tmp_path / "f.txt").write_text("data")
        version = detect_version(tmp_path)
        assert version.id == _reference_tree_hash(tmp_path)
        assert version.tag == f"version:treehash:{version.id}"

    def test_dirty_id_follows_tracked_content_only(self, git_repo):
        (git_repo / "module.py").write_text("VALUE = 2\n")
        first = detect_version(git_repo)
        assert first.id == _reference_tree_hash(git_repo)
        (git_repo / "untracked.txt").write_text("notes\n")
        assert detect_version(git_repo).id == first.id
        (git_repo / "module.py").write_text("VALUE = 3\n")
        second = detect_version(git_repo)
        assert second.id != first.id
        assert second != first

    def test_dirty_id_follows_executable_bit(self, git_repo):
        (git_repo / "README").write_text("edited\n")
        before = detect_version(git_repo)
        (git_repo / "module.py").chmod(0o755)
        after = detect_version(git_repo)
        assert after.id == _reference_tree_hash(git_repo)
        assert after.id != before.id

    def test_edited_non_utf8_name_is_dirty_when_git_prints_it_raw(self, git_repo):
        path = git_repo / os.fsdecode(b"caf\xe9.txt")
        path.write_bytes(b"menu\n")
        _git(git_repo, "add", ".")
        _git(git_repo, "commit", "-q", "-m", "menu")
        _git(git_repo, "config", "core.quotepath", "false")
        path.write_bytes(b"menu of the day\n")
        version = detect_version(git_repo)
        assert version.dirty is True
        assert version.id == _reference_tree_hash(git_repo)

    def test_untracked_file_keeps_tree_clean(self, git_repo):
        (git_repo / "scratch.txt").write_text("notes\n")
        assert detect_version(git_repo).dirty is False

    def test_plain_directory_falls_back_to_tree_hash(self, tmp_path):
        plain = tmp_path / "plain"
        plain.mkdir()
        (plain / "f.txt").write_text("data")
        version = detect_version(plain)
        assert version.kind is VersionKind.TREE_HASH
        assert version.id == _reference_tree_hash(plain)
        assert version.dirty is False

    def test_repository_without_commits_falls_back_to_tree_hash(self, tmp_path):
        repo = tmp_path / "fresh"
        repo.mkdir()
        _git(repo, "init", "-q")
        (repo / "f.txt").write_text("data")
        _git(repo, "add", ".")
        version = detect_version(repo)
        assert version.kind is VersionKind.TREE_HASH
        assert version.id == _reference_tree_hash(repo)
        assert version.dirty is False

    def test_missing_git_falls_back_to_tree_hash(self, git_repo, tmp_path, monkeypatch):
        monkeypatch.setenv("PATH", str(tmp_path / "no-such-bin"))
        version = detect_version(git_repo)
        assert version.kind is VersionKind.TREE_HASH
        assert version.id == _reference_tree_hash(git_repo)

    def test_detection_does_not_write_the_index(self, git_repo):
        index = git_repo / ".git" / "index"
        before = index.read_bytes()
        # Same content, new mtime: a refreshing git status would rewrite the index.
        stat = (git_repo / "module.py").stat()
        os.utime(git_repo / "module.py", ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
        assert detect_version(git_repo).dirty is False
        assert index.read_bytes() == before

    def test_stable_across_repeated_calls(self, git_repo):
        assert detect_version(git_repo) == detect_version(git_repo)

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(NotADirectoryError):
            detect_version(tmp_path / "no-such-dir")

    def test_subdirectory_of_working_tree_uses_enclosing_repo(self, git_repo):
        sub = git_repo / "nested"
        sub.mkdir()
        (sub / "inner.txt").write_text("x")
        version = detect_version(sub)
        assert version.kind is VersionKind.COMMIT
        assert version.id == _git(git_repo, "rev-parse", "HEAD")


def _tree_id(root: Path) -> str:
    """The version id of a plain directory."""
    version = detect_version(root)
    assert version.kind is VersionKind.TREE_HASH
    return version.id


def _reference_tree_hash(root: Path) -> str:
    """Independent restatement of the tree-hash rule, for a directory outside
    git or one whose files git all tracks: SHA-256 of the root's name and a
    NUL, then per file in byte order of its path, the path, a NUL,
    ``"<owner-exec bit> <size>"``, a NUL, and the content."""
    files = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in (".git", ".hg", ".svn")]
        for name in filenames:
            full = os.path.join(dirpath, name)
            if not os.path.islink(full):
                files.append((os.fsencode(os.path.relpath(full, root)), full))
    stream = os.fsencode(root.name) + b"\x00"
    for rel, full in sorted(files):
        content = Path(full).read_bytes()
        executable = 1 if os.stat(full).st_mode & stat.S_IXUSR else 0
        stream += rel + b"\x00" + f"{executable} {len(content)}".encode() + b"\x00" + content
    return hashlib.sha256(stream).hexdigest()


class TestTreeHash:
    @pytest.fixture
    def tree(self, tmp_path) -> Path:
        tree = tmp_path / "tree"
        tree.mkdir()
        return tree

    def test_empty_directory_is_hash_of_its_name(self, tree):
        assert _tree_id(tree) == EMPTY_SHA256

    def test_two_file_fixture_frozen_digest(self, tree):
        (tree / "a.txt").write_bytes(b"alpha\n")
        (tree / "sub").mkdir()
        (tree / "sub" / "b.txt").write_bytes(b"beta\n")
        assert _tree_id(tree) == TWO_FILE_TREE_SHA256

    def test_rename_changes_digest(self, tmp_path):
        (tmp_path / "a.txt").write_bytes(b"alpha\n")
        before = _tree_id(tmp_path)
        (tmp_path / "a.txt").rename(tmp_path / "b.txt")
        assert _tree_id(tmp_path) != before

    def test_matches_reference_on_larger_tree(self, tmp_path):
        for rel, content in [
            ("src/main.py", b"print('hi')\n"),
            ("src/util/helpers.py", b"def f(): pass\n"),
            ("docs/readme.md", b"# Title\n"),
            ("docs/café.md", b"# Caf\xc3\xa9\n"),
            ("data.bin", bytes(range(256))),
        ]:
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(content)
        assert _tree_id(tmp_path) == _reference_tree_hash(tmp_path)

    def test_vcs_metadata_is_excluded(self, tmp_path):
        (tmp_path / "code.py").write_bytes(b"pass\n")
        before = _tree_id(tmp_path)
        git_dir = tmp_path / ".git" / "objects"
        git_dir.mkdir(parents=True)
        (git_dir / "blob").write_bytes(b"junk")
        assert _tree_id(tmp_path) == before

    def test_symlinks_are_skipped(self, tmp_path):
        (tmp_path / "real.txt").write_bytes(b"content")
        before = _tree_id(tmp_path)
        (tmp_path / "link.txt").symlink_to(tmp_path / "real.txt")
        assert _tree_id(tmp_path) == before

    def test_invariant_under_listing_order(self, tmp_path, reverse_listing):
        for name in ("zeta.txt", "alpha.txt", "mid.txt"):
            (tmp_path / name).write_bytes(name.encode())
        (tmp_path / "nested").mkdir()
        (tmp_path / "nested" / "deep.txt").write_bytes(b"deep")
        normal = _tree_id(tmp_path)

        reverse_listing()
        assert _tree_id(tmp_path) == normal


def _noise(size: int, seed: int = 0) -> bytes:
    """``size`` bytes without a period, so batches handed on in another order
    change every digest."""
    return random.Random(seed).randbytes(size)


def _id_header(relative: str, size: int) -> bytes:
    """What the tree-hash rule puts before a file's content."""
    return os.fsencode(relative) + b"\0%d %d\0" % (0, size)


def _fill_to(end: int, relative: str) -> tuple[str, bytes]:
    """A file that, first in a tree, ends the tree-hash stream after the
    root's name exactly at byte ``end``."""
    size = end - len(_id_header(relative, end))
    size = end - len(_id_header(relative, size))
    assert len(_id_header(relative, size)) + size == end
    return relative, _noise(size)


def _write_files(root: Path, files) -> None:
    for relative, content in files:
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(content)


#: Trees whose streams span more than one :data:`BATCH`, each a function that
#: returns its (relative path, content) pairs, in path order.
BATCH_TREES = {
    "file-over-two-batches": lambda: [
        ("a.txt", b"first\n"),
        ("big.bin", _noise(2 * BATCH + 1000)),
        ("z.txt", b"last\n"),
    ],
    # Long paths with one byte each around the end of the first batch, so
    # some path and header are split between two batches.
    "headers-across-a-batch": lambda: [
        ("a.bin", _noise(BATCH - 2000)),
        *((f"b/{index:03d}-" + "n" * 150, b"x") for index in range(40)),
    ],
    "stream-of-exactly-two-batches": lambda: [_fill_to(2 * BATCH, "a.bin")],
    "empty-files-between": lambda: [
        _fill_to(BATCH, "a.bin"),
        ("b0", b""),
        ("b1", b""),
        ("c.bin", _noise(BATCH + 7, seed=1)),
        ("d0", b""),
        ("e.bin", b"tail"),
    ],
}


class TestMultiBatchStream:
    @pytest.mark.parametrize("name", BATCH_TREES)
    def test_id_matches_reference(self, tmp_path, name):
        tree = tmp_path / "tree"
        _write_files(tree, BATCH_TREES[name]())
        assert _tree_id(tree) == _reference_tree_hash(tree)

    @pytest.mark.parametrize("processors", [1, 2])
    def test_sink_gets_whole_batches_then_the_rest(self, tmp_path, monkeypatch, processors):
        monkeypatch.setattr(vcs_info, "_usable_processors", lambda: processors)
        files = [_fill_to(2 * BATCH, "a.bin")]
        _write_files(tmp_path, files)
        sizes = []
        listing = [(os.fsencode(tmp_path / name), os.fsencode(name)) for name, _ in files]
        length = stream_files(
            listing,
            lambda name, executable, size: _id_header(name, size),
            lambda data: sizes.append(len(data)),
        )
        assert length == 2 * BATCH
        assert sizes == [BATCH, BATCH, 0]


class TestParseAuthors:
    def test_full_grammar_line(self, tmp_path):
        (tmp_path / "AUTHORS").write_text(
            "Ada Lovelace <ada@example.org> figshare:554577 zenodo:Z9\n"
        )
        authors = parse_authors(tmp_path)
        assert authors == [
            AuthorRef(
                name="Ada Lovelace",
                email="ada@example.org",
                service_ids={"figshare": "554577", "zenodo": "Z9"},
            )
        ]

    def test_absent_file_is_empty_list(self, tmp_path):
        assert parse_authors(tmp_path) == []

    def test_line_without_angle_brackets_fails_with_line_number(self, tmp_path):
        (tmp_path / "AUTHORS").write_text("# header\n\nno-angle-brackets-anywhere:::\n")
        with pytest.raises(AuthorsFormatError) as excinfo:
            parse_authors(tmp_path)
        assert excinfo.value.line_number == 3

    def test_malformed_service_token_names_line(self, tmp_path):
        (tmp_path / "AUTHORS").write_text("Ok Person <a@b>\nBad Person <c@d> nocolon\n")
        with pytest.raises(AuthorsFormatError) as excinfo:
            parse_authors(tmp_path)
        assert excinfo.value.line_number == 2

    def test_non_utf8_line_is_named(self, tmp_path):
        (tmp_path / "AUTHORS").write_bytes(b"Ok Person <a@b>\r\nBad \xff Person <c@d>\n")
        with pytest.raises(AuthorsFormatError) as excinfo:
            parse_authors(tmp_path)
        assert excinfo.value.line_number == 2

    def test_empty_name_rejected(self, tmp_path):
        (tmp_path / "AUTHORS").write_text(" <anon@example.org>\n")
        with pytest.raises(AuthorsFormatError):
            parse_authors(tmp_path)

    def test_comments_and_blanks_skipped(self, tmp_path):
        (tmp_path / "AUTHORS").write_text(
            "# contributors, one per line\n\nGrace Hopper <grace@example.mil>\n"
        )
        authors = parse_authors(tmp_path)
        assert [a.name for a in authors] == ["Grace Hopper"]

    def test_empty_email_allowed(self, tmp_path):
        (tmp_path / "AUTHORS").write_text("Anonymous Donor <>\n")
        assert parse_authors(tmp_path)[0].email == ""

    def test_id_value_may_contain_colon(self, tmp_path):
        (tmp_path / "AUTHORS").write_text("A B <a@b> orcid:0000-0001:x\n")
        assert parse_authors(tmp_path)[0].service_ids == {"orcid": "0000-0001:x"}


_name = (
    st.text(
        alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ .'-éøñ",
        min_size=1,
        max_size=30,
    )
    .map(str.strip)
    .filter(lambda s: s and not s.startswith("#"))
)
_email = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789@._-", min_size=0, max_size=20
)
_service = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_-", min_size=1, max_size=10)
_id_value = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789:._-", min_size=1, max_size=12)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture], max_examples=100)
@given(
    authors=st.lists(
        st.builds(
            AuthorRef,
            name=_name,
            email=_email,
            service_ids=st.dictionaries(_service, _id_value, max_size=3),
        ),
        max_size=5,
    )
)
def test_parse_after_render_is_identity(tmp_path, authors):
    lines = [
        " ".join([f"{a.name} <{a.email}>", *(f"{k}:{v}" for k, v in a.service_ids.items())])
        for a in authors
    ]
    (tmp_path / "AUTHORS").write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    assert parse_authors(tmp_path) == authors
