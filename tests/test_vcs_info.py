from __future__ import annotations

import hashlib
import os
import subprocess
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from geopub.errors import AuthorsFormatError
from geopub.vcs_info import (
    AuthorRef,
    VersionKind,
    detect_version,
    parse_authors,
    tree_hash,
)

EMPTY_SHA256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
# Frozen from an independent run of the concatenation rule through sha256sum:
#   printf 'a.txt\x00alpha\n\x00sub/b.txt\x00beta\n\x00' | sha256sum
TWO_FILE_TREE_SHA256 = "75ad51652f99b63bc0c629e2fb3e23a3c4b8b81057e59bd3e83df3d3ca63d42a"


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

    def test_edited_tracked_file_is_dirty_same_commit(self, git_repo):
        head = _git(git_repo, "rev-parse", "HEAD")
        (git_repo / "module.py").write_text("VALUE = 2\n")
        version = detect_version(git_repo)
        assert version.dirty is True
        assert version.id == head

    def test_untracked_file_keeps_tree_clean(self, git_repo):
        (git_repo / "scratch.txt").write_text("notes\n")
        assert detect_version(git_repo).dirty is False

    def test_plain_directory_falls_back_to_tree_hash(self, tmp_path):
        plain = tmp_path / "plain"
        plain.mkdir()
        (plain / "f.txt").write_text("data")
        version = detect_version(plain)
        assert version.kind is VersionKind.TREE_HASH
        assert version.id == tree_hash(plain)
        assert version.dirty is False

    def test_repository_without_commits_falls_back_to_tree_hash(self, tmp_path):
        repo = tmp_path / "fresh"
        repo.mkdir()
        _git(repo, "init", "-q")
        (repo / "f.txt").write_text("data")
        _git(repo, "add", ".")
        version = detect_version(repo)
        assert version.kind is VersionKind.TREE_HASH
        assert version.id == tree_hash(repo)
        assert version.dirty is False

    def test_missing_git_falls_back_to_tree_hash(self, git_repo, tmp_path, monkeypatch):
        monkeypatch.setenv("PATH", str(tmp_path / "no-such-bin"))
        version = detect_version(git_repo)
        assert version.kind is VersionKind.TREE_HASH
        assert version.id == tree_hash(git_repo)

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


def _reference_tree_hash(root: Path) -> str:
    """Independent restatement of the tree-hash rule."""
    blobs = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in (".git", ".hg", ".svn")]
        for name in filenames:
            full = os.path.join(dirpath, name)
            if os.path.islink(full):
                continue
            rel = os.path.relpath(full, root).replace(os.sep, "/")
            blobs.append((rel, open(full, "rb").read()))
    digest = hashlib.sha256()
    for rel, content in sorted(blobs, key=lambda pair: pair[0].encode("utf-8")):
        digest.update(rel.encode("utf-8") + b"\x00" + content + b"\x00")
    return digest.hexdigest()


class TestTreeHash:
    def test_empty_directory_is_hash_of_nothing(self, tmp_path):
        assert tree_hash(tmp_path) == EMPTY_SHA256

    def test_two_file_fixture_frozen_digest(self, tmp_path):
        (tmp_path / "a.txt").write_bytes(b"alpha\n")
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "b.txt").write_bytes(b"beta\n")
        assert tree_hash(tmp_path) == TWO_FILE_TREE_SHA256

    def test_rename_changes_digest(self, tmp_path):
        (tmp_path / "a.txt").write_bytes(b"alpha\n")
        before = tree_hash(tmp_path)
        (tmp_path / "a.txt").rename(tmp_path / "b.txt")
        assert tree_hash(tmp_path) != before

    def test_matches_reference_on_larger_tree(self, tmp_path):
        for rel, content in [
            ("src/main.py", b"print('hi')\n"),
            ("src/util/helpers.py", b"def f(): pass\n"),
            ("docs/readme.md", b"# Title\n"),
            ("data.bin", bytes(range(256))),
        ]:
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(content)
        assert tree_hash(tmp_path) == _reference_tree_hash(tmp_path)

    def test_vcs_metadata_is_excluded(self, tmp_path):
        (tmp_path / "code.py").write_bytes(b"pass\n")
        before = tree_hash(tmp_path)
        git_dir = tmp_path / ".git" / "objects"
        git_dir.mkdir(parents=True)
        (git_dir / "blob").write_bytes(b"junk")
        assert tree_hash(tmp_path) == before

    def test_symlinks_are_skipped(self, tmp_path):
        (tmp_path / "real.txt").write_bytes(b"content")
        before = tree_hash(tmp_path)
        (tmp_path / "link.txt").symlink_to(tmp_path / "real.txt")
        assert tree_hash(tmp_path) == before

    def test_invariant_under_listing_order(self, tmp_path, monkeypatch):
        for name in ("zeta.txt", "alpha.txt", "mid.txt"):
            (tmp_path / name).write_bytes(name.encode())
        (tmp_path / "nested").mkdir()
        (tmp_path / "nested" / "deep.txt").write_bytes(b"deep")
        normal = tree_hash(tmp_path)

        real_walk = os.walk

        def reversed_walk(top, **kwargs):
            for dirpath, dirnames, filenames in real_walk(top, **kwargs):
                dirnames.reverse()
                filenames.reverse()
                yield dirpath, dirnames, filenames

        monkeypatch.setattr(os, "walk", reversed_walk)
        assert tree_hash(tmp_path) == normal


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
