"""Acceptance criteria, one test per criterion.

Each test prints a single ``ACCEPTANCE n (label): PASS|FAIL`` line (visible
with ``pytest -s`` or in captured output). Tolerances and limits are pinned
in the assertions themselves.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import shutil
import subprocess
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import OrkneyTree
from fixture_projects import build_fixture_projects
from reference_scan import scan_datasources
from test_cli import cli_env

from geopub.cli import main
from geopub.errors import ProtocolError, QuotaError
from geopub.manifest import ManifestEntry, build_manifest, manifest_to_json
from geopub.mock_service import ServiceConfig
from geopub.orchestrator import build_source_archive
from geopub.qgis_project import collect_datasources, parse_project
from geopub.repo_protocol import DepositionMeta
from geopub.vcs_info import VersionKind, detect_version


def criterion(number: int, label: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({label}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({label}): PASS")

        return wrapper

    return decorate


@pytest.fixture
def runner() -> CliRunner:
    return CliRunner()


@pytest.fixture
def orkney(tmp_path: Path) -> OrkneyTree:
    return OrkneyTree(tmp_path / "orkney")


@pytest.fixture
def source_tree(tmp_path: Path) -> Path:
    tree = tmp_path / "meshtool"
    (tree / "src").mkdir(parents=True)
    (tree / "src" / "main.py").write_text("print('mesh')\n")
    (tree / "AUTHORS").write_text("Ada Lovelace <ada@example.org> figshare:554577\n")
    subprocess.run(
        ["git", "-C", str(tree), "init", "-q"], check=True, capture_output=True
    )
    subprocess.run(["git", "-C", str(tree), "add", "."], check=True, capture_output=True)
    subprocess.run(
        [
            "git",
            "-C",
            str(tree),
            "-c",
            "user.email=t@example.org",
            "-c",
            "user.name=T",
            "commit",
            "-q",
            "-m",
            "initial",
        ],
        check=True,
        capture_output=True,
    )
    return tree


@criterion(1, "end-to-end workflow replay")
def test_1_end_to_end_replay(runner, orkney, backend, tmp_path):
    env = cli_env(tmp_path, backend)
    started = time.monotonic()
    result = runner.invoke(
        main,
        [
            "publish",
            "data",
            "--project",
            str(orkney.project),
            "--mesh",
            str(orkney.mesh),
        ],
        env=env,
    )
    elapsed = time.monotonic() - started
    assert result.exit_code == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("Publication ID: ")
    assert lines[1].startswith("DOI: ")

    publication_id = int(lines[0].removeprefix("Publication ID: "))
    record = backend.service.deposition_record(publication_id)
    assert record["state"] == "public"
    assert len(record["files"]) == 7

    # Server-verified digests equal independently computed local digests.
    local = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in orkney.all_files}
    remote = {f["name"]: f["sha256"] for f in record["files"]}
    assert remote == local

    assert elapsed < 5.0, f"took {elapsed:.2f}s"


@criterion(2, "software-publish idempotence")
def test_2_software_publish_idempotence(runner, source_tree, make_backend, tmp_path):
    def doi_of(result) -> str:
        assert result.exit_code == 0, result.stderr
        return [l for l in result.stdout.splitlines() if l.startswith("DOI: ")][0]

    # Search-capable backend: two runs, one deposition, byte-identical DOIs.
    figshare = make_backend(ServiceConfig.figshare_like())
    env = cli_env(tmp_path / "f", figshare)
    args = ["publish", "software", "--source", str(source_tree)]
    first = doi_of(runner.invoke(main, args, env=env))
    second = doi_of(runner.invoke(main, args, env=env))
    assert first == second
    assert figshare.service.deposition_count() == 1

    # Search-less backend without the cache: a second deposition appears.
    zenodo = make_backend(ServiceConfig.zenodo_like())
    env = cli_env(tmp_path / "z1", zenodo)
    args = [
        "publish",
        "software",
        "--source",
        str(source_tree),
        "--service",
        "zenodo-like",
        "--no-cache",
    ]
    doi_of(runner.invoke(main, args, env=env))
    doi_of(runner.invoke(main, args, env=env))
    assert zenodo.service.deposition_count() == 2

    # Search-less backend with the cache enabled: back to one deposition.
    zenodo_cached = make_backend(ServiceConfig.zenodo_like())
    env = cli_env(tmp_path / "z2", zenodo_cached)
    args = [
        "publish",
        "software",
        "--source",
        str(source_tree),
        "--service",
        "zenodo-like",
    ]
    first = doi_of(runner.invoke(main, args, env=env))
    second = doi_of(runner.invoke(main, args, env=env))
    assert first == second
    assert zenodo_cached.service.deposition_count() == 1


LEGAL_TRANSITIONS = {
    ("draft", "public"),
    ("draft", "private"),
    ("private", "public"),
}


@criterion(3, "private-DOI lifecycle and state machine")
def test_3_private_doi_lifecycle(runner, orkney, backend, make_backend, tmp_path):
    # Publishing with --private reserves the DOI without activating it;
    # make_public activates it without changing the string.
    env = cli_env(tmp_path, backend)
    result = runner.invoke(
        main,
        ["publish", "data", "--project", str(orkney.project), "--private"],
        env=env,
    )
    assert result.exit_code == 0, result.stderr
    doi = [l for l in result.stdout.splitlines() if l.startswith("DOI: ")][0].removeprefix(
        "DOI: "
    )
    record = backend.service.deposition_record(1)
    assert record["state"] == "private"
    assert record["doi_active"] is False
    assert record["doi"] == doi

    flipped = backend.client().make_public(1)
    assert flipped.doi_active is True
    assert flipped.doi == doi

    # Property: over >= 1000 random operation sequences, only legal
    # transitions ever occur, DOIs never change, and doi_active tracks the
    # public state exactly.
    driver = make_backend(ServiceConfig.figshare_like(per_file_limit=4096))
    client = driver.client()
    rng = random.Random(20260811)
    sequences = 1000
    for _ in range(sequences):
        deposition = client.create_deposition(
            DepositionMeta(title=f"run {rng.randrange(1_000_000)}", tags=("t",))
        )
        doi = deposition.doi
        previous_state = "draft"
        for _ in range(rng.randint(1, 8)):
            action = rng.choice(
                ["upload", "bad_upload", "publish", "publish_private", "make_public"]
            )
            try:
                if action == "upload":
                    content = rng.randbytes(rng.randint(0, 64))
                    entry = ManifestEntry(
                        path=None,
                        name=f"f{rng.randrange(1_000_000)}.bin",
                        size=len(content),
                        sha256=hashlib.sha256(content).hexdigest(),
                    )
                    client.upload_file(deposition.id, entry, content)
                elif action == "bad_upload":
                    entry = ManifestEntry(path=None, name="bad.bin", size=1, sha256="0" * 64)
                    client.upload_file(deposition.id, entry, b"mismatch")
                elif action == "publish":
                    client.publish_deposition(deposition.id, private=False)
                elif action == "publish_private":
                    client.publish_deposition(deposition.id, private=True)
                elif action == "make_public":
                    client.make_public(deposition.id)
            except ProtocolError:
                pass
            record = driver.service.deposition_record(deposition.id)
            state = record["state"]
            assert state in ("draft", "private", "public")
            assert record["doi"] == doi, "DOI changed"
            assert record["doi_active"] == (state == "public")
            if state != previous_state:
                assert (previous_state, state) in LEGAL_TRANSITIONS, (
                    f"illegal transition {previous_state} -> {state}"
                )
            previous_state = state


@criterion(4, "quota enforcement")
def test_4_quota_enforcement(make_backend):
    # Configured 1024 B per-file limit rejects a 2048 B upload on the wire
    # and as a client error.
    small = make_backend(ServiceConfig.figshare_like(per_file_limit=1024))
    content = b"x" * 2048
    digest = hashlib.sha256(content).hexdigest()
    client = small.client()
    deposition = client.create_deposition(DepositionMeta(title="T"))
    status, document = small.service.handle_request(
        "POST",
        f"/api/v1/depositions/{deposition.id}/files",
        {
            "Authorization": "token test-token",
            "X-File-Name": "big.bin",
            "X-File-SHA256": digest,
        },
        content,
    )
    assert (status, document) == (413, {"error": "quota"})
    entry = ManifestEntry(path=None, name="big2.bin", size=len(content), sha256=digest)
    with pytest.raises(QuotaError):
        client.upload_file(deposition.id, entry, content)

    # Default limits read back as the documented values.
    defaults = ServiceConfig()
    assert defaults.per_file_limit == 262_144_000  # 250 MB
    assert defaults.private_quota == 1_073_741_824  # 1 GB


@criterion(5, "parser oracle equivalence")
def test_5_parser_oracle_equivalence(tmp_path, orkney):
    projects = build_fixture_projects(tmp_path / "battery")
    projects.append(orkney.project)
    assert len(projects) >= 10
    for project_path in projects:
        expected = scan_datasources(str(project_path))
        got = [
            (str(ref.resolved_path), tuple(str(s) for s in ref.sidecars))
            for ref in collect_datasources(parse_project(project_path))
        ]
        assert got == expected, f"parser and reference scan disagree on {project_path.name}"


@criterion(6, "determinism of manifest, tree hash, and archive")
def test_6_determinism(orkney, source_tree, tmp_path, reverse_listing):
    plain = tmp_path / "plain" / source_tree.name
    shutil.copytree(source_tree, plain, ignore=shutil.ignore_patterns(".git"))
    # Several files in one directory, so that the listing order can matter.
    for name in ("README", "LICENSE", "CHANGES"):
        (plain / name).write_text(f"{name}\n")
    project = parse_project(orkney.project)
    sources = collect_datasources(project)
    manifest_once = build_manifest(project, sources, orkney.mesh)
    version_once = detect_version(plain)
    assert version_once.kind is VersionKind.TREE_HASH
    archives_once = [
        build_source_archive(detect_version(tree), tmp_path / "a" / str(n)).read_bytes()
        for n, tree in enumerate((plain, source_tree))
    ]

    # Second run, same listing order.
    assert build_manifest(project, sources, orkney.mesh) == manifest_once
    assert detect_version(plain).id == version_once.id

    # Third run under a reversed directory-listing order.
    reverse_listing()
    manifest_reversed = build_manifest(
        parse_project(orkney.project), collect_datasources(parse_project(orkney.project)),
        orkney.mesh,
    )
    assert manifest_reversed == manifest_once
    assert manifest_to_json(manifest_reversed) == manifest_to_json(manifest_once)
    assert detect_version(plain).id == version_once.id
    archives_reversed = [
        build_source_archive(detect_version(tree), tmp_path / "b" / str(n)).read_bytes()
        for n, tree in enumerate((plain, source_tree))
    ]
    assert archives_reversed == archives_once


@criterion(7, "dry-run isolation")
def test_7_dry_run_isolation(runner, orkney, backend, tmp_path):
    env = cli_env(tmp_path, backend)
    result = runner.invoke(
        main,
        [
            "publish",
            "data",
            "--project",
            str(orkney.project),
            "--mesh",
            str(orkney.mesh),
            "--dry-run",
        ],
        env=env,
    )
    assert result.exit_code == 0, result.stderr
    document = json.loads(result.stdout)
    assert set(document) == {"title", "tags", "entries", "total_size"}
    assert [e["name"] for e in document["entries"]] == [
        "orkney.qgs",
        "coastline.shp",
        "coastline.shx",
        "coastline.dbf",
        "bathymetry.nc",
        "resolution.nc",
        "orkney.msh",
    ]
    assert backend.service.request_count == 0
