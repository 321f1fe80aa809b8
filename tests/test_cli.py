from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from click.testing import CliRunner

from conftest import Backend
from test_orchestrator import _count_calls, delete_after_create

import geopub
from geopub import orchestrator
from geopub.cli import main
from geopub.config import token_env_var
from geopub.mock_service import ServiceConfig
from geopub.repo_protocol import BackendProfile


# Not an http(s) URL with a host and a numeric port; ``mock://`` names the
# in-process transport that older configs may still point at.
UNSUPPORTED_BASE_URLS = [
    "localhost:8472",
    "ftp://repo.example",
    "http://repo:port",
    "mock://figshare-like",
]


@pytest.fixture
def runner() -> CliRunner:
    return CliRunner()


def cli_env(tmp_path: Path, *backends: Backend, tokens: bool = True) -> dict[str, str]:
    """A config file plus env vars wiring profiles to the given backends."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    lines = []
    env = {"GEOPUB_CACHE": str(tmp_path / "doi_cache.json")}
    for backend in backends:
        lines.append(f"[profile.{backend.profile.name}]")
        lines.append(f'base_url = "{backend.profile.base_url}"')
        lines.append("")
        if tokens:
            env[token_env_var(backend.profile.name)] = "test-token"
    config_path = tmp_path / "geopub.toml"
    config_path.write_text("\n".join(lines), encoding="utf-8")
    env["GEOPUB_CONFIG"] = str(config_path)
    return env


@pytest.fixture
def source_tree(tmp_path: Path) -> Path:
    tree = tmp_path / "meshtool"
    (tree / "src").mkdir(parents=True)
    (tree / "src" / "main.py").write_text("print('mesh')\n")
    (tree / "AUTHORS").write_text("Ada Lovelace <ada@example.org> figshare:554577\n")
    return tree


def _git(repo: Path, *args: str) -> None:
    subprocess.run(
        ["git", "-C", str(repo), "-c", "user.email=t@example.org", "-c", "user.name=T", *args],
        capture_output=True,
        check=True,
    )


class TestPublishDataCommand:
    def test_success_prints_exactly_two_lines(self, runner, orkney, backend, tmp_path):
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
            ],
            env=env,
        )
        assert result.exit_code == 0, result.output + result.stderr
        assert result.stdout == "Publication ID: 1\nDOI: 10.5072/geopub.1\n"
        record = backend.service.deposition_record(1)
        assert record["state"] == "public"
        assert len(record["files"]) == 7

    def test_dry_run_prints_manifest_and_sends_nothing(
        self, runner, orkney, backend, tmp_path
    ):
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
                "--related-software-doi",
                "10.5072/geopub.42",
                "--dry-run",
            ],
            env=env,
        )
        assert result.exit_code == 0
        document = json.loads(result.stdout)
        assert set(document) == {"title", "tags", "entries", "total_size"}
        assert len(document["entries"]) == 7
        assert "uses-software-doi:10.5072/geopub.42" in document["tags"]
        assert backend.service.request_count == 0

    def test_nonexistent_project_exits_3(self, runner, backend, tmp_path):
        env = cli_env(tmp_path, backend)
        missing = tmp_path / "ghost.qgs"
        result = runner.invoke(
            main, ["publish", "data", "--project", str(missing)], env=env
        )
        assert result.exit_code == 3
        assert "ghost.qgs" in result.stderr

    def test_unparseable_project_exits_3(self, runner, backend, tmp_path):
        bad = tmp_path / "bad.qgs"
        bad.write_text("definitely not xml")
        env = cli_env(tmp_path, backend)
        result = runner.invoke(main, ["publish", "data", "--project", str(bad)], env=env)
        assert result.exit_code == 3

    def test_missing_data_file_exits_4(self, runner, orkney, backend, tmp_path):
        orkney.resolution.unlink()
        env = cli_env(tmp_path, backend)
        result = runner.invoke(
            main, ["publish", "data", "--project", str(orkney.project)], env=env
        )
        assert result.exit_code == 4
        assert "resolution.nc" in result.stderr
        assert backend.service.request_count == 0

    def test_file_deleted_after_create_exits_3_naming_draft(
        self, runner, orkney, backend, tmp_path, monkeypatch
    ):
        delete_after_create(monkeypatch, orkney.bathymetry)
        env = cli_env(tmp_path, backend)
        result = runner.invoke(
            main, ["publish", "data", "--project", str(orkney.project)], env=env
        )
        assert result.exit_code == 3
        assert result.stdout == ""
        assert "draft deposition 1 was left on the server" in result.stderr

    def test_service_error_exits_5(self, runner, orkney, backend, tmp_path):
        env = cli_env(tmp_path, backend, tokens=False)
        result = runner.invoke(
            main, ["publish", "data", "--project", str(orkney.project)], env=env
        )
        assert result.exit_code == 5

    def test_unknown_service_exits_2_listing_profiles(
        self, runner, orkney, backend, tmp_path
    ):
        env = cli_env(tmp_path, backend)
        result = runner.invoke(
            main,
            ["publish", "data", "--project", str(orkney.project), "--service", "wat"],
            env=env,
        )
        assert result.exit_code == 2
        assert "figshare-like" in result.stderr
        assert "zenodo-like" in result.stderr

    @pytest.mark.parametrize("base_url", UNSUPPORTED_BASE_URLS)
    def test_unsupported_base_url_exits_2_before_hashing(
        self, runner, orkney, tmp_path, monkeypatch, base_url
    ):
        profile = BackendProfile("figshare-like", base_url, True)
        env = cli_env(tmp_path, SimpleNamespace(profile=profile))
        plans = _count_calls(monkeypatch, orchestrator, "plan_data")
        args = ["publish", "data", "--project", str(orkney.project)]
        result = runner.invoke(main, args, env=env)
        assert result.exit_code == 2
        assert result.stdout == ""
        [line] = result.stderr.splitlines()
        assert line.startswith("error: ") and repr(base_url) in line
        assert plans == []
        # The dry run opens no connection, so the profile's URL is not checked.
        assert runner.invoke(main, [*args, "--dry-run"], env=env).exit_code == 0

    def test_missing_project_flag_is_usage_error(self, runner):
        result = runner.invoke(main, ["publish", "data"])
        assert result.exit_code == 2

    def test_related_software_doi_flag(self, runner, orkney, backend, tmp_path):
        env = cli_env(tmp_path, backend)
        result = runner.invoke(
            main,
            [
                "publish",
                "data",
                "--project",
                str(orkney.project),
                "--related-software-doi",
                "10.5072/geopub.42",
            ],
            env=env,
        )
        assert result.exit_code == 0
        assert "uses-software-doi:10.5072/geopub.42" in backend.service.deposition_record(1)["tags"]

    def test_title_and_description_overrides(self, runner, orkney, backend, tmp_path):
        env = cli_env(tmp_path, backend)
        result = runner.invoke(
            main,
            [
                "publish",
                "data",
                "--project",
                str(orkney.project),
                "--title",
                "Override",
                "--description",
                "Words.",
            ],
            env=env,
        )
        assert result.exit_code == 0
        record = backend.service.deposition_record(1)
        assert record["title"] == "Override"
        assert record["description"] == "Words."

    def test_private_flag(self, runner, orkney, backend, tmp_path):
        env = cli_env(tmp_path, backend)
        result = runner.invoke(
            main,
            ["publish", "data", "--project", str(orkney.project), "--private"],
            env=env,
        )
        assert result.exit_code == 0
        assert backend.service.deposition_record(1)["state"] == "private"
        assert backend.service.deposition_record(1)["doi_active"] is False


class TestPublishSoftwareCommand:
    def test_first_run_creates_second_reuses(self, runner, source_tree, backend, tmp_path):
        env = cli_env(tmp_path, backend)
        args = ["publish", "software", "--source", str(source_tree)]
        first = runner.invoke(main, args, env=env)
        assert first.exit_code == 0, first.output + first.stderr
        assert first.stdout == "Publication ID: 1\nDOI: 10.5072/geopub.1\n"

        second = runner.invoke(main, args, env=env)
        assert second.exit_code == 0
        assert second.stdout == (
            "Reusing existing publication.\n"
            "Publication ID: 1\n"
            "DOI: 10.5072/geopub.1\n"
        )
        assert backend.service.deposition_count() == 1

    def test_dirty_tree_warns_on_stderr_but_publishes(
        self, runner, source_tree, backend, tmp_path
    ):
        _git(source_tree, "init", "-q")
        _git(source_tree, "add", ".")
        _git(source_tree, "commit", "-q", "-m", "initial")
        (source_tree / "src" / "main.py").write_text("print('changed')\n")
        env = cli_env(tmp_path, backend)
        result = runner.invoke(
            main, ["publish", "software", "--source", str(source_tree)], env=env
        )
        assert result.exit_code == 0
        assert "dirty" in result.stderr
        assert backend.service.deposition_count() == 1

    def test_no_cache_on_searchless_backend_publishes_twice(
        self, runner, source_tree, make_backend, tmp_path
    ):
        backend = make_backend(ServiceConfig.zenodo_like())
        env = cli_env(tmp_path, backend)
        args = [
            "publish",
            "software",
            "--source",
            str(source_tree),
            "--service",
            "zenodo-like",
            "--no-cache",
        ]
        assert runner.invoke(main, args, env=env).exit_code == 0
        assert runner.invoke(main, args, env=env).exit_code == 0
        assert backend.service.deposition_count() == 2

    def test_cache_gives_one_publication_on_searchless_backend(
        self, runner, source_tree, make_backend, tmp_path
    ):
        backend = make_backend(ServiceConfig.zenodo_like())
        env = cli_env(tmp_path, backend)
        args = [
            "publish",
            "software",
            "--source",
            str(source_tree),
            "--service",
            "zenodo-like",
        ]
        first = runner.invoke(main, args, env=env)
        second = runner.invoke(main, args, env=env)
        assert first.exit_code == 0 and second.exit_code == 0
        assert "Reusing existing publication." in second.stdout
        assert backend.service.deposition_count() == 1

    def test_untracked_directory_in_working_tree_exits_3(
        self, runner, source_tree, backend, tmp_path
    ):
        _git(source_tree, "init", "-q")
        _git(source_tree, "add", ".")
        _git(source_tree, "commit", "-q", "-m", "initial")
        nested = source_tree / "newproj"
        nested.mkdir()
        (nested / "main.py").write_text("print('new')\n")
        env = cli_env(tmp_path, backend)
        result = runner.invoke(main, ["publish", "software", "--source", str(nested)], env=env)
        assert result.exit_code == 3
        assert "git tracks no file" in result.stderr
        assert backend.service.deposition_count() == 0

    @pytest.mark.parametrize("base_url", UNSUPPORTED_BASE_URLS)
    def test_unsupported_base_url_exits_2_before_hashing(
        self, runner, source_tree, tmp_path, monkeypatch, base_url
    ):
        profile = BackendProfile("figshare-like", base_url, True)
        env = cli_env(tmp_path, SimpleNamespace(profile=profile))
        detections = _count_calls(monkeypatch, orchestrator, "detect_version")
        args = ["publish", "software", "--source", str(source_tree)]
        result = runner.invoke(main, args, env=env)
        assert result.exit_code == 2
        assert result.stdout == ""
        [line] = result.stderr.splitlines()
        assert line.startswith("error: ") and repr(base_url) in line
        assert detections == []

    def test_missing_source_exits_3(self, runner, backend, tmp_path):
        env = cli_env(tmp_path, backend)
        result = runner.invoke(
            main, ["publish", "software", "--source", str(tmp_path / "void")], env=env
        )
        assert result.exit_code == 3


class TestConfigPrecedenceThroughCli:
    def test_env_token_beats_file_token(self, runner, orkney, make_backend, tmp_path):
        backend = make_backend(
            ServiceConfig.figshare_like(required_token="env-token")
        )
        config_path = tmp_path / "geopub.toml"
        config_path.write_text(
            f"[profile.{backend.profile.name}]\n"
            f'base_url = "{backend.profile.base_url}"\n'
            'token = "file-token"\n',
            encoding="utf-8",
        )
        env = {
            "GEOPUB_CONFIG": str(config_path),
            "GEOPUB_CACHE": str(tmp_path / "cache.json"),
            token_env_var(backend.profile.name): "env-token",
        }
        result = runner.invoke(
            main, ["publish", "data", "--project", str(orkney.project)], env=env
        )
        # Only the env token is accepted by the service, so success proves
        # the environment overrode the file.
        assert result.exit_code == 0, result.stderr


class TestUnusableInputExitCodes:
    @pytest.mark.parametrize(
        "config_bytes,expected",
        [
            (
                b"[profile.figshare-like]\nbase_url = 8472\n",
                "geopub.toml: [profile.figshare-like] base_url must be a quoted string",
            ),
            (b"cache_path = 5\n", "geopub.toml: cache_path must be a quoted string"),
            (b'default_profile = "figshare-like"\n# caf\xff\n', "geopub.toml"),
        ],
        ids=["base_url", "cache_path", "non_utf8"],
    )
    def test_bad_config_exits_2(self, runner, orkney, tmp_path, config_bytes, expected):
        config_path = tmp_path / "geopub.toml"
        config_path.write_bytes(config_bytes)
        result = runner.invoke(
            main,
            ["publish", "data", "--project", str(orkney.project), "--dry-run"],
            env={"GEOPUB_CONFIG": str(config_path)},
        )
        assert result.exit_code == 2
        [line] = result.stderr.splitlines()
        assert line.startswith("error: ") and expected in line

    def test_non_utf8_authors_exits_3(self, runner, source_tree, backend, tmp_path):
        (source_tree / "AUTHORS").write_bytes(b"Ada Lovelace <ada@example.org>\nB\xff <b@b>\n")
        env = cli_env(tmp_path, backend)
        result = runner.invoke(main, ["publish", "software", "--source", str(source_tree)], env=env)
        assert result.exit_code == 3
        assert "AUTHORS line 2" in result.stderr
        assert backend.service.deposition_count() == 0


def _fresh_python(code: str, *args: str, env: dict[str, str] | None = None):
    """Run ``code`` in a fresh interpreter in which ``requests`` cannot be
    imported, as on an install that has only geopub's dependencies."""
    package_root = Path(geopub.__file__).resolve().parents[1]
    path = [str(package_root), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, **(env or {}), "PYTHONPATH": os.pathsep.join(filter(None, path))}
    code = 'import sys\nsys.modules["requests"] = None\n' + code
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=60
    )


def test_cli_import_loads_no_mock_server():
    completed = _fresh_python(
        "import geopub.cli\n"
        'print(sorted({"geopub.mock_service", "http.server"} & set(sys.modules)))\n'
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout == "[]\n"


def test_publish_software_runs_without_requests(source_tree, tmp_path, backend):
    completed = _fresh_python(
        "import geopub.mock_service\nfrom geopub.cli import main\nmain()\n",
        "publish",
        "software",
        "--source",
        str(source_tree),
        env=cli_env(tmp_path, backend),
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout == "Publication ID: 1\nDOI: 10.5072/geopub.1\n"
    assert backend.service.deposition_record(1)["state"] == "public"
