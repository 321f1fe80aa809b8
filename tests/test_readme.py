"""The README's library example runs as written, its config file example
loads, its wire-protocol table lists the endpoints the code routes by, and the
default ports it gives for ``geopub-mock`` are those of the built-in
profiles."""

from __future__ import annotations

import re
import shutil
from pathlib import Path
from urllib.parse import urlsplit

from conftest import OrkneyTree, unset_proxies

from geopub.config import default_profiles, load_config
from geopub.repo_protocol import ENDPOINTS, BackendProfile

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(tmp_path, monkeypatch):
    match = re.search(
        r"^## Library use\n.*?^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S
    )
    assert match is not None, "no python block under '## Library use'"
    orkney = OrkneyTree(tmp_path)
    shutil.copy(orkney.mesh, tmp_path / "orkney.msh")
    (tmp_path / "src" / "meshtool").mkdir(parents=True)
    (tmp_path / "src" / "meshtool" / "main.py").write_text("print('mesh')\n")
    monkeypatch.chdir(tmp_path)
    unset_proxies(monkeypatch)
    exec(compile(match.group(1), str(README), "exec"), {})


def test_config_example_loads(tmp_path):
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Configuration\n.*?^```toml\n(.*?)^```", text, re.M | re.S)
    assert match is not None, "no toml block under '## Configuration'"
    path = tmp_path / "config.toml"
    path.write_text(match.group(1), encoding="utf-8")
    config = load_config(path, env={})
    assert config.default_profile == "figshare-like"
    assert config.cache_path == Path("/home/me/.config/geopub/doi_cache.json")
    assert config.profiles["figshare-like"].base_url == "http://127.0.0.1:8472"
    assert config.profiles["my.institution"] == BackendProfile(
        "my.institution", "http://repo.example:9000", can_search=False
    )


def test_wire_protocol_table_lists_the_endpoints():
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Wire protocol\n(.*?)^## ", text, re.M | re.S)
    assert match is not None, "no '## Wire protocol' section"
    rows = re.findall(r"^\| `([A-Z]+) ([^`?]+)(?:\?[^`]*)?` \|", match.group(1), re.M)
    assert sorted(rows) == sorted(ENDPOINTS.values())


def test_mock_default_ports_are_the_builtin_profiles_ports():
    text = " ".join(README.read_text(encoding="utf-8").split())
    match = re.search(r"default port is that of the profile's built-in `base_url`:(.*?)\.", text)
    assert match is not None, "no sentence giving geopub-mock's default ports"
    ports = {name: int(port) for port, name in re.findall(r"(\d+) for ([\w-]+)", match[1])}
    assert ports == {
        name: urlsplit(profile.base_url).port for name, profile in default_profiles().items()
    }
