"""The README's library example runs as written, its wire-protocol table
lists the endpoints the code routes by, and the default ports it gives for
``geopub-mock`` are those of the built-in profiles."""

from __future__ import annotations

import re
import shutil
from pathlib import Path
from urllib.parse import urlsplit

from conftest import OrkneyTree, unset_proxies

from geopub.config import default_profiles
from geopub.repo_protocol import ENDPOINTS

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
