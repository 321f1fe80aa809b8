"""Configuration for the command line: backend profiles and the cache path.

Sources are merged lowest to highest precedence: built-in defaults, the
config file (``$GEOPUB_CONFIG`` or the platform config directory), then
environment variables. Command-line flags sit on top of all of these.

The config file is a simple key-value format (a TOML subset)::

    default_profile = "figshare-like"
    cache_path = "/home/me/.config/geopub/doi_cache.json"

    [profile.figshare-like]
    base_url = "http://localhost:8472"
    token = "secret"

    [profile.my-institution]
    base_url = "http://repo.example:9000"
    can_search = false

Values are double-quoted strings, ``true``/``false``, or integers. Tokens are
never accepted on the command line; use the config file or the per-profile
environment variable ``GEOPUB_TOKEN_<PROFILE>`` (profile name uppercased,
non-alphanumerics replaced by ``_``, e.g. ``GEOPUB_TOKEN_FIGSHARE_LIKE``).
"""

from __future__ import annotations

import dataclasses
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .errors import ConfigError
from .repo_protocol import BackendProfile

_TOP_LEVEL_KEYS = {"default_profile", "cache_path"}
_PROFILE_KEYS = {"base_url", "can_search", "token"}

_SECTION = re.compile(r"^\[profile\.([A-Za-z0-9_.\-]+)\]$")
_KEY_VALUE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.+)$")


@dataclass(frozen=True)
class CliConfig:
    """Resolved configuration: named profiles, the default, the cache path."""

    profiles: dict[str, BackendProfile]
    default_profile: str
    cache_path: Path

    def __post_init__(self):
        if self.default_profile not in self.profiles:
            raise ConfigError(
                f"default_profile {self.default_profile!r} is not a configured profile"
            )

    def profile(self, name: str | None = None) -> BackendProfile:
        wanted = name or self.default_profile
        if wanted not in self.profiles:
            configured = ", ".join(sorted(self.profiles))
            raise ConfigError(f"unknown service {wanted!r}; configured profiles: {configured}")
        return self.profiles[wanted]


def default_profiles() -> dict[str, BackendProfile]:
    return {
        "figshare-like": BackendProfile(
            name="figshare-like",
            base_url="http://localhost:8472",
            can_search=True,
            auth_token="",
        ),
        "zenodo-like": BackendProfile(
            name="zenodo-like",
            base_url="http://localhost:8473",
            can_search=False,
            auth_token="",
        ),
    }


def config_dir(env: Mapping[str, str] | None = None) -> Path:
    env = os.environ if env is None else env
    base = env.get("XDG_CONFIG_HOME") or os.path.join(os.path.expanduser("~"), ".config")
    return Path(base) / "geopub"


def token_env_var(profile_name: str) -> str:
    return "GEOPUB_TOKEN_" + re.sub(r"[^A-Z0-9]", "_", profile_name.upper())


def load_config(
    path: str | os.PathLike | None = None, *, env: Mapping[str, str] | None = None
) -> CliConfig:
    """Load configuration with full precedence applied.

    ``path`` overrides the ``GEOPUB_CONFIG`` environment variable, which in
    turn overrides the platform config file; a missing default file is fine,
    an explicitly named one must exist.

    Raises:
        ConfigError: unreadable or malformed configuration, with the
            offending file and line.
    """
    env = os.environ if env is None else env
    profiles = default_profiles()
    default_profile = "figshare-like"
    cache_path = config_dir(env) / "doi_cache.json"

    config_file: Path | None = None
    if path is not None:
        config_file = Path(path)
    elif env.get("GEOPUB_CONFIG"):
        config_file = Path(env["GEOPUB_CONFIG"])
    else:
        candidate = config_dir(env) / "config.toml"
        if candidate.is_file():
            config_file = candidate

    if config_file is not None:
        if not config_file.is_file():
            raise ConfigError(f"config file {config_file} does not exist")
        top_level, file_profiles = _parse_config_file(config_file)
        if "default_profile" in top_level:
            default_profile = top_level["default_profile"]
        if "cache_path" in top_level:
            cache_path = Path(top_level["cache_path"])
        for name, fields in file_profiles.items():
            profiles[name] = _merged_profile(config_file, name, profiles.get(name), fields)

    if env.get("GEOPUB_CACHE"):
        cache_path = Path(env["GEOPUB_CACHE"])
    for name, profile in list(profiles.items()):
        token = env.get(token_env_var(name))
        if token:
            profiles[name] = dataclasses.replace(profile, auth_token=token)

    _check_reserved_capabilities(profiles)
    return CliConfig(profiles=profiles, default_profile=default_profile, cache_path=cache_path)


def _merged_profile(
    config_file: Path,
    name: str,
    existing: BackendProfile | None,
    fields: dict,
) -> BackendProfile:
    updates = {("auth_token" if key == "token" else key): value for key, value in fields.items()}
    if existing is not None:
        return dataclasses.replace(existing, **updates)
    if "base_url" not in fields:
        raise ConfigError(
            f"{config_file}: profile {name!r} needs a base_url (new profiles "
            "have no default)"
        )
    return BackendProfile(name=name, **{"can_search": False, **updates})


def _check_reserved_capabilities(profiles: dict[str, BackendProfile]) -> None:
    """The built-in profiles keep their built-in search capability."""
    for name, builtin in default_profiles().items():
        if profiles[name].can_search != builtin.can_search:
            raise ConfigError(
                f"profile {name!r} must have can_search = {str(builtin.can_search).lower()}"
            )


def _parse_config_file(path: Path) -> tuple[dict, dict[str, dict]]:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc

    top_level: dict = {}
    profiles: dict[str, dict] = {}
    section: dict | None = None
    section_keys = _TOP_LEVEL_KEYS

    for line_number, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            match = _SECTION.match(line)
            if match is None:
                raise ConfigError(
                    f"{path}:{line_number}: expected a [profile.NAME] section header"
                )
            section = profiles.setdefault(match.group(1), {})
            section_keys = _PROFILE_KEYS
            continue
        match = _KEY_VALUE.match(line)
        if match is None:
            raise ConfigError(f"{path}:{line_number}: expected key = value")
        key, raw_value = match.group(1), match.group(2).strip()
        if key not in section_keys:
            allowed = ", ".join(sorted(section_keys))
            raise ConfigError(f"{path}:{line_number}: unknown key {key!r} (allowed: {allowed})")
        target = top_level if section is None else section
        target[key] = _parse_value(path, line_number, raw_value)

    return top_level, profiles


def _parse_value(path: Path, line_number: int, raw: str):
    if raw.startswith('"'):
        if not raw.endswith('"') or len(raw) < 2:
            raise ConfigError(f"{path}:{line_number}: unterminated string")
        return raw[1:-1]
    if raw == "true":
        return True
    if raw == "false":
        return False
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(
            f"{path}:{line_number}: value must be a quoted string, true/false, or an integer"
        ) from None
