"""Configuration for the command line: backend profiles and the cache path.

Sources are merged lowest to highest precedence: built-in defaults, the
config file (``$GEOPUB_CONFIG`` or the platform config directory), then
environment variables. Command-line flags sit on top of all of these.

The config file is TOML 1.0 in UTF-8, read with :mod:`tomllib`::

    default_profile = "figshare-like"
    cache_path = "/home/me/.config/geopub/doi_cache.json"

    [profile.figshare-like]
    base_url = "http://localhost:8472"
    token = "secret"

    [profile."my.institution"]
    base_url = "http://repo.example:9000"
    can_search = false

The top level holds ``default_profile``, ``cache_path`` and one
``[profile.NAME]`` table per profile; a name with a dot in it is quoted.
``can_search`` is ``true`` or ``false``, ``token`` a string or an integer, and
every other value a string. Tokens are never accepted on the command line; use
the config file or the per-profile environment variable
``GEOPUB_TOKEN_<PROFILE>`` (profile name uppercased, non-alphanumerics replaced
by ``_``, e.g. ``GEOPUB_TOKEN_FIGSHARE_LIKE``).
"""

from __future__ import annotations

import dataclasses
import os
import re
import tomllib
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .errors import ConfigError
from .repo_protocol import BackendProfile

#: The keys of each part of the file, and the value types each key takes.
_TOP_LEVEL_KEYS = {"default_profile": (str,), "cache_path": (str,), "profile": (dict,)}
_PROFILE_KEYS = {"base_url": (str,), "can_search": (bool,), "token": (str, int)}
_TYPE_NAMES = {str: "a quoted string", bool: "true or false", int: "an integer", dict: "a table"}


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
            offending file and setting.
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
        default_profile = top_level.get("default_profile", default_profile)
        cache_path = Path(top_level.get("cache_path", cache_path))
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
        document = tomllib.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    _check_table(path, "", document, _TOP_LEVEL_KEYS)
    profiles = document.pop("profile", {})
    for name, fields in profiles.items():
        where = f"[profile.{name}] "
        if type(fields) is not dict:
            raise ConfigError(f"{path}: {where}must be a table")
        _check_table(path, where, fields, _PROFILE_KEYS)
    return document, profiles


def _check_table(path: Path, where: str, table: dict, keys: dict[str, tuple[type, ...]]) -> None:
    """Every key of ``table`` is one of ``keys``, with a value of its types."""
    for key, value in table.items():
        if key not in keys:
            allowed = ", ".join(sorted(keys))
            raise ConfigError(f"{path}: {where}unknown key {key!r} (allowed: {allowed})")
        if type(value) not in keys[key]:
            wanted = " or ".join(_TYPE_NAMES[t] for t in keys[key])
            raise ConfigError(f"{path}: {where}{key} must be {wanted}")
