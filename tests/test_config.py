from __future__ import annotations

from pathlib import Path

import pytest

from geopub.config import CliConfig, load_config, token_env_var
from geopub.errors import ConfigError
from geopub.repo_protocol import BackendProfile


def _write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


class TestDefaults:
    def test_no_config_anywhere(self, tmp_path):
        config = load_config(env={"XDG_CONFIG_HOME": str(tmp_path)})
        assert config.default_profile == "figshare-like"
        assert set(config.profiles) == {"figshare-like", "zenodo-like"}
        figshare = config.profiles["figshare-like"]
        assert figshare.base_url == "http://localhost:8472"
        assert figshare.auth_token == ""
        assert figshare.can_search is True
        assert config.profiles["zenodo-like"].can_search is False
        assert config.cache_path == tmp_path / "geopub" / "doi_cache.json"

    def test_platform_config_file_is_picked_up(self, tmp_path):
        _write(
            tmp_path / "geopub" / "config.toml",
            '[profile.figshare-like]\ntoken = "from-file"\n',
        )
        config = load_config(env={"XDG_CONFIG_HOME": str(tmp_path)})
        assert config.profiles["figshare-like"].auth_token == "from-file"


class TestFileParsing:
    def test_full_file(self, tmp_path):
        path = _write(
            tmp_path / "geopub.toml",
            "\n".join(
                [
                    "# comment",
                    'default_profile = "zenodo-like"',
                    f'cache_path = "{tmp_path}/cache.json"',
                    "",
                    "[profile.figshare-like]",
                    'base_url = "http://repo:9000"',
                    'token = "abc"',
                    "",
                    "[profile.inst]",
                    'base_url = "http://inst:1234"',
                    "can_search = true",
                ]
            )
            + "\n",
        )
        config = load_config(path)
        assert config.default_profile == "zenodo-like"
        assert config.cache_path == tmp_path / "cache.json"
        assert config.profiles["figshare-like"].base_url == "http://repo:9000"
        assert config.profiles["figshare-like"].auth_token == "abc"
        # Defaults survive for fields the file does not set.
        assert config.profiles["figshare-like"].can_search is True
        assert config.profiles["inst"] == BackendProfile(
            name="inst", base_url="http://inst:1234", can_search=True, auth_token=""
        )

    def test_malformed_line_names_file_and_line(self, tmp_path):
        path = _write(tmp_path / "c.toml", 'default_profile = "x"\nthis is not a setting\n')
        with pytest.raises(ConfigError, match=r"c\.toml:2"):
            load_config(path)

    def test_unknown_key_names_line(self, tmp_path):
        path = _write(tmp_path / "c.toml", "colour = true\n")
        with pytest.raises(ConfigError, match=r"c\.toml:1.*colour"):
            load_config(path)

    def test_unterminated_string(self, tmp_path):
        path = _write(tmp_path / "c.toml", 'default_profile = "oops\n')
        with pytest.raises(ConfigError, match=r"c\.toml:1"):
            load_config(path)

    def test_bad_section_header(self, tmp_path):
        path = _write(tmp_path / "c.toml", "[something]\n")
        with pytest.raises(ConfigError, match=r"c\.toml:1"):
            load_config(path)

    def test_bad_value_type(self, tmp_path):
        path = _write(tmp_path / "c.toml", "[profile.x]\nbase_url = maybe\n")
        with pytest.raises(ConfigError, match=r"c\.toml:2"):
            load_config(path)

    @pytest.mark.parametrize(
        "text,line,message",
        [
            ("[profile.x]\nbase_url = 8472\n", 2, "base_url must be a quoted string"),
            ("cache_path = 5\n", 1, "cache_path must be a quoted string"),
            ("default_profile = true\n", 1, "default_profile must be a quoted string"),
            ('[profile.inst]\ncan_search = "no"\n', 2, "can_search must be true or false"),
            ("[profile.x]\ntoken = false\n", 2, "token must be a quoted string or an integer"),
        ],
        ids=["base_url", "cache_path", "default_profile", "can_search", "token"],
    )
    def test_value_of_wrong_type_names_line(self, tmp_path, text, line, message):
        path = _write(tmp_path / "c.toml", text)
        with pytest.raises(ConfigError, match=rf"c\.toml:{line}: {message}$"):
            load_config(path)

    def test_token_may_be_an_unquoted_integer(self, tmp_path):
        path = _write(tmp_path / "c.toml", "[profile.figshare-like]\ntoken = 12345\n")
        assert load_config(path).profiles["figshare-like"].auth_token == 12345

    def test_non_utf8_file_is_a_config_error(self, tmp_path):
        path = tmp_path / "c.toml"
        path.write_bytes(b'default_profile = "figshare-like"\n# caf\xff\n')
        with pytest.raises(ConfigError, match=r"c\.toml"):
            load_config(path)

    def test_new_profile_requires_base_url(self, tmp_path):
        path = _write(tmp_path / "c.toml", '[profile.new]\ntoken = "t"\n')
        with pytest.raises(ConfigError, match="base_url"):
            load_config(path)

    def test_explicitly_named_file_must_exist(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            load_config(tmp_path / "nope.toml")
        with pytest.raises(ConfigError, match="does not exist"):
            load_config(env={"GEOPUB_CONFIG": str(tmp_path / "nope.toml")})


class TestPrecedence:
    def test_env_token_overrides_file_token(self, tmp_path):
        path = _write(
            tmp_path / "c.toml", '[profile.figshare-like]\ntoken = "file-token"\n'
        )
        config = load_config(
            env={
                "GEOPUB_CONFIG": str(path),
                "GEOPUB_TOKEN_FIGSHARE_LIKE": "env-token",
            }
        )
        assert config.profiles["figshare-like"].auth_token == "env-token"

    def test_env_cache_overrides_file_cache(self, tmp_path):
        path = _write(tmp_path / "c.toml", f'cache_path = "{tmp_path}/file-cache.json"\n')
        config = load_config(
            env={"GEOPUB_CONFIG": str(path), "GEOPUB_CACHE": str(tmp_path / "env-cache.json")}
        )
        assert config.cache_path == tmp_path / "env-cache.json"

    def test_geopub_config_env_selects_file(self, tmp_path):
        path = _write(tmp_path / "elsewhere.toml", 'default_profile = "zenodo-like"\n')
        config = load_config(env={"GEOPUB_CONFIG": str(path)})
        assert config.default_profile == "zenodo-like"


class TestValidation:
    def test_default_profile_must_exist(self, tmp_path):
        path = _write(tmp_path / "c.toml", 'default_profile = "missing"\n')
        with pytest.raises(ConfigError, match="missing"):
            load_config(path)

    def test_reserved_capabilities_enforced(self, tmp_path):
        path = _write(tmp_path / "c.toml", "[profile.figshare-like]\ncan_search = false\n")
        with pytest.raises(ConfigError, match="can_search"):
            load_config(path)
        path = _write(tmp_path / "c2.toml", "[profile.zenodo-like]\ncan_search = true\n")
        with pytest.raises(ConfigError, match="can_search"):
            load_config(path)

    def test_profile_lookup_lists_configured_names(self, tmp_path):
        config = load_config(env={"XDG_CONFIG_HOME": str(tmp_path)})
        with pytest.raises(ConfigError) as excinfo:
            config.profile("nope")
        assert "figshare-like" in str(excinfo.value)
        assert "zenodo-like" in str(excinfo.value)

    def test_construction_checks_default_profile(self):
        with pytest.raises(ConfigError):
            CliConfig(profiles={}, default_profile="x", cache_path=Path("/tmp/c.json"))


class TestTokenEnvVar:
    def test_normalization(self):
        assert token_env_var("figshare-like") == "GEOPUB_TOKEN_FIGSHARE_LIKE"
        assert token_env_var("my.repo v2") == "GEOPUB_TOKEN_MY_REPO_V2"
