"""The package root's public names are a fixed list, and each one resolves."""

from __future__ import annotations

import geopub
from geopub import manifest, orchestrator, repo_protocol, vcs_info

PUBLIC_NAMES = [
    "AuthError",
    "AuthorRef",
    "AuthorsFormatError",
    "BackendProfile",
    "BindError",
    "CacheCorruptError",
    "CacheLockError",
    "CapabilityNotSupportedError",
    "ChecksumMismatchError",
    "ConfigError",
    "DataSourceRef",
    "Deposition",
    "DepositionMeta",
    "DepositionState",
    "DoiCache",
    "DoiCacheRecord",
    "GeopubError",
    "LayerEntry",
    "ManifestEntry",
    "MissingFileError",
    "NetworkError",
    "NotFoundError",
    "ParseError",
    "ProjectFile",
    "ProtocolError",
    "PublicationManifest",
    "PublicationResult",
    "QuotaError",
    "RemoteFile",
    "RepositoryClient",
    "SoftwarePublication",
    "SourceVersion",
    "ValidationError",
    "VersionKind",
    "build_manifest",
    "build_source_archive",
    "checksum_file",
    "collect_datasources",
    "detect_version",
    "manifest_to_json",
    "parse_authors",
    "parse_project",
    "publish_data",
    "publish_software",
    "resolve_datasource",
]


def test_all_is_the_pinned_list():
    assert sorted(geopub.__all__) == PUBLIC_NAMES


def test_star_import_resolves_every_name():
    namespace: dict = {}
    exec("from geopub import *", namespace)
    assert all(name in namespace for name in PUBLIC_NAMES)


def test_deposition_meta_is_one_class_under_both_paths():
    assert geopub.DepositionMeta is manifest.DepositionMeta is repo_protocol.DepositionMeta


def test_archive_writer_is_one_function_under_every_path():
    assert (
        geopub.build_source_archive
        is orchestrator.build_source_archive
        is vcs_info.build_source_archive
    )
