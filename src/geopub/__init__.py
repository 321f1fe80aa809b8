"""geopub: publish QGIS mesh-generation provenance to repository services.

The library extracts every file a QGIS project depends on, checksums the set
together with the project file and the generated mesh, and deposits it on a
repository service in exchange for a citable DOI. Software source trees are
published the same way, keyed by their exact version so an already published
version's DOI is reused instead of minted again.
"""

from .errors import (
    AuthError,
    AuthorsFormatError,
    BindError,
    CacheCorruptError,
    CacheLockError,
    CapabilityNotSupportedError,
    ChecksumMismatchError,
    ConfigError,
    GeopubError,
    MissingFileError,
    NetworkError,
    NotFoundError,
    ParseError,
    ProtocolError,
    QuotaError,
    ValidationError,
)
from .manifest import (
    DepositionMeta,
    ManifestEntry,
    PublicationManifest,
    build_manifest,
    checksum_file,
    manifest_to_json,
)
from .orchestrator import (
    DoiCache,
    DoiCacheRecord,
    SoftwarePublication,
    build_source_archive,
    publish_data,
    publish_software,
)
from .qgis_project import (
    DataSourceRef,
    LayerEntry,
    ProjectFile,
    collect_datasources,
    parse_project,
    resolve_datasource,
)
from .repo_protocol import (
    BackendProfile,
    Deposition,
    DepositionState,
    PublicationResult,
    RemoteFile,
    RepositoryClient,
)
from .vcs_info import (
    AuthorRef,
    SourceVersion,
    VersionKind,
    detect_version,
    parse_authors,
)

__version__ = "0.1.0"

__all__ = [
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
