"""Command line interface.

Success on stdout is machine-parseable and limited to the documented lines::

    Publication ID: <id>
    DOI: <doi>

(`publish software` may print ``Reusing existing publication.`` first.)
Everything else, including per-file progress and warnings, goes to stderr.

Exit codes: 0 success, 2 usage or configuration, 3 unreadable or unparseable
input, 4 missing referenced files, 5 repository service error.
"""

from __future__ import annotations

import logging
import sys
from contextlib import contextmanager
from pathlib import Path

import click

from . import orchestrator
from .config import load_config
from .errors import AuthorsFormatError, ConfigError, GeopubError, MissingFileError, ParseError
from .manifest import manifest_to_json

#: Exit code of each error family; the first family that matches wins.
_EXIT_CODES = (
    (ConfigError, 2),
    ((ParseError, AuthorsFormatError, OSError), 3),
    (MissingFileError, 4),
    (GeopubError, 5),
)


def _configure_logging() -> None:
    # Rebind the handler to the current stderr on every invocation so output
    # lands in the right stream under test runners that swap sys.stderr.
    root = logging.getLogger()
    root.setLevel(logging.INFO)
    for handler in list(root.handlers):
        if getattr(handler, "_geopub_cli", False):
            root.removeHandler(handler)
    handler = logging.StreamHandler(sys.stderr)
    handler._geopub_cli = True
    handler.setFormatter(logging.Formatter("%(levelname)s: %(message)s"))
    root.addHandler(handler)


@contextmanager
def _exit_codes():
    """Report an error raised in the block on stderr and exit with the code
    of its family in ``_EXIT_CODES``."""
    try:
        yield
    except (GeopubError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(next(code for family, code in _EXIT_CODES if isinstance(exc, family)))


@click.group()
def main() -> None:
    """Publish QGIS project provenance and software versions to repository
    services, getting citable DOIs back."""
    _configure_logging()


@main.group()
def publish() -> None:
    """Publish data or software."""


@publish.command("data")
@click.option(
    "--project",
    "project_path",
    required=True,
    type=click.Path(path_type=Path),
    help="QGIS project file whose datasources will be published.",
)
@click.option(
    "--mesh",
    "mesh_path",
    type=click.Path(path_type=Path),
    default=None,
    help="Generated mesh file to include in the publication.",
)
@click.option("--service", "service_name", default=None, help="Backend profile to publish to.")
@click.option("--private", is_flag=True, help="Publish privately; the DOI stays reserved.")
@click.option(
    "--related-software-doi",
    default=None,
    help="Tag the publication with the DOI of the software that produced it.",
)
@click.option("--dry-run", is_flag=True, help="Print the manifest JSON; no network traffic.")
@click.option("--title", default=None, help="Override the derived repository title.")
@click.option("--description", default=None, help="Override the generated description.")
def publish_data(
    project_path: Path,
    mesh_path: Path | None,
    service_name: str | None,
    private: bool,
    related_software_doi: str | None,
    dry_run: bool,
    title: str | None,
    description: str | None,
) -> None:
    """Publish a project's data files (and optionally its mesh)."""
    with _exit_codes():
        profile = load_config().profile(service_name)
        if dry_run:
            manifest = orchestrator.plan_data(
                project_path,
                mesh_path,
                title=title,
                description=description,
                related_software_doi=related_software_doi,
            )
            click.echo(manifest_to_json(manifest))
            return
        result = orchestrator.publish_data(
            profile,
            project_path,
            mesh_path,
            private=private,
            title=title,
            description=description,
            related_software_doi=related_software_doi,
        )
    click.echo(f"Publication ID: {result.publication_id}")
    click.echo(f"DOI: {result.doi}")


@publish.command("software")
@click.option(
    "--source",
    "source_dir",
    required=True,
    type=click.Path(path_type=Path),
    help="Source tree to publish.",
)
@click.option("--service", "service_name", default=None, help="Backend profile to publish to.")
@click.option("--private", is_flag=True, help="Publish privately; the DOI stays reserved.")
@click.option(
    "--no-cache",
    "no_cache",
    is_flag=True,
    help="Do not consult or update the local DOI cache.",
)
def publish_software(
    source_dir: Path, service_name: str | None, private: bool, no_cache: bool
) -> None:
    """Publish a software source tree, reusing the DOI of an already
    published version when possible."""
    with _exit_codes():
        config = load_config()
        outcome = orchestrator.publish_software(
            config.profile(service_name),
            source_dir,
            private=private,
            cache=None if no_cache else orchestrator.DoiCache(config.cache_path),
        )
    if outcome.reused:
        click.echo("Reusing existing publication.")
    click.echo(f"Publication ID: {outcome.result.publication_id}")
    click.echo(f"DOI: {outcome.result.doi}")


if __name__ == "__main__":
    main()
