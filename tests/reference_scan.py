"""Brute-force reference extraction of project datasources.

Deliberately independent of the real parser: works on the raw document text
with regular expressions instead of an XML tree, and re-derives the
resolution rules from scratch. Used to cross-check ``collect_datasources``.
"""

from __future__ import annotations

import os
import re

_DATASOURCE = re.compile(r"<datasource>(.*?)</datasource>", re.DOTALL)
_SCHEME = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*://")
_PREFIX = re.compile(r"^[A-Za-z][A-Za-z0-9_]*:(.+)$", re.DOTALL)

_SIDECAR_ORDER = (".shx", ".dbf", ".prj", ".cpg", ".qpj")

_ENTITIES = [("&lt;", "<"), ("&gt;", ">"), ("&quot;", '"'), ("&apos;", "'"), ("&amp;", "&")]


def _unescape(text: str) -> str:
    for entity, char in _ENTITIES:
        text = text.replace(entity, char)
    return text


def scan_datasources(project_path: str) -> list[tuple[str, tuple[str, ...]]]:
    """All file datasources of a project as (path, sidecars) rows."""
    with open(project_path, encoding="utf-8") as handle:
        text = handle.read()
    project_dir = os.path.dirname(os.path.abspath(project_path))

    rows: list[tuple[str, tuple[str, ...]]] = []
    seen: set[str] = set()
    for raw in _DATASOURCE.findall(text):
        raw = _unescape(raw).strip()
        if not raw:
            continue
        if "dbname=" in raw or "url=" in raw or _SCHEME.match(raw):
            continue

        candidate = raw.split("|")[0].strip()
        prefixed = _PREFIX.match(candidate)
        if prefixed:
            rest = prefixed.group(1)
            if rest.startswith('"'):
                end = rest.find('"', 1)
                candidate = rest[1:end] if end > 0 else rest[1:]
            else:
                candidate = rest.split(":")[0]

        if not os.path.isabs(candidate):
            candidate = os.path.join(project_dir, candidate)
        resolved = os.path.normpath(candidate)
        if resolved in seen:
            continue
        seen.add(resolved)

        sidecars: tuple[str, ...] = ()
        if resolved.lower().endswith(".shp"):
            stem = resolved[: -len(".shp")]
            sidecars = tuple(
                stem + ext for ext in _SIDECAR_ORDER if os.path.isfile(stem + ext)
            )
        rows.append((resolved, sidecars))
    return rows
