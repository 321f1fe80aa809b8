"""Spans and counters recorded from outside geopub, by wrapping its public
functions and methods.

Two wrappers are always installed, because the correctness checks need them:
``HttpTransport.request`` counts every request attempt, and
``build_source_archive`` hard-links each archive it builds into a directory
of the benchmark's, so the check can hash the exact bytes the client built.
A traced run installs the rest. Every wrapper records a span only while
``Instruments.pub`` names a publication and only on the thread that runs it;
the manifest's hashing pool therefore counts as time of ``manifest.build``.
A traced name that geopub no longer has is skipped and its metrics read 0,
so a refactor of geopub does not force a change to the benchmark.

A span is ``{"name", "pub", "parent", "start", "end", ...attributes}``, kept
in memory in ``Instruments.spans``. Span names are ``<layer>.<what>``, with
the layers named after geopub's modules; attribute names are metric names.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from pathlib import Path

#: Span name of the public entry point call that one publication step makes.
ROOT = "orchestrator.publish"


class Instruments:
    def __init__(self, archive_dir: Path):
        self.archive_dir = archive_dir
        self.attempts = 0
        self.archives: list[Path] = []
        self._archive_count = 0
        self.spans: list[dict] = []
        self.pub: int | None = None
        self._stack: list[int] = []
        self._thread = threading.get_ident()

    def recording(self) -> bool:
        return self.pub is not None and threading.get_ident() == self._thread

    def call(self, name: str, func, args, kwargs, attrs=None):
        """Run ``func`` inside a span named ``name`` when recording.

        ``attrs(args, kwargs, result)`` returns extra fields for the span."""
        if not self.recording():
            return func(*args, **kwargs)
        span = {"name": name, "pub": self.pub, "parent": self._stack[-1] if self._stack else None}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span["start"] = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if attrs is not None:
            span.update(attrs(args, kwargs, result))
        return result

    def top(self) -> str | None:
        return self.spans[self._stack[-1]]["name"] if self._stack else None

    # -- installation

    def install_required(self) -> None:
        from geopub import orchestrator, repo_protocol

        transport_request = repo_protocol.HttpTransport.request

        def request(*args, **kwargs):
            seq = self.attempts
            self.attempts += 1
            return self.call("repo_protocol.request", transport_request, args, kwargs,
                             lambda a, k, r: {"seq": seq})

        repo_protocol.HttpTransport.request = request

        build_archive = orchestrator.build_source_archive

        def archive(*args, **kwargs):
            path = self.call("orchestrator.archive", build_archive, args, kwargs,
                             lambda a, k, r: {"orchestrator.archive_bytes": r.stat().st_size})
            self._archive_count += 1
            kept = self.archive_dir / str(self._archive_count) / path.name
            kept.parent.mkdir(parents=True)
            os.link(path, kept)
            self.archives.append(kept)
            return path

        _replace_function(build_archive, archive)

    def install_tracing(self) -> None:
        from geopub import manifest, orchestrator, qgis_project, repo_protocol, vcs_info

        functions = [
            (qgis_project, "parse_project", "qgis_project.parse",
             lambda a, k, r: {"qgis_project.layers": len(r.layers)}),
            (qgis_project, "collect_datasources", "qgis_project.collect", None),
            (manifest, "build_manifest", "manifest.build",
             lambda a, k, r: {"manifest.files": len(r.entries), "manifest.bytes": r.total_size}),
            (vcs_info, "detect_version", "vcs_info.detect", None),
            (vcs_info, "tree_hash", "vcs_info.tree_hash", None),
            (vcs_info, "iter_source_files", "vcs_info.enumerate", None),
            (vcs_info, "parse_authors", "vcs_info.authors", None),
        ]
        for module, attr, name, attrs in functions:
            original = getattr(module, attr, None)
            if original is not None:
                _replace_function(original, self._wrapper(name, original, attrs))

        checksum = getattr(manifest, "checksum_file", None)
        if checksum is not None:
            def archive_checksum(*args, **kwargs):
                # Only the orchestrator's own call, which checksums the archive.
                if self.top() != ROOT:
                    return checksum(*args, **kwargs)
                return self.call("orchestrator.archive_checksum", checksum, args, kwargs)

            _replace_function(checksum, archive_checksum)

        cache = getattr(orchestrator, "DoiCache", None)
        if cache is not None:
            for attr, name in (("get", "orchestrator.cache_get"), ("put", "orchestrator.cache_put")):
                if hasattr(cache, attr):
                    setattr(cache, attr, self._wrapper(name, getattr(cache, attr), None))
            if hasattr(cache, "lock"):
                lock = cache.lock

                def timed_lock(*args, **kwargs):
                    return _TimedContext(self, "orchestrator.cache_lock", lock(*args, **kwargs))

                cache.lock = timed_lock

        client = repo_protocol.RepositoryClient
        for attr, op in (
            ("create_deposition", "create"),
            ("upload_file", "upload"),
            ("publish_deposition", "publish"),
            ("search_by_tag", "search"),
            ("get_deposition", "get"),
            ("append_tag", "tags"),
        ):
            if hasattr(client, attr):
                attrs = _upload_bytes if op == "upload" else None
                setattr(client, attr, self._wrapper(f"repo_protocol.{op}", getattr(client, attr), attrs))

    def _wrapper(self, name, func, attrs):
        def wrapper(*args, **kwargs):
            return self.call(name, func, args, kwargs, attrs)

        return wrapper


def _upload_bytes(args, kwargs, result) -> dict:
    entry = args[2] if len(args) > 2 else kwargs["entry"]
    return {"repo_protocol.upload_bytes": entry.size}


class _TimedContext:
    """A context manager whose enter and exit are each recorded as a span."""

    def __init__(self, instruments: Instruments, name: str, inner):
        self._instruments = instruments
        self._name = name
        self._inner = inner

    def __enter__(self):
        return self._instruments.call(self._name, self._inner.__enter__, (), {})

    def __exit__(self, *exc):
        return self._instruments.call(self._name, self._inner.__exit__, exc, {})


def _replace_function(original, replacement) -> None:
    """Rebind every geopub module global that refers to ``original``, so calls
    through ``from .x import f`` imports are wrapped as well."""
    for name, module in list(sys.modules.items()):
        if name != "geopub" and not name.startswith("geopub."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
