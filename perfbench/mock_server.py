"""Serve a geopub mock repository over HTTP in a process of its own.

Usage::

    PYTHONPATH=src python3 perfbench/mock_server.py --profile figshare-like

Builds a ``MockService``, wraps its ``handle_request`` to time every request,
and serves it with ``MockServer`` on an ephemeral loopback port. Prints one
JSON line ``{"base_url": ...}`` once listening and serves until its standard
input closes. It then stops the server and prints one JSON line report:
``request_count``, ``depositions``, ``peak_rss_mb`` and ``requests``, the
``[operation, handler seconds, body bytes]`` of every request in arrival
order.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import threading
import time
from urllib.parse import urlsplit

from geopub.mock_service import MockServer, MockService, ServiceConfig

_SUBRESOURCE_OPS = {
    "files": "upload",
    "actions/publish": "publish",
    "actions/make_public": "make_public",
    "collaborators": "collaborators",
    "tags": "tags",
}


def operation(method: str, path: str) -> str:
    """Protocol operation of a request, from its method and path."""
    parts = urlsplit(path).path.strip("/").split("/", 4)
    if parts[:3] != ["api", "v1", "depositions"]:
        return "other"
    if len(parts) == 3:
        return "create" if method == "POST" else "search"
    if len(parts) == 4:
        return "get"
    return _SUBRESOURCE_OPS.get(parts[4], "other")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--profile", choices=("figshare-like", "zenodo-like"), required=True)
    args = parser.parse_args()

    config = (
        ServiceConfig.figshare_like()
        if args.profile == "figshare-like"
        else ServiceConfig.zenodo_like()
    )
    service = MockService(config)
    handle = service.handle_request
    lock = threading.Lock()
    arrivals: list[list] = []

    def timed_handle(method, path, headers, body):
        with lock:
            record = [operation(method, path), 0.0, len(body)]
            arrivals.append(record)
        start = time.perf_counter()
        try:
            return handle(method, path, headers, body)
        finally:
            record[1] = time.perf_counter() - start

    service.handle_request = timed_handle
    server = MockServer(service, port=0)
    server.start()
    print(json.dumps({"base_url": server.base_url}), flush=True)
    try:
        sys.stdin.read()
    finally:
        server.stop()

    report = {
        "request_count": service.request_count,
        "depositions": service.deposition_count(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "requests": arrivals,
    }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
