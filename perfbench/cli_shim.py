"""The ``geopub`` console script, counting the requests it sends.

Runs ``geopub.cli.main`` with this process's arguments, as the installed
``geopub`` entry point does. When ``PERFBENCH_ATTEMPTS_FILE`` is set, the
number of HTTP request attempts the command made is written there at exit,
so the benchmark can match the server's request count.
"""

import os

from geopub import cli, repo_protocol


def main() -> None:
    attempts = 0
    request = repo_protocol.HttpTransport.request

    def counted_request(*args, **kwargs):
        nonlocal attempts
        attempts += 1
        return request(*args, **kwargs)

    repo_protocol.HttpTransport.request = counted_request
    try:
        cli.main()
    finally:
        path = os.environ.get("PERFBENCH_ATTEMPTS_FILE")
        if path:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(str(attempts))


if __name__ == "__main__":
    main()
