"""Seeded input generator for the geopub benchmark workloads.

Every byte comes from ``random.Random`` seeded with the workload name and the
seed, so one seed always yields one input set. Large files are written in
bounded chunks, each a slice at a random offset of one random 1 MiB block,
so generating 210 MB needs about 4 MB of memory. Each file is hashed as it is
written; the digests are the reference that the benchmark's correctness
checks compare the server's records against.

Layout of a generated set under ``OUT``:

* ``project/`` (data workloads) the QGIS project, its data files and mesh;
* ``tool/`` (data workloads) the small source tree of the mesh tool that
  produced the data, published as software and reused every cycle;
* ``source/`` (software workloads) the source tree; for ``software_git`` a
  git repository with an ignored ``build/`` directory and an untracked
  ``.env``, committed with fixed dates so the commit id depends on the seed
  only.

Run ``python3 perfbench/generate.py --workload W --seed N --out DIR`` to
write a set and print its summary as JSON, ``digest`` included: two runs with
one seed print the same digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("data_bulk", "data_many_files", "software_plain", "software_git")

MB = 1_000_000
CHUNK = 1 << 20
_PRINTABLE = bytes(range(0x20, 0x7F)) + b"\n"
_TEXT_TABLE = bytes(_PRINTABLE[i % len(_PRINTABLE)] for i in range(256))

#: Fixed identity and dates for generated commits.
GIT_ENV = {
    "GIT_AUTHOR_NAME": "Bench Author",
    "GIT_AUTHOR_EMAIL": "bench@example.org",
    "GIT_COMMITTER_NAME": "Bench Author",
    "GIT_COMMITTER_EMAIL": "bench@example.org",
    "GIT_AUTHOR_DATE": "2015-09-15T12:00:00+00:00",
    "GIT_COMMITTER_DATE": "2015-09-15T12:00:00+00:00",
    "GIT_CONFIG_NOSYSTEM": "1",
    "GIT_CONFIG_GLOBAL": os.devnull,
}

AUTHORS = (
    "# Authors of the mesh generation tool\n"
    "Ada Mesher <ada@example.org> figshare:1001 zenodo:2001\n"
    "Bo Coast <bo@example.org> figshare:1002\n"
    "Cy Grid <cy@example.org>\n"
)


class Writer:
    """Writes seeded files under a root and records (size, sha256) per file."""

    def __init__(self, root: Path, rng: random.Random):
        self.root = root
        self.rng = rng
        block = rng.randbytes(CHUNK)
        self._binary = block + block
        self._text = self._binary.translate(_TEXT_TABLE)
        self.files: dict[str, tuple[int, str]] = {}

    def write(self, relative: str, size: int, *, text: bool = False, head: bytes = b"") -> Path:
        """Write ``size`` bytes that start with ``head``, in bounded chunks."""
        path = self.root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        source = memoryview(self._text if text else self._binary)
        digest = hashlib.sha256()
        remaining = size
        with open(path, "wb") as handle:
            first = head[:remaining]
            handle.write(first)
            digest.update(first)
            remaining -= len(first)
            while remaining > 0:
                n = min(CHUNK, remaining)
                start = self.rng.randrange(CHUNK)
                chunk = source[start : start + n]
                handle.write(chunk)
                digest.update(chunk)
                remaining -= n
        self.files[relative] = (size, digest.hexdigest())
        return path

    def write_bytes(self, relative: str, payload: bytes) -> Path:
        path = self.root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(payload)
        self.files[relative] = (len(payload), hashlib.sha256(payload).hexdigest())
        return path


def _project_xml(title: str, layers: list[tuple[str, str]]) -> bytes:
    maplayers = "".join(
        "    <maplayer>\n"
        f"      <layername>{name}</layername>\n"
        f"      <datasource>{source}</datasource>\n"
        "      <provider>ogr</provider>\n"
        "    </maplayer>\n"
        for name, source in layers
    )
    return (
        '<?xml version="1.0" encoding="utf-8"?>\n'
        '<qgis projectname="" version="2.8.2">\n'
        f"  <title>{title}</title>\n"
        "  <projectlayers>\n"
        f"{maplayers}"
        "  </projectlayers>\n"
        "</qgis>\n"
    ).encode("utf-8")


_PRJ = (
    'GEOGCS["GCS_WGS_1984",DATUM["D_WGS_1984",SPHEROID["WGS_1984",6378137.0,'
    '298.257223563]],PRIMEM["Greenwich",0.0],UNIT["Degree",0.0174532925199433]]'
)


def _source_tree(w: Writer, prefix: str, files: int, packages: int, max_size: int) -> None:
    """A source tree of ``files`` text files spread over ``packages`` package
    directories, with sizes uniform in [200, max_size] bytes."""
    w.write_bytes(f"{prefix}/AUTHORS", AUTHORS.encode())
    w.write(f"{prefix}/README.md", 2000, text=True, head=b"# meshtool\n")
    for i in range(files):
        package = f"pkg_{i % packages:02d}"
        sub = "tests/" if i % 7 == 0 else ""
        w.write(
            f"{prefix}/{package}/{sub}module_{i:04d}.py",
            w.rng.randint(200, max_size),
            text=True,
            head=f'"""Module {i} of package {package}."""\n'.encode(),
        )


def generate(workload: str, seed: int, out: Path, scale: float = 1.0) -> dict:
    """Write the input set of ``workload`` for ``seed`` under ``out``.

    ``scale`` shrinks every file count and size (the smoke test uses it).
    Returns the summary: paths, per-file (size, sha256) keyed by path
    relative to ``out``, the bytes of the set a publication reads
    (``input_bytes``), and the digest of the whole set.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    out.mkdir(parents=True, exist_ok=True)
    w = Writer(out, random.Random(f"{workload}:{seed}"))

    def n(count: int) -> int:
        return max(1, round(count * scale))

    summary: dict = {"workload": workload, "seed": seed}
    if workload.startswith("data_"):
        layers: list[tuple[str, str]] = []
        if workload == "data_bulk":
            w.write("project/vector/coastline.shp", n(4 * MB), head=b"\x00\x00\x27\x0a")
            w.write("project/vector/coastline.shx", n(300_000), head=b"\x00\x00\x27\x0a")
            w.write("project/vector/coastline.dbf", n(900_000), head=b"\x03")
            w.write_bytes("project/vector/coastline.prj", _PRJ.encode())
            w.write_bytes("project/vector/coastline.cpg", b"UTF-8\n")
            layers.append(("coastline", "./vector/coastline.shp"))
            for i in range(8):
                w.write(f"project/grids/grid_{i}.nc", n(25 * MB), head=b"CDF\x01")
                source = (
                    f'NETCDF:"./grids/grid_{i}.nc":depth'
                    if i % 2
                    else f"./grids/grid_{i}.nc|layername=z"
                )
                layers.append((f"grid {i}", source))
            mesh_size = n(8 * MB)
        else:
            for i in range(n(25)):
                stem = f"project/layers/layer_{i:02d}"
                w.write(f"{stem}.shp", w.rng.randint(n(500), n(8000)), head=b"\x00\x00\x27\x0a")
                w.write(f"{stem}.shx", w.rng.randint(n(500), n(8000)), head=b"\x00\x00\x27\x0a")
                w.write(f"{stem}.dbf", w.rng.randint(n(500), n(8000)), head=b"\x03")
                w.write_bytes(f"{stem}.prj", _PRJ.encode())
                layers.append((f"layer {i:02d}", f"./layers/layer_{i:02d}.shp"))
            mesh_size = n(60_000)
        w.write(
            "project/mesh/domain.msh",
            mesh_size,
            text=True,
            head=b"$MeshFormat\n2.2 0 8\n$EndMeshFormat\n$Nodes\n",
        )
        w.write_bytes("project/domain.qgs", _project_xml(f"{workload} seed {seed}", layers))
        data_files = sorted(rel for rel in w.files if rel.startswith("project/"))
        _source_tree(w, "tool", n(60), 4, 8000)
        summary.update(
            project="project/domain.qgs",
            mesh="project/mesh/domain.msh",
            tool="tool",
            data_files=data_files,
        )
    else:
        _source_tree(w, "source", n(3000), n(40), 20_000)
        if workload == "software_git":
            w.write_bytes("source/.gitignore", b"build/\n__pycache__/\n")
            tracked = [rel.removeprefix("source/") for rel in w.files]
            summary["head"] = _git_import(out / "source", tracked)
            # Written after the commit: build/ is ignored, .env stays untracked.
            for i in range(n(40)):
                w.write(f"source/build/pkg_{i:02d}.o", w.rng.randint(n(10_000), n(60_000)))
            w.write_bytes("source/.env", f"API_TOKEN=local-secret-{seed}\n".encode())
        summary["source"] = "source"

    summary["files"] = {rel: list(entry) for rel, entry in sorted(w.files.items())}
    root = "project/" if workload.startswith("data_") else "source/"
    summary["input_bytes"] = sum(size for rel, (size, _) in w.files.items() if rel.startswith(root))
    lines = "".join(f"{rel}\0{size}\0{sha}\n" for rel, (size, sha) in sorted(w.files.items()))
    summary["digest"] = hashlib.sha256(lines.encode()).hexdigest()
    return summary


def git(repo: Path, *args: str, stdin: bytes | None = None) -> str:
    """Run git in ``repo`` with the fixed identity and no user config."""
    return subprocess.run(
        ["git", "-C", str(repo), *args],
        env={**os.environ, **GIT_ENV},
        input=stdin,
        check=True,
        capture_output=True,
    ).stdout.decode().strip()


def _git_import(repo: Path, files: list[str]) -> str:
    """Commit ``files`` (paths relative to ``repo``) as the first commit of a
    new repository; returns the commit id.

    One ``git fast-import`` stream with compression off writes a single pack,
    where ``git add`` would create one loose object file per source file.
    """
    git(repo, "init", "-q", "-b", "main")
    stream = [b"commit refs/heads/main\ncommitter Bench Author <bench@example.org> "
              b"1442318400 +0000\ndata 15\ninitial import\n"]
    for relative in files:
        data = (repo / relative).read_bytes()
        stream.append(b"M 100644 inline %s\ndata %d\n%s\n" % (relative.encode(), len(data), data))
    git(repo, "-c", "core.compression=0", "fast-import", "--quiet", "--depth=0",
        stdin=b"".join(stream))
    git(repo, "reset", "-q")
    git(repo, "update-index", "-q", "--refresh")
    return git(repo, "rev-parse", "HEAD")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    summary = generate(args.workload, args.seed, args.out, args.scale)
    json.dump(summary, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
