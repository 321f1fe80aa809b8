"""geopub benchmark: publish generated projects and source trees over HTTP.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload data_bulk --seed 1 --seconds 15 --trace 0

The benchmark generates the workload's inputs from the seed (``generate.py``),
starts a mock repository in a process of its own (``mock_server.py``) and
publishes through geopub's public entry points, ``publish_data`` and
``publish_software``, and through the ``geopub`` command line. All traffic is
real loopback HTTP. One closed-loop client runs the cycles one after another
until ``--seconds`` have passed. Each cycle has three timed steps:

* ``fresh``: a new publication. Data workloads publish the project with
  ``publish_data``; software workloads first edit one file (and commit it,
  untimed) and publish the new version with ``publish_software``.
* ``reuse``: ``publish_software`` on a version that is already published,
  repeated for ``REUSE_SECONDS``. For data workloads this is the mesh tool's
  source tree, which the data cites with ``related_software_doi``, as the
  paper's workflow has it.
* ``cli``: ``geopub publish software`` on the same version, as a subprocess,
  repeated for ``CLI_SECONDS``.

Every step's result is checked outside the timed window; a failed step or
check counts in ``failed``. With ``--trace 1`` every other cycle records spans
around the public functions of each geopub module (``tracing.py``) and the
run prints per-layer metrics. The last line of standard output is the JSON
result; the lines before it are the same metrics as a table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import generate
from tracing import ROOT, Instruments

CHECKOUT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = CHECKOUT / "src"
MB = 1_000_000
TOKEN = "perfbench-token"
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Each cycle repeats the reuse step, and then the CLI step, until this much
#: time has passed, so a reuse that takes 20 ms gets as many samples as one
#: that takes 250 ms, and a 5 s data cycle still gets a few CLI samples.
REUSE_SECONDS = 0.3
CLI_SECONDS = 1.0

#: workload -> (backend profile, whether the library keeps a DoiCache)
WORKLOADS = {
    "data_bulk": ("figshare-like", False),
    "data_many_files": ("figshare-like", False),
    "software_plain": ("figshare-like", False),
    "software_git": ("zenodo-like", True),
}

END_TO_END = {
    "publish_p50_s": "s",
    "publish_tail_s": "s",
    "throughput_mb_s": "MB/s",
    "reuse_p50_s": "s",
    "reuse_tail_s": "s",
    "cli_reuse_p50_s": "s",
    "setup_s": "s",
    "client_peak_rss_mb": "MB",
    "server_peak_rss_mb": "MB",
}

OPS = ("create", "upload", "publish", "search", "get", "tags")
LAYERS = ("qgis_project", "manifest", "vcs_info", "orchestrator", "repo_protocol", "mock_service")

#: Per-layer metrics: the median over traced fresh publications of each
#: publication's total, unless the name says otherwise (``mock_service.requests``
#: and ``mock_service.depositions`` are end-of-run server counts).
PER_LAYER = {
    "qgis_project.parse_s": "s",
    "qgis_project.collect_s": "s",
    "qgis_project.layers": "count",
    "manifest.build_s": "s",
    "manifest.files": "count",
    "manifest.bytes": "B",
    "manifest.hash_mb_s": "MB/s",
    "vcs_info.detect_s": "s",
    "vcs_info.tree_hash_s": "s",
    "vcs_info.enumerate_s": "s",
    "vcs_info.enumerations": "count",
    "orchestrator.archive_s": "s",
    "orchestrator.archive_bytes": "B",
    "orchestrator.archive_checksum_s": "s",
    "orchestrator.cache_lock_s": "s",
    "orchestrator.cache_get_s": "s",
    "orchestrator.cache_put_s": "s",
    **{f"repo_protocol.{op}_s": "s" for op in OPS},
    **{f"repo_protocol.{op}_calls": "count" for op in OPS},
    "repo_protocol.requests": "count",
    "repo_protocol.attempts": "count",
    "repo_protocol.retry_ratio": "ratio",
    "repo_protocol.upload_bytes": "B",
    "repo_protocol.wire_s": "s",
    **{f"mock_service.{op}_handle_s": "s" for op in OPS},
    "mock_service.upload_handle_mb_s": "MB/s",
    "mock_service.requests": "count",
    "mock_service.depositions": "count",
    "cli.startup_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.publish_p50_s": "s",
    "trace.unaccounted_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Step:
    kind: str  # "fresh", "reuse" or "cli"
    cycle: int
    traced: bool
    seconds: float = 0.0
    error: str | None = None


@dataclass
class Server:
    """A mock server process and the client-side attempt count at its start."""

    process: subprocess.Popen
    base_url: str
    first_attempt: int

    @classmethod
    def start(cls, profile: str, env: dict, first_attempt: int) -> "Server":
        process = subprocess.Popen(
            [sys.executable, str(BENCH / "mock_server.py"), "--profile", profile],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            # Large buffers always get their own mapping, so peak RSS counts the
            # request bodies alive at once, not what glibc's per-thread arenas
            # happen to keep after freeing them (that differs run to run).
            env={**env, "MALLOC_MMAP_THRESHOLD_": str(1 << 20)},
            text=True,
        )
        line = process.stdout.readline()
        if not line:
            process.wait(timeout=30)
            raise RuntimeError(f"mock server exited with code {process.returncode}")
        return cls(process, json.loads(line)["base_url"], first_attempt)

    def stop(self) -> dict:
        """Stop the server and return its report."""
        self.process.stdin.close()
        output = self.process.stdout.read()
        self.process.wait(timeout=60)
        return json.loads(output.strip().splitlines()[-1])

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=30)


@dataclass
class Inputs:
    """One set-up: generated inputs, a running server, the warm-up result."""

    summary: dict
    root: Path
    server: Server
    profile: object
    env: dict
    cache_path: Path
    warm_up: object = None
    published: dict = field(default_factory=dict)  # version directory -> result


class Benchmark:
    def __init__(self, args: argparse.Namespace, work: Path):
        import geopub

        self.geopub = geopub
        self.args = args
        self.work = work
        self.profile_name, self.use_cache = WORKLOADS[args.workload]
        self.data = args.workload.startswith("data_")
        self.instruments = Instruments(work / "archives")
        self.instruments.install_required()
        if args.trace:
            self.instruments.install_tracing()
        self.steps: list[Step] = []
        self.failures: list[str] = []
        self.next_id = 1
        self.dois: set[str] = set()
        self.tampered = False
        self.servers: list[Server] = []

    # -- set-up

    def set_up(self, repeat: int) -> Inputs:
        root = self.work / f"setup{repeat}"
        (root / "home").mkdir(parents=True)
        env = {
            **os.environ,
            **generate.GIT_ENV,
            "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
            "HOME": str(root / "home"),
            "XDG_CONFIG_HOME": str(root / "home"),
            "TMPDIR": str(self.work / "tmp"),
        }
        generated = subprocess.run(
            [sys.executable, str(BENCH / "generate.py"), "--workload", self.args.workload,
             "--seed", str(self.args.seed), "--out", str(root / "inputs"),
             "--scale", str(self.args.scale)],
            env=env, capture_output=True, text=True, check=True,
        )
        summary = json.loads(generated.stdout)
        server = Server.start(self.profile_name, env, self.instruments.attempts)
        self.servers.append(server)
        profile = self.geopub.BackendProfile(
            name=self.profile_name,
            base_url=server.base_url,
            can_search=self.profile_name == "figshare-like",
            auth_token=TOKEN,
        )
        cache_path = root / "cache" / "doi_cache.json"
        config = root / "config.toml"
        config.write_text(
            f'default_profile = "{self.profile_name}"\n'
            f'cache_path = "{cache_path}"\n'
            f"[profile.{self.profile_name}]\n"
            f'base_url = "{server.base_url}"\n'
            f'token = "{TOKEN}"\n',
            encoding="utf-8",
        )
        env["GEOPUB_CONFIG"] = str(config)
        inputs = Inputs(summary, root / "inputs", server, profile, env, cache_path)
        # Warm-up: the first publication of the version that reuse steps use.
        version_dir = self.reused_dir(inputs)
        inputs.warm_up = self.publish_software(inputs, version_dir).result
        inputs.published[version_dir] = inputs.warm_up
        return inputs

    def reused_dir(self, inputs: Inputs) -> Path:
        return inputs.root / (inputs.summary["tool"] if self.data else inputs.summary["source"])

    # -- the three steps

    def publish_software(self, inputs: Inputs, source: Path):
        cache = self.geopub.DoiCache(inputs.cache_path) if self.use_cache else None
        return self.geopub.orchestrator.publish_software(inputs.profile, source, cache=cache)

    def publish_data(self, inputs: Inputs):
        return self.geopub.orchestrator.publish_data(
            inputs.profile,
            inputs.root / inputs.summary["project"],
            inputs.root / inputs.summary["mesh"],
            related_software_doi=inputs.warm_up.doi,
        )

    def run_cli(self, inputs: Inputs, source: Path) -> subprocess.CompletedProcess:
        attempts_file = self.work / "cli_attempts"
        attempts_file.unlink(missing_ok=True)
        completed = subprocess.run(
            [sys.executable, str(BENCH / "cli_shim.py"), "publish", "software",
             "--source", str(source)],
            env={**inputs.env, "PERFBENCH_ATTEMPTS_FILE": str(attempts_file)},
            capture_output=True, text=True, timeout=120,
        )
        self.instruments.attempts += int(attempts_file.read_text() or 0)
        return completed

    def step(self, kind: str, cycle: int, traced: bool, action):
        """Time ``action``; a traced step records its spans under its index."""
        step = Step(kind, cycle, traced)
        self.steps.append(step)
        instruments = self.instruments
        instruments.archives.clear()
        if traced:
            instruments.pub = len(self.steps) - 1
        start = time.perf_counter()
        try:
            if traced:
                result = instruments.call(ROOT, action, (), {})
            else:
                result = action()
        except Exception as exc:  # a failed step is counted, and the run goes on
            step.error = f"{kind}: {type(exc).__name__}: {exc}"
            return None
        finally:
            step.seconds = time.perf_counter() - start
            instruments.pub = None
        return result

    # -- checks (outside the timed window)

    def check(self, check, inputs: Inputs, result, version_dir: Path) -> None:
        """Run ``check`` on the last step, unless that step already failed."""
        step = self.steps[-1]
        if step.error is not None:
            return
        try:
            check(inputs, step, result, version_dir)
        except Exception as exc:  # a check that cannot complete fails its step
            self.fail(step, f"{step.kind} check: {type(exc).__name__}: {exc}")

    def fail(self, step: Step, message: str) -> None:
        if step.error is None:
            step.error = message

    def check_fresh(self, inputs: Inputs, step: Step, result, version_dir: Path) -> None:
        if self.data:
            publication = result
        else:
            publication = result.result
            if result.reused:
                return self.fail(step, "fresh: a new version was reported as reused")
        if publication.publication_id != self.next_id or publication.doi in self.dois:
            return self.fail(step, f"fresh: id {publication.publication_id} / DOI "
                                   f"{publication.doi} is not new (expected id {self.next_id})")
        self.next_id += 1
        self.dois.add(publication.doi)
        client = self.geopub.RepositoryClient(inputs.profile)
        deposition = client.get_deposition(publication.publication_id)
        actual = sorted((f.name, f.size, f.sha256) for f in deposition.files)
        if self.data:
            files = inputs.summary["files"]
            expected = sorted(
                (rel.rsplit("/", 1)[-1], *files[rel]) for rel in inputs.summary["data_files"]
            )
            if f"uses-software-doi:{inputs.warm_up.doi}" not in deposition.tags:
                self.fail(step, "fresh: the data publication does not cite the tool's DOI")
        else:
            inputs.published[version_dir] = publication
            archives = self.instruments.archives
            if len(archives) != 1:
                return self.fail(step, f"fresh: {len(archives)} archives built, expected 1")
            expected = [(archives[0].name, archives[0].stat().st_size, _sha256(archives[0]))]
            shutil.rmtree(archives[0].parent)
        if self.args.tamper and not self.tampered:
            self.tampered = True
            name, size, sha = actual[0]
            actual[0] = (name, size, ("0" if sha[0] != "0" else "1") + sha[1:])
        if actual != expected:
            self.fail(step, "fresh: the server's files and digests differ from the input's")
        if not deposition.doi_active:
            self.fail(step, "fresh: the DOI is not active after publishing")

    def check_reuse(self, inputs: Inputs, step: Step, outcome, version_dir: Path) -> None:
        expected = inputs.published[version_dir]
        if not outcome.reused or (outcome.result.publication_id, outcome.result.doi) != (
            expected.publication_id, expected.doi
        ):
            self.fail(step, f"reuse: got {outcome.result}, expected reuse of {expected}")

    def check_cli(self, inputs: Inputs, step: Step, completed, version_dir: Path) -> None:
        expected = inputs.published[version_dir]
        lines = [
            "Reusing existing publication.",
            f"Publication ID: {expected.publication_id}",
            f"DOI: {expected.doi}",
        ]
        if completed.returncode != 0 or completed.stdout.splitlines() != lines:
            self.fail(step, f"cli: exit {completed.returncode}, stdout {completed.stdout!r}, "
                            f"stderr tail {completed.stderr[-300:]!r}")

    # -- the run

    def run(self) -> dict:
        try:
            return self._run()
        finally:
            for server in self.servers:
                server.kill()

    def _run(self) -> dict:
        setup_seconds = []
        inputs = None
        for repeat in range(SETUP_REPEATS):
            if inputs is not None:
                inputs.server.stop()
                shutil.rmtree(inputs.root.parent)
                self.instruments.archives.clear()
            # Write back what earlier set-ups and runs left dirty, so that their
            # writeback does not land in this set-up's window.
            os.sync()
            start = time.perf_counter()
            inputs = self.set_up(repeat)
            setup_seconds.append(time.perf_counter() - start)
        self.next_id = inputs.warm_up.publication_id + 1
        self.dois = {inputs.warm_up.doi}
        print(f"# {self.args.workload} seed {self.args.seed}: input digest "
              f"{inputs.summary['digest']}, {inputs.summary['input_bytes']} bytes", flush=True)
        try:
            self.cycles(inputs)
        finally:
            report = inputs.server.stop()
        expected_requests = self.instruments.attempts - inputs.server.first_attempt
        if report["request_count"] != expected_requests:
            self.failures.append(f"server saw {report['request_count']} requests, "
                                 f"clients made {expected_requests} attempts")
        if report["depositions"] != self.next_id - 1:
            self.failures.append(f"server holds {report['depositions']} depositions, "
                                 f"expected {self.next_id - 1}")
        return self.result(inputs, report, setup_seconds)

    def cycles(self, inputs: Inputs) -> None:
        version_dir = self.reused_dir(inputs)
        modules = sorted(rel for rel in inputs.summary["files"] if rel.startswith("source/pkg_"))
        edits = random.Random(f"edits:{self.args.seed}")
        start = time.perf_counter()
        cycle = 0
        while cycle == 0 or time.perf_counter() - start < self.args.seconds:
            traced = bool(self.args.trace) and cycle % 2 == 0
            if self.data:
                fresh = lambda: self.publish_data(inputs)
            else:
                with open(inputs.root / edits.choice(modules), "ab") as handle:
                    handle.write(f"# revision {cycle}: {edits.getrandbits(64):016x}\n".encode())
                if self.args.workload == "software_git":
                    generate.git(version_dir, "commit", "-q", "-a", "-m", f"revision {cycle}")
                fresh = lambda: self.publish_software(inputs, version_dir)
            result = self.step("fresh", cycle, traced, fresh)
            self.check(self.check_fresh, inputs, result, version_dir)
            for kind, seconds, action, check in (
                ("reuse", REUSE_SECONDS, lambda: self.publish_software(inputs, version_dir),
                 self.check_reuse),
                ("cli", CLI_SECONDS, lambda: self.run_cli(inputs, version_dir), self.check_cli),
            ):
                repeat_start = time.perf_counter()
                while time.perf_counter() - repeat_start < seconds:
                    result = self.step(kind, cycle, traced and kind == "reuse", action)
                    self.check(check, inputs, result, version_dir)
            cycle += 1

    # -- metrics

    def result(self, inputs: Inputs, report: dict, setup_seconds: list[float]) -> dict:
        failed = [s.error for s in self.steps if s.error] + self.failures
        for message in failed[:10]:
            print(f"# FAILED {message}", file=sys.stderr)
        attempted = len(self.steps) + 2  # the two end-of-run server checks
        if self.args.trace:
            metrics = self.per_layer(inputs, report)
            units = PER_LAYER
        else:
            metrics = self.end_to_end(inputs, report, setup_seconds)
            units = END_TO_END
        for name, unit in units.items():
            print(f"{name:36s} {metrics[name]:14.6g} {unit}")
        print(f"{'failed_ratio':36s} {len(failed) / attempted:14.6g} ratio "
              f"({len(failed)} of {attempted})")
        return {
            "correct": not failed,
            "attempted": attempted,
            "failed": len(failed),
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }

    def samples(self, kind: str) -> list[float]:
        """Durations of the successful untraced steps of ``kind``."""
        return [s.seconds for s in self.steps if s.kind == kind and not s.traced and not s.error]

    def end_to_end(self, inputs: Inputs, report: dict, setup_seconds: list[float]) -> dict:
        fresh = self.samples("fresh")
        reuse = self.samples("reuse")
        metrics = {
            "publish_p50_s": _median(fresh),
            "publish_tail_s": _tail(fresh, "publish_tail_s"),
            "throughput_mb_s": inputs.summary["input_bytes"] * len(fresh) / MB / sum(fresh)
            if fresh else 0.0,
            "reuse_p50_s": _median(reuse),
            "reuse_tail_s": _tail(reuse, "reuse_tail_s"),
            "cli_reuse_p50_s": _median(self.samples("cli")),
            "setup_s": statistics.median(setup_seconds),
            "client_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB,
            "server_peak_rss_mb": report["peak_rss_mb"],
        }
        print(f"# setup runs (s): {', '.join(f'{s:.3f}' for s in setup_seconds)}")
        return metrics

    def per_layer(self, inputs: Inputs, report: dict) -> dict:
        handled = report["requests"]
        first = inputs.server.first_attempt
        spans_by_pub: dict[int, list[int]] = defaultdict(list)
        spans = self.instruments.spans
        for index, span in enumerate(spans):
            spans_by_pub[span["pub"]].append(index)

        totals: list[dict] = []
        traced_fresh = [
            (i, s) for i, s in enumerate(self.steps) if s.kind == "fresh" and s.traced and not s.error
        ]
        for pub, step in traced_fresh:
            total: dict = defaultdict(float)
            child_seconds: dict[int, float] = defaultdict(float)
            for index in spans_by_pub[pub]:
                span = spans[index]
                if span["parent"] is not None:
                    child_seconds[span["parent"]] += span["end"] - span["start"]
            for index in spans_by_pub[pub]:
                span = spans[index]
                name = span["name"]
                seconds = span["end"] - span["start"]
                own = seconds - child_seconds[index]
                total[f"{name}_s"] += seconds
                total[f"{name}_calls"] += 1
                for key, value in span.items():
                    if "." in key:
                        total[key] += value
                layer = name.split(".")[0]
                arrival = span.get("seq", -1) - first
                if name == "repo_protocol.request" and 0 <= arrival < len(handled):
                    op, handler, body = handled[arrival]
                    total[f"mock_service.{op}_handle_s"] += handler
                    total["mock_service.self_s"] += handler
                    total["repo_protocol.wire_s"] += own - handler
                    total["repo_protocol.self_s"] += own - handler
                    if op == "upload":
                        total["mock_service.upload_handle_bytes"] += body
                else:
                    total[f"{layer}.self_s"] += own
            total["step_s"] = step.seconds
            total["repo_protocol.requests"] = sum(total[f"repo_protocol.{op}_calls"] for op in OPS)
            total["repo_protocol.attempts"] = total["repo_protocol.request_calls"]
            total["repo_protocol.retry_ratio"] = (
                (total["repo_protocol.attempts"] - total["repo_protocol.requests"])
                / total["repo_protocol.requests"]
                if total["repo_protocol.requests"] else 0.0
            )
            total["trace.unaccounted_s"] = step.seconds - sum(
                total[f"{layer}.self_s"] for layer in LAYERS
            )
            totals.append(total)

        def median_of(key: str) -> float:
            return _median([t.get(key, 0.0) for t in totals])

        metrics = {name: median_of(name) for name in PER_LAYER}
        metrics["manifest.hash_mb_s"] = _rate(totals, "manifest.bytes", "manifest.build_s")
        metrics["vcs_info.enumerations"] = median_of("vcs_info.enumerate_calls")
        metrics["mock_service.upload_handle_mb_s"] = _rate(
            totals, "mock_service.upload_handle_bytes", "mock_service.upload_handle_s"
        )
        metrics["mock_service.requests"] = report["request_count"]
        metrics["mock_service.depositions"] = report["depositions"]
        metrics["cli.startup_s"] = self.cli_startup()
        metrics["trace.publish_p50_s"] = _median([t["step_s"] for t in totals])
        untraced = self.samples("fresh")
        metrics["trace.overhead_s"] = (
            metrics["trace.publish_p50_s"] - _median(untraced) if untraced and totals else 0.0
        )
        self.write_trace(report)
        return metrics

    def cli_startup(self) -> float:
        """Median, over CLI steps of untraced cycles, of CLI reuse wall minus
        the cycle's median library reuse wall."""
        reuse: dict[int, list[float]] = defaultdict(list)
        for s in self.steps:
            if s.kind == "reuse" and not s.error and not s.traced:
                reuse[s.cycle].append(s.seconds)
        gaps = [
            s.seconds - statistics.median(reuse[s.cycle])
            for s in self.steps
            if s.kind == "cli" and not s.error and reuse.get(s.cycle)
        ]
        return _median(gaps)

    def write_trace(self, report: dict) -> None:
        out = CHECKOUT / ".bench_out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{self.args.workload}-{self.args.seed}.json"
        steps = [vars(s) for s in self.steps]
        path.write_text(json.dumps({"steps": steps, "spans": self.instruments.spans,
                                    "server_requests": report["requests"]}))
        print(f"# spans written to {path.relative_to(CHECKOUT)}")


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _rate(totals: list[dict], bytes_key: str, seconds_key: str) -> float:
    rates = [t[bytes_key] / MB / t[seconds_key] for t in totals if t.get(seconds_key)]
    return _median(rates)


def _tail(values: list[float], name: str) -> float:
    """The 90th percentile, interpolated. A run of fixed length is too short
    for ten samples beyond a high percentile on most workloads, and a
    percentile that moved with the sample count would not compare between
    commits; the count beyond it is printed."""
    if len(values) < 2:
        return values[0] if values else 0.0
    tail = statistics.quantiles(values, n=10, method="inclusive")[-1]
    beyond = sum(v > tail for v in values)
    print(f"# {name}: p90 of {len(values)} samples, {beyond} beyond it")
    return tail


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while chunk := handle.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every input (the smoke test uses 0.01)")
    parser.add_argument("--tamper", action="store_true",
                        help="corrupt one digest the server returned, to show the check fails")
    args = parser.parse_args()
    if not (SRC / "geopub" / "__init__.py").is_file():
        print(f"error: geopub sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = CHECKOUT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    tempfile.tempdir = str(work / "tmp")
    # Plain trees must not be taken for part of a repository around the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(work)
    benchmark = None
    try:
        benchmark = Benchmark(args, work)
        result = benchmark.run()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
