"""Smoke test of the benchmark itself.

Usage, from the root of a checkout::

    python3 perfbench/smoke.py

Checks, at a tiny input scale, that:

* the generator gives identical bytes for one seed and different bytes for
  another;
* every workload passes its correctness checks, and prints every metric that
  ``BENCHMARK.json`` names, with that unit, untraced and traced;
* corrupting one digest that the server returned makes the run fail, on a
  data and on a software workload, so the file check is not vacuous;
* in a directory with only ``BENCHMARK.json`` and ``perfbench/``, the
  benchmark exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
CHECKOUT = BENCH.parent
SCALE = "0.01"


def run(*args: str, cwd: Path = CHECKOUT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def bench(workload: str, trace: int, *extra: str) -> dict:
    completed = run("perfbench/run.py", "--workload", workload, "--seed", "7",
                    "--seconds", "1", "--trace", str(trace), "--scale", SCALE, *extra)
    if completed.returncode != 0:
        raise AssertionError(f"{workload} exited {completed.returncode}: {completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def check_generator(tmp: Path) -> None:
    def digest(seed: int, name: str) -> str:
        completed = run("perfbench/generate.py", "--workload", "software_git", "--seed",
                        str(seed), "--out", str(tmp / name), "--scale", SCALE)
        assert completed.returncode == 0, completed.stderr
        return json.loads(completed.stdout)["digest"]

    first, again, other = digest(1, "a"), digest(1, "b"), digest(2, "c")
    assert first == again, "one seed gave two different input sets"
    assert first != other, "two seeds gave the same input set"


def check_metrics(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = bench(workload, trace)
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            assert result["attempted"] >= 1
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            assert printed == wanted, (workload, key, set(printed) ^ set(wanted))
            values = [m["value"] for m in result["metrics"].values()]
            assert all(isinstance(v, (int, float)) for v in values), (workload, key)
            if trace == 0:
                assert all(v > 0 for v in values), (workload, result["metrics"])
        print(f"ok   {workload}: correct, every metric printed with its unit", flush=True)


def check_tamper() -> None:
    for workload in ("data_many_files", "software_plain"):
        result = bench(workload, 0, "--tamper")
        assert not result["correct"] and result["failed"] >= 1, (workload, result)
        print(f"ok   {workload}: a corrupted digest fails the run", flush=True)


def check_without_sources(tmp: Path) -> None:
    bare = tmp / "bare"
    bare.mkdir()
    shutil.copy(CHECKOUT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((bare / "BENCHMARK.json").read_text())
    completed = run(*spec["command"][1:], "--workload", spec["workloads"][0]["name"],
                    "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    assert completed.returncode != 0, "ran without the program's sources"
    assert '"metrics"' not in completed.stdout, "printed a result without the sources"
    print("ok   without the sources the benchmark exits non-zero", flush=True)


def main() -> int:
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    work = CHECKOUT / ".bench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work, prefix="smoke-") as tmp:
        check_generator(Path(tmp))
        print("ok   generator: one seed, one input set", flush=True)
        check_metrics(spec)
        check_tamper()
        check_without_sources(Path(tmp))
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
