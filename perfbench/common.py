"""Process, statistics and reporting helpers shared by every workload.

The benchmark runs from the root of a checkout: the program is
``src/repro`` next to this directory, and every file the benchmark
writes lives under ``.perfbench-work/`` (scratch, removed after each
run) and ``.perfbench-results/`` (one JSON report per run, read by
``--compare``) in that checkout.
"""

from __future__ import annotations

import json
import math
import os
import selectors
import shutil
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
RESULTS_DIR = ROOT / ".perfbench-results"


class BenchError(Exception):
    """The benchmark could not run (not a wrong answer)."""


def require_program() -> None:
    """Refuse to run without the program's sources next to us; make
    them importable for the checks that run after the timed window."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources at {SRC}/repro")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_spec() -> Dict[str, object]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def child_env(work: Path) -> Dict[str, str]:
    """The environment of every spawned process: no ambient ``REPRO_*``
    setting (chaos, backend or kernel knobs) reaches the program."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    env["TMPDIR"] = str(work)
    env["PYTHONUNBUFFERED"] = "1"
    return env


@contextmanager
def workdir() -> Iterator[Path]:
    path = WORK_ROOT / f"run-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


class Child:
    """A spawned process whose stdout carries JSON lines."""

    def __init__(self, args: Sequence[str], work: Path, tag: str) -> None:
        self.tag = tag
        self.stderr_path = work / f"{tag}.stderr"
        self._stderr = open(self.stderr_path, "wb")
        self.proc = subprocess.Popen(
            list(args),
            cwd=str(ROOT),
            env=child_env(work),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
        )
        assert self.proc.stdout is not None
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.proc.stdout, selectors.EVENT_READ)
        self._buffer = b""

    def read_json(self, timeout: float) -> Dict[str, object]:
        """The next stdout line that is a JSON object."""
        deadline = time.monotonic() + timeout
        assert self.proc.stdout is not None
        while True:
            line, sep, rest = self._buffer.partition(b"\n")
            if sep:
                self._buffer = rest
                try:
                    value = json.loads(line)
                except ValueError:
                    continue
                if isinstance(value, dict):
                    return value
                continue
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BenchError(f"{self.tag}: no output within {timeout}s")
            if not self._selector.select(remaining):
                continue
            chunk = os.read(self.proc.stdout.fileno(), 1 << 16)
            if not chunk:
                raise BenchError(
                    f"{self.tag} exited ({self.proc.wait()}) early:"
                    f" {self.stderr_tail()}"
                )
            self._buffer += chunk

    def stderr_tail(self) -> str:
        try:
            return self.stderr_path.read_text(errors="replace")[-2000:]
        except OSError:
            return ""

    def wait(self, timeout: float) -> int:
        try:
            return self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError(f"{self.tag} did not exit within {timeout}s")

    def terminate(self, timeout: float) -> int:
        """SIGTERM, then wait; SIGKILL if it does not go."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        return self.wait(timeout)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()

    def close(self) -> None:
        self.kill()
        self._selector.close()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._stderr.close()


@contextmanager
def spawned(args: Sequence[str], work: Path, tag: str) -> Iterator[Child]:
    child = Child(args, work, tag)
    try:
        yield child
    finally:
        child.close()


def python_child(script: str, *args: str) -> List[str]:
    return [sys.executable, str(BENCH_DIR / script), *args]


# -- statistics ---------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise BenchError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("percentile of no samples")
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]


def metric(value: float, unit: str, **extra: object) -> Dict[str, object]:
    entry: Dict[str, object] = {"value": value, "unit": unit}
    entry.update(extra)
    return entry


# -- reporting ---------------------------------------------------------------------


def emit(report: Dict[str, object], trace: bool) -> int:
    """Print the full report, save it, then print the result line.

    The full report (every figure with its sample count, the per-run
    accounting, and the per-layer table) is the second-to-last stdout
    line and is saved under ``.perfbench-results/`` for ``--compare``;
    the last line is the result object (``correct``, ``attempted``,
    ``failed``, ``metrics``).
    """
    spec = load_spec()
    section = "per_layer" if trace else "end_to_end"
    source = report["layers"] if trace else report["metrics"]
    assert isinstance(source, dict)
    metrics = {}
    for entry in spec[section]:  # type: ignore[union-attr]
        name = entry["name"]
        if name not in source:
            raise BenchError(f"workload reported no {name}")
        metrics[name] = {"value": source[name]["value"], "unit": entry["unit"]}
    print(json.dumps(report, sort_keys=True), flush=True)
    RESULTS_DIR.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = (
        f"{report['workload']}-seed{report['seed']}-trace{int(trace)}"
        f"-{stamp}-{os.getpid()}.json"
    )
    with open(RESULTS_DIR / name, "w", encoding="utf-8") as handle:
        json.dump(report, handle, sort_keys=True)
    result = {
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),  # type: ignore[call-overload]
        "failed": int(report["failed"]),  # type: ignore[call-overload]
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def layer_table(values: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    """Per-layer values with their units, in ``BENCHMARK.json`` order."""
    spec = load_spec()
    return {
        entry["name"]: metric(values[entry["name"]], entry["unit"])
        for entry in spec["per_layer"]  # type: ignore[union-attr]
    }
