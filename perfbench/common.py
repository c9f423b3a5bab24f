"""Shared plumbing: repository paths, scratch space, statistics, output."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, failed child)."""


def require_program() -> None:
    """Put the program's sources on ``sys.path``; fail if they are absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"program sources not found under {SRC}; run from the root of "
            "a checkout of the repository"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for child processes: the program importable from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def make_workdir(tag: str) -> Path:
    path = WORK_ROOT / f"{tag}-{os.getpid()}"
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass  # another run still uses it, or it holds stray files


def run_child(args: list[str], timeout: float) -> dict:
    """Run a benchmark child script and return the JSON of its last line."""
    return run_children([args], timeout)[0]


def run_children(arg_lists: list[list[str]], timeout: float,
                 parallel: int = 1) -> list[dict]:
    """Run benchmark child scripts, ``parallel`` at a time.

    Each result is the JSON of the child's last stdout line, plus
    ``t_spawn``: the ``perf_counter`` reading just before it started.
    Every child is waited for, also when one fails.
    """
    results: list = [None] * len(arg_lists)
    running: list = []  # (k, proc, t_spawn)
    pending = list(enumerate(arg_lists))
    try:
        while pending or running:
            while pending and len(running) < parallel:
                k, args = pending.pop(0)
                t_spawn = time.perf_counter()
                proc = subprocess.Popen(
                    [sys.executable, *args], cwd=ROOT, env=child_env(),
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                )
                running.append((k, proc, t_spawn))
            k, proc, t_spawn = running[0]
            stdout, stderr = proc.communicate(timeout=timeout)
            running.pop(0)
            if proc.returncode != 0:
                raise BenchError(
                    f"child {arg_lists[k][0]} exited {proc.returncode}:\n"
                    f"{stderr[-2000:]}"
                )
            results[k] = json.loads(stdout.strip().splitlines()[-1])
            results[k]["t_spawn"] = t_spawn
    finally:
        for _, proc, _ in running:
            if proc.poll() is None:
                proc.kill()
            proc.communicate()
    return results


# -- statistics -------------------------------------------------------------
def median(values):
    values = sorted(values)
    if not values:
        return math.nan
    mid = len(values) // 2
    if len(values) % 2:
        return values[mid]
    return 0.5 * (values[mid - 1] + values[mid])


def percentile(values, q: float):
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    values = sorted(values)
    if not values:
        return math.nan
    rank = max(1, math.ceil(q / 100.0 * len(values)))
    return values[min(rank, len(values)) - 1]


def mean(values):
    values = list(values)
    return sum(values) / len(values) if values else math.nan


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set (VmHWM) of a live process, in MB (Linux)."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM in {path}")


# -- provenance -----------------------------------------------------------------
def provenance(seed: int, **extra) -> dict:
    import numpy

    commit = None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "seed": seed,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        **extra,
    }


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def emit_result(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print the result object as the final stdout line."""
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            },
            sort_keys=False,
        ),
        flush=True,
    )
