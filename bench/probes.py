"""Measurements taken in fresh child processes, and the facts recorded
with every run."""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

PROBE_TIMEOUT_S = 120.0


def child_env(root):
    """Environment of every child: hypgeo from the checkout's src/, and
    HYPGEO_THREADS unset so the CLI runs its default single worker."""
    env = dict(os.environ)
    env.pop("HYPGEO_THREADS", None)
    src = str(Path(root) / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_seconds(root, workload, seed, runs):
    """Median wall time of `runs` fresh processes that start Python,
    import hypgeo, build the workload's inputs and run its warm-up op."""
    cmd = [sys.executable, str(Path(root) / "bench" / "run.py"),
           "--setup-probe", "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(runs):
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=root, env=child_env(root), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=PROBE_TIMEOUT_S)
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.decode(errors='replace')[-2000:]}")
    return statistics.median(times)


def import_ms(root, runs):
    """Median cumulative import time of hypgeo and of numpy, in ms, from
    `python -X importtime -c "import hypgeo"` in `runs` fresh processes.
    numpy reads 0 when importing hypgeo no longer imports it."""
    found = {"hypgeo": [], "numpy": []}
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import hypgeo"],
                              cwd=root, env=child_env(root), capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr[-2000:]}")
        seen = set()
        for line in proc.stderr.splitlines():
            # "import time: <self us> | <cumulative us> | <indented name>"
            fields = line.split("|")
            if len(fields) != 3 or not line.startswith("import time:"):
                continue
            name = fields[2].strip()
            if name in found and name not in seen and fields[1].strip().isdigit():
                seen.add(name)
                found[name].append(int(fields[1]) / 1000.0)
        if "hypgeo" not in seen:
            raise RuntimeError("import probe did not see hypgeo imported")
    return {name: statistics.median(v) if v else 0.0 for name, v in found.items()}


def src_lines(root):
    """Physical lines of src/hypgeo/*.py, the count ROADMAP tracks."""
    total = 0
    for path in sorted((Path(root) / "src" / "hypgeo").glob("*.py")):
        with open(path, "rb") as f:
            total += sum(1 for _ in f)
    return total


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root):
    if not (Path(root) / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine(root):
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": _git_commit(root),
    }
