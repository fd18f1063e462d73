"""Smoke test of the benchmark at tiny op counts.

    python3 -m pytest bench/test_smoke.py

Every workload, untraced and traced, must print each metric that
BENCHMARK.json names, with its unit, and nothing else.  Without the
package next to it the benchmark must fail without printing a result.
"""

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SCRIPT = SPEC["command"][1]


def bench(cwd, *args):
    return subprocess.run([sys.executable, SCRIPT, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--ops", "4")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 4
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]), name
        assert any(line.startswith(f"{workload} {name} ") and line.endswith(f" {m['unit']}")
                   for line in lines[:-1]), name


def test_fails_without_a_result_when_the_package_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench(tmp_path, "--workload", "locus", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_reference_exponential_matches_exp_map():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import hypgeo
    from checks import exp_closed_form

    rng = random.Random(5)
    for k in range(300):
        m = hypgeo.metric_from_eta(-rng.uniform(1.05, 4.0))
        phase = rng.uniform(0.0, 2.0 * math.pi)
        if k % 3 == 0:
            p = hypgeo.covector_from_pbar3(m, rng.uniform(1.0, 4.0), phase, hypgeo.CausalType.TIME_LIKE)
        elif k % 3 == 1:
            p = hypgeo.covector_from_pbar3(m, rng.uniform(-3.0, 3.0), phase, hypgeo.CausalType.SPACE_LIKE)
        else:
            p = hypgeo.light_covector(m, phase, rng.choice((1, -1)))
        t = rng.uniform(0.0, 10.0)
        want = hypgeo.exp_map(m, p, t).components()
        got = exp_closed_form(m.i1, m.i3, p.components(), p.ctype is hypgeo.CausalType.LIGHT_LIKE, t)
        scale = max(1.0, max(abs(c) for c in want))
        assert all(abs(a - b) <= 1e-12 * scale for a, b in zip(got, want))
