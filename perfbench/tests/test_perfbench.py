"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests

The traced-count tests start full traced runs (about a minute and a half
for all three workloads); select with -k to run fewer.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from spans import PATCH_POINTS, Tracer, layer_totals
from workloads import WORKLOADS, generate

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent

#: farthest reach of any voxel from the body's center
SPHERE_REACH = 1.0 + math.sqrt(3) / 2 * 0.2497
CUBE_REACH = math.sqrt(3) * 0.8


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_inputs_repeat_byte_for_byte(workload):
    a, b = generate(workload, 7), generate(workload, 7)
    assert a == b
    assert generate(workload, 8)["input_hash"] != a["input_hash"]


@pytest.mark.parametrize("seed", range(40))
def test_points_lie_outside_the_body(seed):
    v = generate("validate-drude257", seed)["params"]
    for key in ("emitter", "x", "y"):
        assert math.hypot(*v[key]) > SPHERE_REACH
    assert math.dist(v["x"], v["y"]) >= 0.5
    s = generate("sweep-drude257", seed)["params"]
    assert math.hypot(*s["emitter"]) > SPHERE_REACH
    lo, hi, n = s["omega_range"]
    assert 0.68 <= lo < hi <= 1.12 and n == 17
    g = generate("gmres-lorentz512", seed)["params"]
    for key in ("x", "y"):
        assert math.hypot(*g[key]) > CUBE_REACH


def test_self_time_subtracts_direct_children():
    spans = [["outer", 0, -1, 0.0, 10.0, None],
             ["inner", 0, 0, 1.0, 4.0, {"columns": 3}],
             ["leaf", 0, 1, 2.0, 3.0, None],
             ["inner", 0, 0, 5.0, 6.0, {"columns": 2}],
             ["outer", 1, -1, 0.0, 99.0, None]]
    totals = layer_totals(spans, 0)
    assert totals["outer"] == {"calls": 1, "s": 10.0, "self_s": 6.0}
    assert totals["inner"] == {"calls": 2, "s": 4.0, "self_s": 3.0, "columns": 5}
    assert totals["leaf"]["self_s"] == 1.0


def test_tracer_restores_every_patch_point():
    import importlib

    def current():
        out = []
        for module, attr, _ in PATCH_POINTS:
            owner = importlib.import_module(module)
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            out.append(vars(owner)[attr])
        return out

    before = current()
    tracer = Tracer()
    tracer.install()
    assert all(a is not b for a, b in zip(before, current()))
    tracer.uninstall()
    assert all(a is b for a, b in zip(before, current()))


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "validate-drude257", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_across_runs(workload):
    counts = []
    for _ in range(2):
        proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert last["correct"] and last["failed"] == 0
        counts.append({k: v["value"] for k, v in last["metrics"].items()
                       if k.endswith((".calls", ".columns"))})
    assert counts[0] == counts[1]
    assert counts[0]["vie.solve.columns"] > 0 and counts[0]["vie.matvec.calls"] > 0
