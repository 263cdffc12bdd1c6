"""Workload definitions and seeded input generation.

Pure Python on purpose: the parent process (run.py) imports this module
without importing numpy, so that every numeric process it starts gets
its BLAS thread pins from the environment before numpy loads.

The same seed gives byte-identical scene YAML and argument lists; the
SHA-256 of those inputs is recorded as the input hash.  The program under
test receives only these generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

#: environment that pins every BLAS/OpenMP pool to one thread
PINNED_ENV = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")}

#: median time of worker.Calibration() on the reference machine (a 2-vCPU
#: Xeon VM at 2.1 GHz, OpenBLAS 0.3.31 on one thread); calibrated times
#: read as seconds on that machine at its typical speed
CALIBRATION_REF_S = 0.05
#: the kernel's time swings more than the jobs' when the machine's speed
#: drifts: over 30 runs on the reference machine the slope of log job time
#: on log kernel time was 0.5-0.8 per workload
CALIBRATION_EXPONENT = 0.7


def calibrated(wall_s: float, calibration_s: float) -> float:
    """Wall time scaled to the reference machine's typical speed."""
    return wall_s * (CALIBRATION_REF_S / calibration_s) ** CALIBRATION_EXPONENT

DRUDE_SPHERE_YAML = """\
schema_version: 1
units: {{system: natural, reference_length: 1.0}}
materials:
  - region_id: 1
    poles: [{{omega0: 0.0, omegap: 1.5, gamma: 0.3}}]
geometry:
  voxel_edge: 0.2497
  shapes:
    - {{kind: sphere, center: [0.0, 0.0, 0.0], radius: 1.0, region_id: 1}}
solver: {{tol: 1.0e-10, dense_cap: 1000}}
quadrature: {{n_theta: 8, n_phi: 16}}
runs:
{runs}"""

LORENTZ_CUBE_YAML = """\
schema_version: 1
units: {system: natural, reference_length: 1.0}
materials:
  - region_id: 1
    poles: [{omega0: 1.5, omegap: 1.0, gamma: 0.4}]
geometry:
  voxel_edge: 0.2
  shapes:
    - {kind: box, min_corner: [-0.8, -0.8, -0.8], max_corner: [0.8, 0.8, 0.8], region_id: 1}
solver: {tol: 1.0e-10, dense_cap: 1000}
quadrature: {n_theta: 8, n_phi: 16}
"""

#: per workload: expected voxel count, job time cap (s), calibration
#: samples at each job boundary (5-6% of a job), why it exists
WORKLOADS = {
    "validate-drude257": {
        "voxels": 257, "cap_s": 10.0, "calibration_samples": 1,
        "why": "CLI validate on the 257-voxel Drude sphere: the paper's acceptance scene "
               "on the dense-LU path, many sources and right-hand sides at one frequency",
    },
    "sweep-drude257": {
        "voxels": 257, "cap_s": 30.0, "calibration_samples": 5,
        "why": "CLI purcell over 17 frequencies on the same sphere: one assembly, LU and "
               "512-column shell solve per frequency, so frequency caches cannot help",
    },
    "gmres-lorentz512": {
        "voxels": 512, "cap_s": 60.0, "calibration_samples": 8,
        "why": "MediumSolver(method=gmres).green on an 8^3 Lorentz cube: the matrix-free "
               "iterative path, where the matvec does nearly all the work",
    },
}


def _fmt(v: float) -> str:
    return repr(float(v))


def _vec(v) -> str:
    return "[" + ", ".join(_fmt(x) for x in v) + "]"


def _unit_vector(rng: random.Random):
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        n = math.sqrt(sum(a * a for a in v))
        if n > 1e-3:
            return [a / n for a in v]


def _outside_point(rng: random.Random, rmin: float, rmax: float):
    """Point at a distance in [rmin, rmax] from the body's center."""
    r = rng.uniform(rmin, rmax)
    return [r * a for a in _unit_vector(rng)]


def _pair(rng: random.Random, rmin: float, rmax: float, min_gap: float):
    x = _outside_point(rng, rmin, rmax)
    while True:
        y = _outside_point(rng, rmin, rmax)
        if math.dist(x, y) >= min_gap:
            return x, y


def generate(workload: str, seed: int) -> dict:
    """Inputs of one workload for one seed.

    Returns {"files": {name: text}, "argv": [...], "params": {...},
    "input_hash": hex}.  argv refers to files by bare name and to the
    output directory as "out"; the worker resolves both in its run
    directory.  Every point lies outside the body, at least 0.3 voxel
    edges clear of the outermost voxel.
    """
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    rng = random.Random(f"{workload}:{int(seed)}")
    params: dict = {}
    if workload == "validate-drude257":
        emitter = _outside_point(rng, 1.3, 1.7)
        dipole = _unit_vector(rng)
        x, y = _pair(rng, 1.3, 1.7, 0.5)
        params = {"omega": 1.0, "emitter": emitter, "dipole": dipole, "x": x, "y": y}
        runs = (f"  validate: {{omega: 1.0, emitter: {_vec(emitter)}, "
                f"dipole: {_vec(dipole)}, x: {_vec(x)}, y: {_vec(y)}}}\n")
        files = {"scene.yaml": DRUDE_SPHERE_YAML.format(runs=runs)}
        argv = ["validate", "--scene", "scene.yaml", "--out-dir", "out"]
    elif workload == "sweep-drude257":
        emitter = _outside_point(rng, 1.3, 1.7)
        dipole = _unit_vector(rng)
        lo = rng.uniform(0.68, 0.72)
        hi = rng.uniform(1.08, 1.12)
        params = {"emitter": emitter, "dipole": dipole, "omega_range": [lo, hi, 17]}
        files = {"scene.yaml": DRUDE_SPHERE_YAML.format(runs="  purcell: {}\n")}
        argv = ["purcell", "--scene", "scene.yaml", "--out-dir", "out",
                "--emitter=" + ",".join(_fmt(v) for v in emitter),
                "--dipole=" + ",".join(_fmt(v) for v in dipole),
                f"--omega-range={_fmt(lo)}:{_fmt(hi)}:17"]
    else:
        x, y = _pair(rng, 1.6, 2.0, 0.5)
        params = {"omega": 1.0, "x": x, "y": y}
        files = {"scene.yaml": LORENTZ_CUBE_YAML}
        argv = []
    blob = json.dumps({"workload": workload, "files": files, "argv": argv, "params": params},
                      sort_keys=True).encode()
    return {"files": files, "argv": argv, "params": params,
            "input_hash": hashlib.sha256(blob).hexdigest()}
