"""Numeric side of the benchmark: one process per role, BLAS pinned first.

Roles (started by run.py, never by hand):

    probe      import greenvox, load_scene, build_grid, print "ready" with
               the monotonic clock, then the calibration time
    reference  dense-LU answers the jobs are checked against, in a process
               of its own so they add nothing to the workload's peak RSS
    jobs       the timed loop of one workload; writes result.json
    calibrator the calibration kernel on request of the jobs process, in a
               process of its own so its memory stays out of peak RSS

All roles run with the current directory set to the run directory,
which holds the generated inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer, layer_totals
from workloads import PINNED_ENV, calibrated

# numpy is imported only inside functions, after this
for _var, _value in PINNED_ENV.items():
    os.environ.setdefault(_var, _value)

SPEC = "spec.json"
REFERENCE = "reference.json"
RESULT = "result.json"
SPANS = "spans.json"

#: sweep rows must satisfy the LDOS identity to the validate threshold
SWEEP_IDENTITY_MAX = 1e-2
#: agreement of two routes to one number that are equal up to rounding
SAME_NUMBER_RTOL = 1e-9
#: GMRES against dense LU: both solve to the scene tolerance
GMRES_AGREEMENT = 100.0
#: repetitions of load_scene + build_grid in a traced run
TRACED_SETUPS = 5


def import_greenvox(src: str):
    sys.path.insert(0, src)
    import greenvox

    if Path(greenvox.__file__).resolve().parent != (Path(src) / "greenvox").resolve():
        raise SystemExit(f"greenvox imported from {greenvox.__file__}, not from {src}")
    return greenvox


# ----------------------------------------------------------------------
# reference answers
# ----------------------------------------------------------------------

def sweep_omegas(omega_range):
    """The frequencies the CLI derives from start:stop:count, bit for bit."""
    a, b, n = omega_range
    return [a + (b - a) * i / max(n - 1, 1) for i in range(n)]


def compute_reference(spec) -> dict:
    import numpy as np
    from greenvox import scene
    from greenvox.ldos import EmitterSpec, purcell
    from greenvox.vie import MediumSolver

    cfg = scene.load_scene("scene.yaml")
    grid = cfg.build_grid()
    p = spec["params"]
    if spec["workload"] == "gmres-lorentz512":
        G = MediumSolver(grid, cfg.materials, p["omega"], cfg.solver_tol,
                         method="dense", dense_cap=cfg.dense_cap).green(
            np.asarray(p["x"]), np.asarray(p["y"]))
        return {"voxels": grid.n, "re": G.real.tolist(), "im": G.imag.tolist()}
    if spec["workload"] == "sweep-drude257":
        # purcell() takes Im G at the emitter (im_green_at), not the CLI's
        # gamma_decomposed route
        return {"voxels": grid.n, "purcell": [
            purcell(grid, cfg.materials,
                    EmitterSpec(position=tuple(p["emitter"]), omega=w,
                                dipole=tuple(p["dipole"])), cfg.solver_tol)
            for w in sweep_omegas(p["omega_range"])]}
    return {"voxels": grid.n}


# ----------------------------------------------------------------------
# one job per workload, each with its own output check
# ----------------------------------------------------------------------

class Workload:
    """Runs jobs of one workload and checks each job's output."""

    def __init__(self, spec, reference, greenvox):
        self.spec = spec
        self.ref = reference
        self.gv = greenvox
        self.first_output = None
        expected = spec["voxels"]
        if reference["voxels"] != expected:
            raise RuntimeError(f"scene has {reference['voxels']} voxels, expected {expected}")
        if spec["workload"] == "gmres-lorentz512":
            import numpy as np

            cfg = greenvox.scene.load_scene("scene.yaml")
            self.cfg, self.grid = cfg, cfg.build_grid()
            p = spec["params"]
            self.x, self.y = np.asarray(p["x"]), np.asarray(p["y"])
            self.G_ref = np.asarray(reference["re"]) + 1j * np.asarray(reference["im"])

    def run(self):
        """One job; returns its output, raises on any failure."""
        w = self.spec["workload"]
        if w == "gmres-lorentz512":
            cfg = self.cfg
            solver = self.gv.vie.MediumSolver(self.grid, cfg.materials, self.spec["params"]["omega"],
                                              cfg.solver_tol, method="gmres",
                                              dense_cap=cfg.dense_cap)
            return solver.green(self.x, self.y)
        out_file = Path("out") / ("validate_report.json" if w == "validate-drude257"
                                  else "purcell.csv")
        out_file.unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = self.gv.cli.main(list(self.spec["argv"]))
        if rc != 0:
            raise RuntimeError(f"greenvox {w.split('-')[0]} exited with code {rc}")
        return out_file.read_text()

    def check(self, output):
        """Raise if the job's output is wrong; outputs must repeat exactly."""
        w = self.spec["workload"]
        if w == "gmres-lorentz512":
            import numpy as np

            tol = self.cfg.solver_tol
            if not np.all(np.isfinite(output)):
                raise RuntimeError("GMRES Green tensor has non-finite entries")
            rel = float(np.linalg.norm(output - self.G_ref) / np.linalg.norm(self.G_ref))
            if rel > GMRES_AGREEMENT * tol:
                raise RuntimeError(f"GMRES disagrees with dense LU: relative gap {rel:.3e}")
            return
        if w == "validate-drude257":
            self._check_validate(output)
        else:
            self._check_sweep(output)
        if self.first_output is None:
            self.first_output = output
        elif output != self.first_output:
            raise RuntimeError(f"{w} output differs from the first job of this run")

    def _check_validate(self, text):
        report = json.loads(text)
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        if failed or not report["passed"]:
            raise RuntimeError(f"validate checks failed: {failed}")
        outputs = report["outputs"]
        if outputs["grid_voxels"] != self.spec["voxels"]:
            raise RuntimeError(f"validate ran on {outputs['grid_voxels']} voxels")
        if not (math.isfinite(outputs["purcell"]) and outputs["purcell"] > 0):
            raise RuntimeError(f"validate Purcell factor {outputs['purcell']!r}")

    def _check_sweep(self, text):
        p = self.spec["params"]
        lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
        if lines[0] != "omega,purcell,gamma_e,gamma_m,identity_residual,error":
            raise RuntimeError(f"unexpected sweep header {lines[0]!r}")
        rows = [ln.split(",") for ln in lines[1:]]
        omegas = sweep_omegas(p["omega_range"])
        if len(rows) != len(omegas):
            raise RuntimeError(f"sweep has {len(rows)} rows, expected {len(omegas)}")
        d2 = sum(v * v for v in p["dipole"])
        for row, w, pf_ref in zip(rows, omegas, self.ref["purcell"]):
            if row[5]:
                raise RuntimeError(f"sweep row at omega={w!r} failed: {row[5]}")
            omega, pf, ge, gm, resid = (float(v) for v in row[:5])
            if omega != w:
                raise RuntimeError(f"sweep row omega {omega!r}, expected {w!r}")
            if not (math.isfinite(pf) and pf > 0):
                raise RuntimeError(f"Purcell factor {pf!r} at omega={w!r}")
            if abs(pf - pf_ref) > SAME_NUMBER_RTOL * abs(pf_ref):
                raise RuntimeError(f"sweep Purcell {pf!r} at omega={w!r} differs from the "
                                   f"library purcell() value {pf_ref!r}")
            if not resid <= SWEEP_IDENTITY_MAX:
                raise RuntimeError(f"LDOS identity residual {resid:.3e} at omega={w!r}")
            # holds by construction of gamma_m: a check of the CSV's columns
            gamma0 = w**3 * d2 / (3.0 * math.pi)
            if abs(ge + gm - pf * gamma0) > SAME_NUMBER_RTOL * pf * gamma0:
                raise RuntimeError(f"Gamma_e + Gamma_m != Purcell * Gamma_0 at omega={w!r}")


# ----------------------------------------------------------------------
# machine-speed calibration
# ----------------------------------------------------------------------

class Calibration:
    """Fixed kernel timed around jobs; its time tracks the machine's speed.

    A shared machine's speed drifts by tens of percent within minutes.  The
    kernel mixes what the jobs do: LAPACK LU, elementwise complex numpy,
    interpreted Python, and page faults on a fresh 40 MB array (above
    glibc's 32 MB mmap ceiling, so it is never recycled).  A job's wall time
    scaled by workloads.calibrated() with the kernel's time around it
    cancels most of the drift.
    """

    def __init__(self):
        import numpy as np
        from scipy.linalg import lu_factor

        rng = np.random.default_rng(0)
        self.np, self.lu_factor = np, lu_factor
        self.a = rng.standard_normal((300, 300)) + 1j * rng.standard_normal((300, 300))
        self.v = rng.standard_normal(100_000)

    def once(self) -> float:
        t0 = time.perf_counter()
        for _ in range(4):
            self.lu_factor(self.a)
            self.np.exp(1j * self.v)
        x = 0.0
        for k in range(300_000):
            x += k * 0.5
        self.np.ones(5_000_000)
        return time.perf_counter() - t0

    def __call__(self, samples: int = 1) -> float:
        """Median time of `samples` back-to-back runs of the kernel."""
        return statistics.median(self.once() for _ in range(samples))


class RemoteCalibration:
    """Calibration run in a calibrator process while the caller waits.

    The kernel's arrays would otherwise put a floor under the jobs
    process's ru_maxrss, the workload's peak_rss_mb.
    """

    def __init__(self, src: str):
        self.proc = subprocess.Popen([sys.executable, __file__, "calibrator", "--src", src],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __call__(self, samples: int = 1) -> float:
        self.proc.stdin.write(f"{samples}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibrator exited with code {self.proc.wait()}")
        return float(line)

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


# ----------------------------------------------------------------------
# provenance and layer metrics
# ----------------------------------------------------------------------

def blas_info() -> dict:
    """BLAS library of numpy and the live thread count of every loaded OpenBLAS."""
    import ctypes

    import numpy as np
    import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS)

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        name = "unknown"
    threads = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(lib).name] = fn()
                break
    return {"blas": name, "blas_threads": threads,
            "blas_env": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS",
                                                        "OPENBLAS_NUM_THREADS")}}


def provenance() -> dict:
    import platform

    import numpy as np
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, **blas_info()}


#: per-layer metric -> (layer, field of spans.layer_totals)
LAYER_FIELDS = {
    "vie.assemble.calls": ("vie.assemble", "calls"),
    "vie.assemble.self_s": ("vie.assemble", "self_s"),
    "green_free.g0.calls": ("green_free.g0", "calls"),
    "green_free.g0.s": ("green_free.g0", "s"),
    "vie.factorize.calls": ("vie.factorize", "calls"),
    "vie.factorize.s": ("vie.factorize", "s"),
    "vie.solve.calls": ("vie.solve", "calls"),
    "vie.solve.columns": ("vie.solve", "columns"),
    "vie.solve.self_s": ("vie.solve", "self_s"),
    "ldos.identity.calls": ("ldos.identity", "calls"),
    "ldos.identity.self_s": ("ldos.identity", "self_s"),
    "ldos.gamma.calls": ("ldos.gamma", "calls"),
    "green_free.plane_wave_table.s": ("green_free.plane_wave_table", "s"),
    "vie.matvec.calls": ("vie.matvec", "calls"),
    "vie.matvec.s": ("vie.matvec", "s"),
    "modes.e.self_s": ("modes.e", "self_s"),
    "modes.m.self_s": ("modes.m", "self_s"),
    "permittivity.kk_s": ("permittivity.kk", "s"),
    "green_free.spectral_s": ("green_free.spectral", "s"),
    "report.validate.self_s": ("report.validate", "self_s"),
}
COUNT_METRICS = [m for m in LAYER_FIELDS if m.endswith((".calls", ".columns"))]


def layer_metrics(tracer, traced_jobs, untraced_s, traced_s) -> dict:
    per_job = []
    for job in traced_jobs:
        totals = layer_totals(tracer.spans, job)
        row = {m: totals.get(layer, {}).get(f, 0) for m, (layer, f) in LAYER_FIELDS.items()}
        cols = row["vie.solve.columns"]
        row["vie.matvec_per_column"] = row["vie.matvec.calls"] / cols if cols else 0.0
        row["vie.kernel_mb"] = totals.get("vie.assemble", {}).get("kernel_bytes", 0) / 2**20
        per_job.append(row)
    metrics = {m: statistics.median(r[m] for r in per_job) for m in per_job[0]}
    setup = layer_totals(tracer.spans, "setup")
    metrics["scene.load_s"] = setup["scene.load"]["s"] / setup["scene.load"]["calls"]
    metrics["geometry.build_grid_s"] = (setup["geometry.build_grid"]["s"]
                                        / setup["geometry.build_grid"]["calls"])
    metrics["trace_overhead"] = statistics.median(traced_s) / statistics.median(untraced_s)
    repeat = all(r[m] == per_job[0][m] for r in per_job for m in COUNT_METRICS)
    return {"metrics": metrics, "counts_repeat": repeat}


# ----------------------------------------------------------------------
# roles
# ----------------------------------------------------------------------

def role_probe(args):
    greenvox = import_greenvox(args.src)
    greenvox.scene.load_scene("scene.yaml").build_grid()
    print("ready", time.monotonic(), flush=True)
    calibrate = Calibration()
    calibrate()
    print(calibrate(3), flush=True)


def role_calibrator(args):
    calibrate = Calibration()
    for line in sys.stdin:
        print(calibrate(int(line)), flush=True)


def role_reference(args):
    import_greenvox(args.src)
    spec = json.loads(Path(SPEC).read_text())
    Path(REFERENCE).write_text(json.dumps(compute_reference(spec)))


def role_jobs(args):
    greenvox = import_greenvox(args.src)
    import greenvox.cli
    import greenvox.scene
    import greenvox.vie

    spec = json.loads(Path(SPEC).read_text())
    reference = json.loads(Path(REFERENCE).read_text())
    trace = bool(spec["trace"])
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.job = "setup"
        tracer.install()
        for _ in range(TRACED_SETUPS):
            greenvox.scene.load_scene("scene.yaml").build_grid()
        tracer.uninstall()
    work = Workload(spec, reference, greenvox)

    def run_job(idx, traced):
        job = {"index": idx, "traced": traced, "ok": False, "error": None}
        if traced:
            tracer.job = idx
            tracer.install()
        output = None
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            output = work.run()
        except (Exception, SystemExit):
            job["error"] = traceback.format_exc(limit=3)
        finally:
            job["wall_s"] = time.perf_counter() - t0
            job["cpu_s"] = time.process_time() - c0
            if traced:
                tracer.uninstall()
        if output is not None:
            try:
                work.check(output)
                job["ok"] = job["wall_s"] <= spec["cap_s"]
                if not job["ok"]:
                    job["error"] = f"job took {job['wall_s']:.2f} s, over its {spec['cap_s']} s cap"
            except Exception:
                job["error"] = traceback.format_exc(limit=3)
        return job

    calibrate = RemoteCalibration(args.src)
    try:
        calibrate()
        samples = spec["calibration_samples"]
        jobs = []
        t_start = time.perf_counter()
        cal_before = calibrate(samples)
        # start no job that would end past the window, judged by the median so
        # far; a traced run alternates untraced and traced jobs and needs one of each
        while len(jobs) < (2 if trace else 1) or (
                time.perf_counter() - t_start + statistics.median(j["wall_s"] for j in jobs)
                <= spec["seconds"]):
            job = run_job(len(jobs), trace and len(jobs) % 2 == 1)
            cal_after = calibrate(samples)
            job["calibration_s"] = 0.5 * (cal_before + cal_after)
            job["calibrated_s"] = calibrated(job["wall_s"], job["calibration_s"])
            cal_before = cal_after
            jobs.append(job)
        measured_s = time.perf_counter() - t_start
    finally:
        calibrate.close()

    result = {"jobs": jobs, "measured_s": measured_s,
              "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "provenance": provenance()}
    if trace:
        result["layers"] = layer_metrics(
            tracer, [j["index"] for j in jobs if j["traced"]],
            [j["wall_s"] for j in jobs if not j["traced"]],
            [j["wall_s"] for j in jobs if j["traced"]])
        tracer.dump(SPANS)
    Path(RESULT).write_text(json.dumps(result))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("role", choices=["probe", "reference", "jobs", "calibrator"])
    ap.add_argument("--src", required=True, help="directory that holds the greenvox package")
    args = ap.parse_args(argv)
    {"probe": role_probe, "reference": role_reference, "jobs": role_jobs,
     "calibrator": role_calibrator}[args.role](args)


if __name__ == "__main__":
    main()
