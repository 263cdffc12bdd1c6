"""greenvox benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload validate-drude257 --seed 1 --seconds 35 --trace 0

Run from the repository root.  --trace 0 measures the end-to-end metrics
(job_s, setup_s, peak_rss_mb; failed_frac rides in "failed"/"attempted").
--trace 1 alternates untraced and traced jobs and reports the per-layer
metrics.  The last line of standard output is one JSON object; the full
record, with provenance next to every number, is written to
.perfbench_runs/<workload>/seed<seed>-trace<t>/result.json.

This process imports no numpy.  Every numeric process it starts
(worker.py) gets BLAS pinned to one thread through the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from workloads import PINNED_ENV, WORKLOADS, calibrated, generate  # noqa: E402

#: fresh processes whose median is setup_s
SETUP_PROBES = 7
#: every run ends, result or not, this long after it started
RUN_DEADLINE_S = 170.0


def source_provenance() -> dict:
    """Git commit when the checkout is a repository, and a hash of the sources."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "greenvox").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONHOME")}
    env.update(PINNED_ENV)
    return env


def worker_cmd(role: str) -> list:
    return [sys.executable, str(HERE / "worker.py"), role, "--src", str(SRC)]


def run_child(role: str, rundir: Path, deadline: float):
    """Run one worker role to completion; its output goes to <role>.log.

    The role runs in a process group of its own, so that a kill at the
    deadline also reaches the calibrator the jobs process starts.
    """
    with open(rundir / f"{role}.log", "w") as log:
        proc = subprocess.Popen(worker_cmd(role), cwd=rundir, env=child_env(),
                                stdout=log, stderr=subprocess.STDOUT, start_new_session=True)
        try:
            rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise RuntimeError(f"{role} process passed the run deadline and was killed")
    if rc != 0:
        tail = (rundir / f"{role}.log").read_text()[-2000:]
        raise RuntimeError(f"{role} process exited with code {rc}:\n{tail}")


def setup_probe(rundir: Path, deadline: float) -> dict:
    """Time from process start to import greenvox + load_scene + build_grid.

    The probe prints CLOCK_MONOTONIC (system-wide) when it is ready, then
    the calibration time measured right after; setup_s scales the one by
    the other like job_s.
    """
    t0 = time.monotonic()
    proc = subprocess.Popen(worker_cmd("probe"), cwd=rundir, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("setup probe passed the run deadline and was killed")
    words = out.split()
    if proc.returncode != 0 or len(words) != 3 or words[0] != "ready":
        raise RuntimeError(f"setup probe failed with code {proc.returncode}")
    wall = float(words[1]) - t0
    calibration = float(words[2])
    return {"wall_s": wall, "calibration_s": calibration,
            "calibrated_s": calibrated(wall, calibration)}


def with_units(values: dict, declared: list) -> dict:
    """Every metric BENCHMARK.json declares, in its order, with its unit."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def end_to_end(result: dict, setups: list) -> dict:
    return {
        "job_s": statistics.median(j["calibrated_s"] for j in result["jobs"]),
        "setup_s": statistics.median(p["calibrated_s"] for p in setups),
        "peak_rss_mb": result["peak_rss_kib"] / 1024.0,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one greenvox benchmark workload.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="length of the timed window")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    if not (SRC / "greenvox" / "__init__.py").is_file():
        print(f"greenvox sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[args.workload]
    inputs = generate(args.workload, args.seed)
    rundir = ROOT / ".perfbench_runs" / args.workload / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    (rundir / "out").mkdir(parents=True)
    for name, text in inputs["files"].items():
        (rundir / name).write_text(text)
    spec = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "argv": inputs["argv"], "params": inputs["params"],
            "voxels": wl["voxels"], "cap_s": wl["cap_s"],
            "calibration_samples": wl["calibration_samples"]}
    (rundir / "spec.json").write_text(json.dumps(spec, indent=1))

    try:
        setups = []
        if not args.trace:
            setups = [setup_probe(rundir, deadline) for _ in range(SETUP_PROBES)]
        run_child("reference", rundir, deadline)
        run_child("jobs", rundir, deadline)
    except RuntimeError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    result = json.loads((rundir / "result.json").read_text())

    jobs = result["jobs"]
    failed = sum(not j["ok"] for j in jobs)
    correct = failed == 0
    if args.trace:
        metrics = with_units(result["layers"]["metrics"], bench["per_layer"])
        correct = correct and result["layers"]["counts_repeat"]
    else:
        metrics = with_units(end_to_end(result, setups), bench["end_to_end"])
    record = {
        "workload": args.workload, "why": wl["why"], "seed": args.seed,
        "input_hash": inputs["input_hash"], "trace": args.trace,
        "seconds": args.seconds, "measured_s": result["measured_s"],
        "provenance": {**result["provenance"], **source_provenance()},
        "metrics": metrics, "failed_frac": failed / len(jobs),
        "attempted": len(jobs), "failed": failed,
        "job_wall_median_s": statistics.median(j["wall_s"] for j in jobs),
        "setup_probes": setups,
        "errors": [j["error"] for j in jobs if j["error"]],
    }
    if args.trace:
        record["counts_repeat"] = result["layers"]["counts_repeat"]
    (rundir / "result.json").write_text(json.dumps({**record, "worker": result}, indent=1))

    prov = record["provenance"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"input_hash={inputs['input_hash'][:16]} commit={prov['git_commit']} "
          f"source={prov['source_sha256'][:16]}")
    print(f"# {prov['cpu_model']}, nproc={prov['nproc']}, {prov['blas']} "
          f"threads={prov['blas_threads']}, python {prov['python']}, "
          f"numpy {prov['numpy']}, scipy {prov['scipy']}")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':32s} {record['failed_frac']:.6g} ({failed}/{len(jobs)} jobs, "
          f"over {result['measured_s']:.1f} s)")
    print(f"# uncalibrated medians: job {record['job_wall_median_s']:.6g} s"
          + (f", setup {statistics.median(p['wall_s'] for p in setups):.6g} s" if setups else ""))
    for err in record["errors"]:
        print(err, file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(jobs), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
