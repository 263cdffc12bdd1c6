"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...] [--out FILE]

For every workload and metric: the median over seeds, the quartiles from
statistics.quantiles(values, n=4) and the quartile spread (Q3 - Q1) as a
share of the median, checked against the bound in BENCHMARK.json.  Runs
are sequential; each is one untraced `run.py` invocation with the
configured run_seconds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"), "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="range a-b or comma list")
    ap.add_argument("--workload", action="append",
                    help="repeatable; default: every workload in BENCHMARK.json")
    ap.add_argument("--out", help="write the summary as JSON here")
    args = ap.parse_args(argv)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {"seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    for wl in workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=200)
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and proc.returncode == 0 and last["correct"]
            runs.append({"seed": seed, **last})
            print(f"{wl} seed={seed} rc={proc.returncode} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in last["metrics"].items()), flush=True)
        metrics = {name: summarize([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        summary["workloads"][wl] = {
            "metrics": metrics, "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs)}
        for name, s in metrics.items():
            bound = bounds[name]
            flag = "ok" if s["spread"] <= bound / 3 else (
                "within bound" if s["spread"] <= bound else "OVER BOUND")
            ok = ok and s["spread"] <= bound
            print(f"  {wl:20s} {name:30s} median={s['median']:.6g} "
                  f"spread={s['spread']:.4f} {flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
