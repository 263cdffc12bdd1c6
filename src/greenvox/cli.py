"""Command-line front end.

Subcommands: greens, modes, purcell, ldos-check, validate.  Exit codes:
0 success, 2 validation failure, 3 solver failure (out of memory
included), 4 configuration error.  --threads pins the BLAS/OpenMP
thread pool: the package loads numpy lazily, so the thread variables
are set before any numerical library starts; with a fixed thread
policy repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_CONFIG = 4


def _apply_thread_policy(threads):
    if threads is None:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(threads)


def _parse_triplet(text, name):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"{name} expects three comma-separated numbers")
    return tuple(float(p) for p in parts)


def _parse_quad(text):
    try:
        nt, nphi = text.lower().split("x")
        return int(nt), int(nphi)
    except ValueError:
        raise argparse.ArgumentTypeError("quadrature order looks like THETAxPHI, e.g. 8x16")


def _parse_range(text):
    try:
        a, b, n = text.split(":")
        return float(a), float(b), int(n)
    except ValueError:
        raise argparse.ArgumentTypeError("omega range looks like start:stop:count")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="greenvox",
                                 description="Dyadic Green tensors, field coefficients "
                                             "and Purcell factors for finite absorbing bodies")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scene", required=True, help="scene YAML file")
        p.add_argument("--out-dir", default=None, help="directory for output files")
        p.add_argument("--threads", type=int, default=None,
                       help="pin the BLAS/OpenMP thread pool to this many threads")
        p.add_argument("--tol", type=float, default=None, help="solver tolerance override")
        p.add_argument("--quad", type=_parse_quad, default=None,
                       help="shell quadrature order THETAxPHI override")

    g = sub.add_parser("greens", help="medium Green tensor at one point pair")
    common(g)
    g.add_argument("--omega", type=float, required=True)
    g.add_argument("--src", type=lambda s: _parse_triplet(s, "--src"), required=True)
    g.add_argument("--eval", type=lambda s: _parse_triplet(s, "--eval"), required=True)

    m = sub.add_parser("modes", help="e coefficient of one plane-wave mode at points")
    common(m)
    m.add_argument("--omega", type=float, required=True)
    m.add_argument("--kdir", type=lambda s: _parse_triplet(s, "--kdir"), required=True)
    m.add_argument("--sigma", choices=["+", "-"], default="+")
    m.add_argument("--zeta", choices=["c", "s"], default="c")
    m.add_argument("--eval", required=True, help="CSV of evaluation points (x,y,z per row)")

    p = sub.add_parser("purcell", help="Purcell factor sweep over frequencies")
    common(p)
    p.add_argument("--emitter", type=lambda s: _parse_triplet(s, "--emitter"), required=True)
    p.add_argument("--dipole", type=lambda s: _parse_triplet(s, "--dipole"), required=True)
    p.add_argument("--omega-range", type=_parse_range, required=True)
    p.add_argument("--out", default="purcell.csv", help="output CSV name")

    l = sub.add_parser("ldos-check", help="LDOS identity residuals at a point pair")
    common(l)
    l.add_argument("--omega", type=float, required=True)
    l.add_argument("--point", type=lambda s: _parse_triplet(s, "--point"), required=True)
    l.add_argument("--point2", type=lambda s: _parse_triplet(s, "--point2"), default=None)

    v = sub.add_parser("validate", help="run the full identity suite")
    common(v)
    return ap


def _load_scene_or_exit(args):
    from .scene import SceneError, load_scene

    try:
        cfg = load_scene(args.scene)
    except SceneError as exc:
        print(str(exc), file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)
    if args.tol is not None:
        cfg.solver_tol = args.tol
    if args.quad is not None:
        cfg.n_theta, cfg.n_phi = args.quad
    return cfg


def _out_dir(args) -> Path:
    out = Path(args.out_dir) if args.out_dir else Path.cwd()
    out.mkdir(parents=True, exist_ok=True)
    return out


def _complex_matrix_payload(M):
    return {"re": [[float(v.real) for v in row] for row in M],
            "im": [[float(v.imag) for v in row] for row in M]}


def _write(path: Path, text: str):
    path.write_text(text)
    print(f"wrote {path}", file=sys.stderr)


def _cmd_greens(args) -> int:
    import numpy as np

    from .vie import MediumSolver

    cfg = _load_scene_or_exit(args)
    grid = cfg.build_grid()
    solver = MediumSolver(grid, cfg.materials, args.omega, cfg.solver_tol,
                          dense_cap=cfg.dense_cap)
    G = solver.green(np.asarray(args.eval), np.asarray(args.src))
    payload = {"config_hash": cfg.config_hash, "omega": args.omega,
               "source": list(args.src), "eval": list(args.eval),
               "green": _complex_matrix_payload(G)}
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if args.out_dir:
        _write(_out_dir(args) / "greens.json", text)
    return EXIT_OK


def _read_points_csv(path):
    rows = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.lower().startswith(("x", "#")):
            continue
        rows.append([float(v) for v in line.split(",")[:3]])
    return rows


def _cmd_modes(args) -> int:
    from .green_free import PlaneWaveMode
    from .modes import e_coefficient

    cfg = _load_scene_or_exit(args)
    grid = cfg.build_grid()
    import numpy as np

    kdir = np.asarray(args.kdir, dtype=float)
    kdir = kdir / np.linalg.norm(kdir)
    mode = PlaneWaveMode(k=tuple(args.omega * kdir),
                         sigma=+1 if args.sigma == "+" else -1, zeta=args.zeta)
    points = _read_points_csv(args.eval)
    values = e_coefficient(grid, cfg.materials, mode, points, cfg.solver_tol)
    lines = [f"# config_hash={cfg.config_hash}",
             "x,y,z,re_ex,im_ex,re_ey,im_ey,re_ez,im_ez"]
    for pt, v in zip(points, values):
        nums = [pt[0], pt[1], pt[2],
                v[0].real, v[0].imag, v[1].real, v[1].imag, v[2].real, v[2].imag]
        lines.append(",".join(repr(float(x)) for x in nums))
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out_dir:
        _write(_out_dir(args) / "modes.csv", text)
    return EXIT_OK


def _cmd_purcell(args) -> int:
    from .ldos import purcell_sweep

    cfg = _load_scene_or_exit(args)
    grid = cfg.build_grid()
    a, b, n = args.omega_range
    if n < 1:
        print("omega range needs at least one point", file=sys.stderr)
        return EXIT_CONFIG
    omegas = [a + (b - a) * i / max(n - 1, 1) for i in range(n)]
    rows = purcell_sweep(grid, cfg.materials, args.emitter, args.dipole, omegas,
                         cfg.solver_tol, cfg.n_theta, cfg.n_phi)
    lines = [f"# config_hash={cfg.config_hash}",
             "omega,purcell,gamma_e,gamma_m,identity_residual,error"]
    for r in rows:
        if "error" in r:
            lines.append(f"{r['omega']!r},,,,,{json.dumps(r['error'])}")
        else:
            lines.append(",".join(repr(float(r[k])) for k in
                                  ("omega", "purcell", "gamma_e", "gamma_m",
                                   "identity_residual")) + ",")
    text = "\n".join(lines) + "\n"
    out = _out_dir(args)
    csv_path = out / args.out
    _write(csv_path, text)
    gp = (f'set datafile separator ","\nset key autotitle columnhead\n'
          f'set xlabel "omega"\nset ylabel "Purcell factor"\n'
          f'plot "{csv_path.name}" using 1:2 with lines\npause -1\n')
    _write(csv_path.with_suffix(".gp"), gp)
    failures = [r for r in rows if "error" in r]
    manifest = {
        "command": "purcell",
        "config_hash": cfg.config_hash,
        "inputs": {"scene": cfg.source_path, "emitter": list(args.emitter),
                   "dipole": list(args.dipole), "omega_range": list(args.omega_range)},
        "outputs": {
            "csv": csv_path.name,
            "plot_script": csv_path.with_suffix(".gp").name,
            "columns": {"omega": "transition frequency (internal units)",
                        "purcell": "decay rate over the vacuum rate",
                        "gamma_e": "electromagnetic-continuum contribution",
                        "gamma_m": "medium-continuum contribution (identity route)",
                        "identity_residual": "relative LDOS identity residual at the emitter",
                        "error": "per-row failure message, empty on success"},
            "rows": len(rows),
            "failed_rows": [r["omega"] for r in failures],
        },
    }
    _write(csv_path.with_suffix(".json"),
           json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    if failures:
        print(f"{len(failures)} of {len(rows)} sweep rows failed", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def _cmd_ldos_check(args) -> int:
    import numpy as np

    from .ldos import ldos_identity_residual, make_shell_quadrature

    cfg = _load_scene_or_exit(args)
    grid = cfg.build_grid()
    x = np.asarray(args.point)
    y = np.asarray(args.point2) if args.point2 else x
    quad = make_shell_quadrature(args.omega, cfg.n_theta, cfg.n_phi)
    ident = ldos_identity_residual(grid, cfg.materials, x, y, args.omega, quad,
                                   cfg.solver_tol)
    payload = {
        "config_hash": cfg.config_hash,
        "omega": args.omega,
        "x": list(map(float, x)), "y": list(map(float, y)),
        "relative_residual_absorption_form": ident.relative_absorption,
        "relative_residual_m_form": ident.relative_m,
        "forms_gap": ident.forms_gap / ident.scale,
        "im_green": _complex_matrix_payload(ident.im_green.astype(complex)),
    }
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if args.out_dir:
        _write(_out_dir(args) / "ldos_check.json", text)
    return EXIT_OK


def _cmd_validate(args) -> int:
    from .report import run_validation

    cfg = _load_scene_or_exit(args)
    t0 = time.perf_counter()
    report = run_validation(cfg)
    elapsed = time.perf_counter() - t0
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.name}: {c.value:.3e} (threshold {c.threshold:.3e})")
    print(f"validate finished in {elapsed:.2f} s "
          f"({'all checks passed' if report.passed else 'FAILURES present'})",
          file=sys.stderr)
    text = report.to_json()
    if args.out_dir:
        _write(_out_dir(args) / "validate_report.json", text)
    return EXIT_OK if report.passed else EXIT_VALIDATION


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _apply_thread_policy(args.threads)
    handlers = {"greens": _cmd_greens, "modes": _cmd_modes, "purcell": _cmd_purcell,
                "ldos-check": _cmd_ldos_check, "validate": _cmd_validate}
    from .vie import SolverError

    try:
        return handlers[args.command](args)
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except MemoryError as exc:
        print(f"solver out of memory: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except SystemExit as exc:  # config rejection from scene loading
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
