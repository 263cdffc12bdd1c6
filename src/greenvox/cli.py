"""Command-line front end.

Subcommands: greens, modes, purcell, ldos-check, validate.  Exit codes:
0 success, 2 validation failure, 3 solver failure (out of memory
included), 4 configuration error (a grid error or a command-line usage
error included).  --threads pins the BLAS/OpenMP thread pool: the
package loads numpy lazily, so the thread variables are set before any
numerical library starts, and an OpenBLAS already loaded by the caller
is set through its own setter; with a fixed thread policy repeated runs
are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
from pathlib import Path

from .constants import NUMBER_RANGE

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_CONFIG = 4


def _apply_thread_policy(threads):
    """Pin BLAS/OpenMP to threads: the environment for pools that have not started,
    and the setter of every OpenBLAS already mapped into the process (numpy or scipy
    imported before main, as in a caller that runs the CLI in-process)."""
    if threads is None:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(threads)
    try:
        with open("/proc/self/maps") as maps:  # where there is no /proc, nothing is pinned
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return
    import ctypes

    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:  # a mapping whose file is gone
            continue
        for name in ("openblas_set_num_threads", "openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads", "scipy_openblas_set_num_threads64_"):
            setter = getattr(handle, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(threads)
                break


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


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit EXIT_CONFIG, since its own 2 is EXIT_VALIDATION.

    A "-" before a digit starts a value, as in "--point2 -0.3,1.4,0.2", where
    argparse itself takes a lone negative number only.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="greenvox",
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
                       help="shell quadrature order THETAxPHI override (validate's "
                            "free-space spectral check; the LDOS shell integral is exact)")

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
    p.add_argument("--out", default="purcell.csv",
                   help="output CSV file name in --out-dir; the plot script and the manifest "
                        "take its stem with .gp and .json")

    l = sub.add_parser("ldos-check", help="LDOS identity residuals at a point pair")
    common(l)
    l.add_argument("--omega", type=float, required=True)
    l.add_argument("--point", type=lambda s: _parse_triplet(s, "--point"), required=True)
    l.add_argument("--point2", type=lambda s: _parse_triplet(s, "--point2"), default=None)

    v = sub.add_parser("validate", help="run the full identity suite")
    common(v)
    return ap


def _exit_config(message):
    print(message, file=sys.stderr)
    raise SystemExit(EXIT_CONFIG)


def _load_scene_or_exit(args):
    """The scene with the --tol/--quad overrides, validated and hashed like the file."""
    from .scene import SceneError, load_scene, scene_from_dict, scene_to_dict

    try:
        cfg = load_scene(args.scene)
        canon, overrides = scene_to_dict(cfg), {}
        if args.tol is not None:
            overrides["solver"] = {**canon["solver"], "tol": args.tol}
        if args.quad is not None:
            overrides["quadrature"] = dict(zip(("n_theta", "n_phi"), args.quad))
        if overrides:
            cfg = scene_from_dict(canon | overrides, source_path=cfg.source_path)
    except SceneError as exc:
        _exit_config(str(exc))
    return cfg


def _argument_problem(args):
    """The first command-line argument no scene can make valid, as one line, or None.

    Checked before the scene is read or any thread pool starts.
    """
    if args.threads is not None and not 1 <= args.threads < 2**31:  # the setters take a C int
        return f"--threads must be an integer in [1, {2**31 - 1}], got {args.threads}"
    try:
        if args.out_dir and any(p.exists() and not p.is_dir()
                                for p in (Path(args.out_dir), *Path(args.out_dir).parents)):
            return f"--out-dir {args.out_dir} names an existing file"
    except OSError as exc:  # such as a name too long for the file system
        return f"--out-dir {args.out_dir}: {exc.strerror or exc}"
    lo, hi = NUMBER_RANGE
    omega = getattr(args, "omega", 1.0)
    if not lo <= omega <= hi:
        return f"--omega must be a positive finite frequency in [{lo:g}, {hi:g}], got {omega!r}"
    if args.command == "modes" and args.kdir[2] < 0.0:
        return "--kdir must have a nonnegative z component (modes are labelled by k_z >= 0)"
    # the scene's number rule; math's norms and distances neither overflow nor underflow
    for name in ("src", "eval", "point", "point2", "emitter", "dipole", "kdir"):
        value = getattr(args, name, None)
        if isinstance(value, tuple) and not all(abs(v) <= hi for v in value):
            return f"--{name} must be three finite numbers of magnitude at most {hi:g}, got {value}"
        if name in ("dipole", "kdir") and value and not math.hypot(*value) >= lo:
            return f"--{name} must have a norm of at least {lo:g}"
    if args.command == "greens" and math.dist(args.src, args.eval) < lo:
        return f"--src and --eval are closer than {lo:g}; ldos-check --point gives Im G(x, x)"
    if args.command == "ldos-check" and 0 < math.dist(args.point, args.point2 or args.point) < lo:
        return f"--point2 must equal --point or lie at least {lo:g} from it"
    if args.command == "purcell":
        a, b, n = args.omega_range
        if not (lo <= a <= b <= hi and n >= 1):
            return (f"--omega-range needs a positive start and a stop at or above it, both "
                    f"in [{lo:g}, {hi:g}], and at least one point, got {a}:{b}:{n}")
        # the plot script and the manifest are written beside the CSV, as <stem>.gp and
        # <stem>.json, so a CSV named like either would be overwritten by it
        out = Path(args.out)
        if (args.out in ("", "..") or out.name != args.out
                or out.suffix.lower() in (".gp", ".json")):
            return (f"--out must be a file name in --out-dir, without a directory part and "
                    f"not ending in .gp or .json, got {args.out!r}")
        out_dir = Path(args.out_dir or ".")  # the sweep runs before any file is written
        try:
            limit = os.pathconf(next(p for p in (out_dir, *out_dir.parents) if p.exists()),
                                "PC_NAME_MAX")
        except (AttributeError, OSError, ValueError):  # a system that reports no limit
            limit = -1
        for name in (args.out, out.with_suffix(".gp").name, out.with_suffix(".json").name):
            if 0 <= limit < len(os.fsencode(name)):
                return f"--out: the file name {name!r} is longer than {limit} bytes"
    return None


def _out_dir(args) -> Path:
    out = Path(args.out_dir) if args.out_dir else Path.cwd()
    out.mkdir(parents=True, exist_ok=True)
    return out


def _complex_matrix_payload(M):
    return {"re": [[float(v.real) for v in row] for row in M],
            "im": [[float(v.imag) for v in row] for row in M]}


def _write(path: Path, text: str):
    try:
        path.write_text(text)
    except OSError as exc:  # such as a directory of that name in --out-dir
        _exit_config(f"cannot write {path}: {exc.strerror or exc}")
    print(f"wrote {path}", file=sys.stderr)


def _cmd_greens(args) -> int:
    import numpy as np

    cfg = _load_scene_or_exit(args)
    G = cfg.solver(args.omega).green(np.asarray(args.eval), np.asarray(args.src))
    payload = {"config_hash": cfg.config_hash, "omega": args.omega,
               "source": list(args.src), "eval": list(args.eval),
               "green": _complex_matrix_payload(G)}
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if args.out_dir:
        _write(_out_dir(args) / "greens.json", text)
    return EXIT_OK


def _read_points_csv(path):
    try:
        lines = [line.strip() for line in Path(path).read_text().splitlines()]
        rows = [[float(v) for v in line.split(",")[:3]] for line in lines
                if line and not line.lower().startswith(("x", "#"))]
    except (OSError, ValueError) as exc:
        _exit_config(f"--eval {path}: {exc}")
    hi = NUMBER_RANGE[1]
    if not rows or any(len(row) != 3 or not all(abs(v) <= hi for v in row) for row in rows):
        _exit_config(f"--eval {path}: expected rows of three numbers x,y,z, each at most {hi:g}")
    return rows


def _cmd_modes(args) -> int:
    import numpy as np

    from .green_free import PlaneWaveMode
    from .modes import e_coefficient

    cfg = _load_scene_or_exit(args)
    kdir = np.asarray(args.kdir, dtype=float)
    kdir = kdir / np.linalg.norm(kdir)
    mode = PlaneWaveMode(k=tuple(args.omega * kdir),
                         sigma=+1 if args.sigma == "+" else -1, zeta=args.zeta)
    points = _read_points_csv(args.eval)
    values = e_coefficient(cfg.solver(mode.omega), mode, points)
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
    cfg.grid  # a body that cannot be voxelized is a config error, not a failed row
    a, b, n = args.omega_range
    omegas = [a + (b - a) * i / max(n - 1, 1) for i in range(n)]
    rows = purcell_sweep(cfg.solver, args.emitter, args.dipole, omegas)
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

    from .ldos import ldos_identity_residual

    cfg = _load_scene_or_exit(args)
    x = np.asarray(args.point)
    y = np.asarray(args.point2) if args.point2 else x
    ident = ldos_identity_residual(cfg.solver(args.omega), x, y)
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help (0) or a usage error (EXIT_CONFIG)
        return exc.code
    problem = _argument_problem(args)
    if problem:
        print(problem, file=sys.stderr)
        return EXIT_CONFIG
    _apply_thread_policy(args.threads)
    handlers = {"greens": _cmd_greens, "modes": _cmd_modes, "purcell": _cmd_purcell,
                "ldos-check": _cmd_ldos_check, "validate": _cmd_validate}
    from .geometry import GridError
    from .vie import SolverError

    try:
        return handlers[args.command](args)
    except GridError as exc:  # the scene's body cannot be voxelized
        print(f"grid error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
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
