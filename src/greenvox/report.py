"""Aggregate validation suite and deterministic run reports.

The validate run exercises, on the user's scene, every identity the
engine is built on: the causality residual of each material, the
spectral representation of the free Green tensor (the one check that
uses the scene's shell quadrature), the Dyson permutation and
reciprocity identities, the route equivalence of both field
coefficients, the LDOS identity in both forms and in its discrete form,
the decay-rate compensation and the vacuum Purcell closure.  One
pass/fail line per check, thresholds fixed here.

Reports serialize to canonical JSON (sorted keys, repr floats) so a
repeated run at a fixed thread policy is byte identical; wall-clock
timings are therefore logged to the console, never stored in the
report payload.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy

from . import __version__
from .geometry import VoxelGrid
from .green_free import g0_closed, im_g0_spectral
from .ldos import (DecayRates, EmitterSpec, gamma_decomposed, ldos_identity_residual,
                   purcell, vacuum_decay_rate)
from .modes import (MedModeIndex, e_coefficient, e_coefficient_via_green, e_direct_rhs,
                    m_coefficient, m_direct_rhs)
from .green_free import PlaneWaveMode
from .permittivity import VACUUM, eval_eps, kk_residual
from .quadrature import make_shell_quadrature
from .scene import SceneConfig
from .vie import MediumSolver, dyson_residual

#: thresholds of the aggregate checks (relative unless noted)
THRESHOLDS = {
    "kramers_kronig": 1e-6,
    "free_space_spectral": 1e-3,
    "dyson_identity": 1e-8,
    "reciprocity": 1e-10,
    "route_equivalence_e": 1e-8,
    "route_equivalence_m": 1e-8,
    "ldos_identity_absorption": 1e-2,
    "ldos_identity_m_form": 1e-2,
    "ldos_forms_agreement": 1e-8,
    "ldos_identity_discrete": 1e-12,  # dense LU; the lattice path uses 10x the solver tol
    "compensation_exact": 1e-12,
    "compensation_mu_route": None,  # bound: 2x contracted identity residual
    "vacuum_purcell": 1e-10,
    "vacuum_gamma_e": 1e-3,
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    threshold: float
    detail: str = ""


@dataclass
class RunReport:
    command: str
    config_hash: str
    inputs: dict
    checks: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    versions: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "config_hash": self.config_hash,
            "versions": self.versions,
            "inputs": self.inputs,
            "checks": [{"name": c.name, "passed": c.passed, "value": c.value,
                        "threshold": c.threshold, "detail": c.detail}
                       for c in self.checks],
            "outputs": self.outputs,
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _versions() -> dict:
    return {"greenvox": __version__, "numpy": np.__version__, "scipy": scipy.__version__}


def _new_report(command: str, cfg: SceneConfig) -> RunReport:
    return RunReport(command=command, config_hash=cfg.config_hash,
                     inputs={"scene": cfg.source_path, "hash": cfg.config_hash},
                     versions=_versions())


def _validate_defaults(cfg: SceneConfig, grid: VoxelGrid) -> dict:
    """Deterministic probe geometry for the validate run."""
    block = dict(cfg.runs.get("validate", {}))
    lo, hi = grid.bounding_box()
    center = 0.5 * (lo + hi)
    half_diag = 0.5 * float(np.linalg.norm(hi - lo))
    omega = float(block.get("omega", 1.0))
    reach = 1.35 * half_diag + 0.25 / omega
    block.setdefault("omega", omega)
    block.setdefault("emitter", tuple(center + np.array([reach, 0.07 * half_diag,
                                                         0.11 * half_diag])))
    block.setdefault("dipole", (0.0, 0.0, 1.0))
    block.setdefault("x", tuple(center + np.array([1.25 * half_diag + 0.2 / omega, 0.0, 0.0])))
    block.setdefault("y", tuple(center + np.array([-0.3 * half_diag,
                                                   1.3 * half_diag + 0.15 / omega, 0.0])))
    return block


def run_validation(cfg: SceneConfig) -> RunReport:
    """Run the identity suite on one medium and one vacuum solver; raises SolverError.

    The medium solver builds its block solves once and solves, in one block,
    every right-hand side of the checks: the five Green sources (y, x, the
    first voxel center, the m mode's point and the emitter) and the
    direct-route e and m inhomogeneities of the route-equivalence checks.
    Every later call finds its field in the solver's memo, so the medium
    operator is solved once.
    """
    report = _new_report("validate", cfg)
    grid = cfg.grid
    probes = _validate_defaults(cfg, grid)
    omega = probes["omega"]
    quad = make_shell_quadrature(cfg.n_theta, cfg.n_phi)

    def check(name, value, detail="", threshold=None, limit=None):
        """Append one check; threshold from THRESHOLDS (by the name before any
        "[qualifier]") unless given, passed when value <= limit (default threshold)."""
        if threshold is None:
            threshold = THRESHOLDS[name.split("[")[0]]
        passed = value <= (threshold if limit is None else limit)
        report.checks.append(CheckResult(name=name, passed=passed, value=value,
                                         threshold=threshold, detail=detail))

    # causality of every declared material
    for rid, model in sorted(cfg.materials.items()):
        scale = abs(eval_eps(model, omega) - 1.0)
        res = kk_residual(model, omega)
        check(f"kramers_kronig[region {rid}]", res / scale if scale > 0 else res)

    # free-space spectral representation against the closed form
    x0 = np.asarray(probes["x"])
    coinc = im_g0_spectral(x0, x0, omega, quad)
    target = omega / (6.0 * np.pi) * np.eye(3)
    rel = float(np.linalg.norm(coinc - target) / np.linalg.norm(target))
    y0 = np.asarray(probes["y"])
    spec = im_g0_spectral(x0, y0, omega, quad)
    closed = g0_closed(x0, y0, omega).imag
    rel_pair = float(np.linalg.norm(spec - closed) / max(np.linalg.norm(closed), 1e-300))
    check("free_space_spectral", max(rel, rel_pair),
          detail="coincidence limit and separated pair vs closed form")

    solver = cfg.solver(omega)
    mode = PlaneWaveMode(k=tuple(omega * np.array([0.48, 0.36, 0.8])), sigma=+1, zeta="c")
    pts = np.vstack([x0, grid.centers[0]])
    mu = MedModeIndex(x=tuple(grid.centers[grid.n // 2]), nu=omega, j=3)
    emitter = EmitterSpec(position=tuple(probes["emitter"]), omega=omega,
                          dipole=tuple(probes["dipole"]))
    # every Green source and direct-route field of the checks below, in one block solve
    solver.solved({**solver.sources([y0, x0, grid.centers[0], mu.x_point, emitter.r]),
                   mode: partial(e_direct_rhs, solver, mode),
                   mu: partial(m_direct_rhs, solver, mu)})

    # Dyson permutation identity and reciprocity
    dy = dyson_residual(solver, x0, y0)
    Gxy = solver.green(x0, y0)
    Gyx = solver.green(y0, x0)
    gnorm = float(np.linalg.norm(Gxy))
    check("dyson_identity", dy / gnorm)
    check("reciprocity", float(np.linalg.norm(Gxy - Gyx.T) / gnorm))

    # route equivalence for e and m
    e_direct = e_coefficient(solver, mode, pts)
    e_green = e_coefficient_via_green(solver, mode, pts)
    check("route_equivalence_e",
          float(np.linalg.norm(e_direct - e_green) / np.linalg.norm(e_direct)))

    m_green_route = m_coefficient(solver, mu, pts, route="green")
    m_direct_route = m_coefficient(solver, mu, pts, route="direct")
    scale_m = float(np.linalg.norm(m_green_route))
    check("route_equivalence_m",
          float(np.linalg.norm(m_green_route - m_direct_route)) / scale_m
          if scale_m > 0 else 0.0)

    # LDOS identity at the emitter, both forms with the exact shell integral, and
    # with the kernel's own values, where only the solve's error is left
    ident = ldos_identity_residual(solver, emitter.r, emitter.r)
    check("ldos_identity_absorption", ident.relative_absorption)
    check("ldos_identity_m_form", ident.relative_m)
    check("ldos_forms_agreement", ident.forms_gap / ident.scale)
    check("ldos_identity_discrete", ident.relative_discrete,
          detail="kappa with the kernel's own Im G0 values: the discrete optical theorem",
          threshold=None if solver.op.plan.representation == "dense"
          else max(1e-12, 10.0 * solver.tol))

    # compensation: identity route is exact, mu route bounded by the residual; relative
    # checks take the rates of the unit dipole, whose squares cannot underflow
    rates = DecayRates.from_identity(ident, emitter.unit)
    check("compensation_exact",
          abs(rates.gamma_total - rates.gamma_via_im_green) / rates.gamma_via_im_green)
    bound = 2.0 * rates.contracted_residual
    check("compensation_mu_route",
          abs(rates.gamma_e + rates.gamma_m_mu_route - rates.gamma_via_im_green)
          / rates.gamma_via_im_green,
          detail="bound is 2x the dipole-contracted LDOS identity residual",
          threshold=bound, limit=max(bound, 1e-14))

    # vacuum closure on the same grid with every region emptied: with beta = 0
    # the operator is the identity whatever the solve policy
    vac_solver = MediumSolver(grid, dict.fromkeys(cfg.materials, VACUUM), omega, cfg.solver_tol)
    check("vacuum_purcell", abs(purcell(vac_solver, None, emitter) - 1.0))
    vac_rates = gamma_decomposed(vac_solver, emitter.unit)
    g0_exact = vacuum_decay_rate(emitter.omega, emitter.unit.d)
    check("vacuum_gamma_e", abs(vac_rates.gamma_e - g0_exact) / g0_exact)

    report.outputs = {
        "omega": omega,
        "grid_voxels": grid.n,
        "purcell": rates.purcell,
        "gamma_via_im_green": emitter.size**2 * rates.gamma_via_im_green,
        "im_green_trace": float(np.trace(ident.im_green)),
    }
    return report
