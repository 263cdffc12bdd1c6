"""What perfbench relies on in the package, checked without importing perfbench's runner.

perfbench records spans by replacing module globals and class attributes
listed in perfbench/spans.py, and computes its sweep reference with
ldos.purcell in the grid form.  Both break silently when a name moves,
so the package's own suite checks them here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import greenvox.ldos as ldos
from greenvox.green_free import PlaneWaveMode
from greenvox.ldos import (DecayRates, EmitterSpec, gamma_decomposed, ldos_identity_residual,
                           purcell)
from greenvox.modes import e_coefficient_via_green
from greenvox.quadrature import make_shell_quadrature
from conftest import OMEGA
from shell_quadrature import kappa_by_quadrature

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def patch_points():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCH_POINTS


def test_every_patch_point_resolves():
    """Each entry is bound where it is listed, looked up as the tracer does."""
    missing = []
    for module_name, attr, span in patch_points():
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        if not callable(vars(owner).get(attr)):
            missing.append((module_name, attr, span))
    assert missing == []


def test_purcell_reference_call_matches_the_identity_route(sphere_grid, drude_materials,
                                                           sphere_solver):
    """purcell(grid, materials, emitter, tol), positionally, as the sweep reference calls it."""
    emitter = EmitterSpec(position=(1.25, 0.07, 0.11), omega=OMEGA, dipole=(0.0, 0.0, 1.0))
    reference = purcell(sphere_grid, drude_materials, emitter, 1e-10)
    ident = ldos_identity_residual(sphere_solver, emitter.r, emitter.r)
    assert reference == pytest.approx(DecayRates.from_identity(ident, emitter).purcell,
                                      rel=1e-12)


def test_both_green_routes_of_e_reach_the_traced_plane_wave_table(monkeypatch, cube_solver):
    """The route-equivalence check and the tests' quadrature reference of the LDOS kappa
    term share one Green route of e, whose plane waves perfbench times through
    ldos.plane_wave_table; the engine's exact kappa builds no plane wave at all."""
    calls = []
    table = ldos.plane_wave_table
    monkeypatch.setattr(ldos, "plane_wave_table",
                        lambda *args: calls.append(args) or table(*args))
    mode = PlaneWaveMode(k=(0.0, 0.6 * OMEGA, 0.8 * OMEGA), sigma=-1, zeta="s")
    e_coefficient_via_green(cube_solver, mode, (0.95, 0.15, 0.25))
    assert len(calls) == 2  # the grid's plane waves and the point's
    emitter = EmitterSpec(position=(0.95, 0.15, 0.25), omega=OMEGA, dipole=(0.0, 0.0, 1.0))
    gamma_decomposed(cube_solver, emitter)
    assert len(calls) == 2
    kappa_by_quadrature(cube_solver, emitter.r, emitter.r, make_shell_quadrature(OMEGA, 2, 4))
    assert len(calls) == 4
