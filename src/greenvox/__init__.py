"""Dyadic Green tensors and quantum-plasmonics field data for finite bodies.

Core pipeline: describe an absorbing dielectric body (Lorentz-pole
materials on a voxel grid), solve the volume integral equation for its
dyadic Green tensor, and from it compute the double-continuum field
coefficients, the local density of states and Purcell factors, with
residual tests for every identity along the way.  All numerics run in
natural units (c = eps0 = hbar = 1); see :mod:`greenvox.constants`.

Exports and submodules load on first access (PEP 562), so importing
the package, e.g. for ``greenvox.cli``, does not load numpy: the CLI
sets its BLAS thread policy before any numerical library starts.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "constants": ("UnitSystem",),
    "geometry": ("Box", "GridError", "MaskShape", "Sphere", "VoxelGrid", "build_grid",
                 "eps_on_grid"),
    "green_free": ("PlaneWaveMode", "fd_curl", "fd_curl_curl", "g0_closed",
                   "g0_longitudinal", "im_g0_spectral", "phi_plane_wave", "scalar_green",
                   "self_term", "sommerfeld_residual"),
    "ldos": ("DecayRates", "EmitterSpec", "gamma_decomposed", "im_green_at",
             "ldos_identity_residual", "purcell", "purcell_sweep", "vacuum_decay_rate"),
    "modes": ("MedModeIndex", "NearSingularError", "e_coefficient", "e_coefficient_via_green",
              "m_coefficient", "noise_current_amplitude", "u_numerator_e", "u_numerator_m",
              "v_component_e", "v_component_m"),
    "permittivity": ("LorentzPole", "PermittivityModel", "PrincipalValueQuadrature",
                     "coupling_alpha_tilde", "eval_eps", "kk_residual", "scaled_contrast"),
    "quadrature": ("SphereQuadrature", "make_shell_quadrature"),
    "scene": ("SceneConfig", "SceneError", "load_scene", "scene_to_dict"),
    "vie": ("InteractionOperator", "MediumSolver", "SolverError", "assemble",
            "dyson_residual", "solve_system"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("cli", "report", *_EXPORTS)

__all__ = sorted(_OWNER)


def __getattr__(name):
    if name in _OWNER:
        value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
