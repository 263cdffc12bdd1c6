"""Unit system and physical constants.

Every numerical routine in this package works in natural units:

    c = eps0 = hbar = 1,

with lengths measured in a reference length L0 and frequencies in c/L0.
A frequency therefore doubles as a wavenumber, Green tensors carry units
of 1/L0, and the vacuum decay rate reduces to omega^3 |d|^2 / (3 pi).
SI values enter only at the I/O boundary through :class:`UnitSystem`.
"""

from __future__ import annotations

from dataclasses import dataclass

#: magnitudes accepted for a scene number, and for a positive one (a frequency,
#: a length, a tolerance), and for a command-line frequency: beyond them
#: omega^2, 1/omega^2 and the kernel's 1/(omega^2 R^3) leave the float64 range
NUMBER_RANGE = (1e-30, 1e30)

#: lattice sites build_grid may scan for the voxels of geometric shapes: the
#: centers of 2**24 sites take 384 MiB, and a finer lattice is a grid error
MAX_LATTICE_SITES = 2**24

#: largest shell-quadrature order per angle: leggauss(n) diagonalizes an n x n
#: companion, so 1024 x 1024 builds in 0.5-1.5 s and validate checks it in 1-2 s
#: at a 383 MB peak (2-core VM), where 20000 would take 3.2 GB for the companion
MAX_QUADRATURE_ORDER = 1024

# CODATA 2018
C_SI = 2.99792458e8          # speed of light, m/s
EPS0_SI = 8.8541878128e-12   # vacuum permittivity, F/m
HBAR_SI = 1.054571817e-34    # reduced Planck constant, J s


#: Unit tags accepted by :meth:`UnitSystem.to_internal` and :meth:`UnitSystem.from_internal`.
#: "dipole" is charge*length; its internal scale sqrt(eps0*hbar*c)*L0 makes
#: decay rates come out in units of c/L0.
UNIT_KINDS = ("length", "frequency", "rate", "dipole")


@dataclass(frozen=True)
class UnitSystem:
    """Input unit convention of a scene.

    mode "natural": all quantities are already internal (lengths in L0,
    frequencies in c/L0); conversions are the identity and exactly
    round-trip.  mode "SI": lengths in meters, frequencies in rad/s,
    dipoles in C*m, and L0 is the reference length in meters.
    """

    mode: str = "natural"
    L0: float = 1.0

    def __post_init__(self):
        if self.mode not in ("SI", "natural"):
            raise ValueError(f"unknown unit mode {self.mode!r} (expected 'SI' or 'natural')")
        if not self.L0 > 0.0:
            raise ValueError("reference length L0 must be strictly positive")

    def _scale(self, kind: str) -> float:
        """Multiplicative factor taking an SI value to its internal value."""
        if kind == "length":
            return 1.0 / self.L0
        if kind in ("frequency", "rate"):
            return self.L0 / C_SI
        if kind == "dipole":
            return 1.0 / ((EPS0_SI * HBAR_SI * C_SI) ** 0.5 * self.L0)
        raise ValueError(f"unknown unit tag {kind!r} (expected one of {UNIT_KINDS})")

    def to_internal(self, value, kind: str):
        """Convert a physical quantity to the internal natural-unit value."""
        scale = self._scale(kind)
        if self.mode == "natural":
            return value
        return value * scale

    def from_internal(self, value, kind: str):
        """Inverse of :meth:`to_internal`."""
        scale = self._scale(kind)
        if self.mode == "natural":
            return value
        return value / scale

