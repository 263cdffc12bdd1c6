import numpy as np
import pytest

from greenvox import UnitSystem
from greenvox.constants import C_SI, EPS0_SI, HBAR_SI, UNIT_KINDS
from greenvox.ldos import vacuum_decay_rate


def test_natural_mode_is_identity():
    u = UnitSystem(mode="natural", L0=3.5)
    assert u.to_internal(1.0, "length") == 1.0
    assert u.to_internal(2.25, "frequency") == 2.25


def test_si_length_and_frequency_definitions():
    u = UnitSystem(mode="SI", L0=2.0)
    # one reference length maps to 1.0
    assert u.to_internal(2.0, "length") == 1.0
    # omega = c / L0 maps to 1.0 internal
    assert u.to_internal(C_SI / 2.0, "frequency") == pytest.approx(1.0, rel=1e-15)


def test_round_trip_property():
    rng = np.random.default_rng(7)
    u = UnitSystem(mode="SI", L0=1.7e-6)
    for kind in UNIT_KINDS:
        vals = rng.lognormal(mean=0.0, sigma=8.0, size=32)
        back = u.from_internal(u.to_internal(vals, kind), kind)
        assert np.allclose(back, vals, rtol=1e-14)


def test_unknown_unit_tag_rejected():
    u = UnitSystem(mode="SI", L0=1.0)
    with pytest.raises(ValueError, match="unknown unit tag"):
        u.to_internal(1.0, "furlong")


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        UnitSystem(mode="cgs")


def test_natural_vacuum_decay_rate_form():
    # Gamma_0 = w^3 |d|^2 / (3 pi) exactly in natural units
    w, d = 1.7, np.array([0.2, -0.4, 1.1])
    assert vacuum_decay_rate(w, d) == pytest.approx(w**3 * (d @ d) / (3 * np.pi), rel=1e-15)


def test_si_dipole_scale_consistent_with_decay_rate():
    """Gamma_0 computed internally from converted inputs equals the SI formula."""
    u = UnitSystem(mode="SI", L0=1e-6)
    omega_si = 2.4e15           # rad/s
    d_si = 3.2e-29              # C m
    gamma_si = omega_si**3 * d_si**2 / (3 * np.pi * EPS0_SI * HBAR_SI * C_SI**3)
    w = u.to_internal(omega_si, "frequency")
    d = u.to_internal(d_si, "dipole")
    gamma_int = vacuum_decay_rate(w, [d, 0.0, 0.0])
    assert u.from_internal(gamma_int, "rate") == pytest.approx(gamma_si, rel=1e-12)
