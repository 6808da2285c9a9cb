import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from triband.boundstates import ConnectionMatrix, find_bound_states, general_bound_condition
from triband.model import (
    GapEdge,
    Geometry,
    PoleAtVa,
    PotentialConfig,
    k_squared,
    kappa,
    sc_kernels,
)
from triband.verify import random_configs


def test_renormalization_identities():
    cfg = PotentialConfig(0.7, -1.2, 2.5, m=1.3)
    assert cfg.v1 - cfg.v11 == cfg.m
    assert cfg.v33 - cfg.v3 == cfg.m
    assert cfg.va == 0.5 * (cfg.v1 + cfg.v3)


def test_mass_must_be_positive():
    with pytest.raises(ValueError):
        PotentialConfig(0, 0, 0, m=-1.0)
    with pytest.raises(ValueError):
        Geometry(1.0, 0.5)


def test_k_squared_free_particle_gap():
    cfg = PotentialConfig(0, 0, 0, 1.0)
    assert k_squared(cfg, 0.5) == pytest.approx(-0.75, abs=1e-14)


def test_k_squared_equal_renormalized_strengths():
    # v1 = v2 = v3 = V collapses to (E - V)^2
    cfg = PotentialConfig.from_renormalized(0.4, 0.4, 0.4)
    for e in (-0.9, -0.1, 0.39, 0.8):
        assert k_squared(cfg, e) == pytest.approx((e - 0.4) ** 2, rel=1e-12)


def test_k_squared_pole_raises():
    cfg = PotentialConfig(1.0, 0.3, -0.2, 1.0)
    assert abs(cfg.v2 - cfg.va) > 1e-6  # off the removable-pole plane
    with pytest.raises(PoleAtVa):
        k_squared(cfg, cfg.va)


@given(
    v11=st.floats(-5, 5),
    v22=st.floats(-5, 5),
    v33=st.floats(-5, 5),
    e=st.floats(-0.95, 0.95),
)
@settings(max_examples=200, deadline=None)
def test_k_squared_solves_dispersion_identity(v11, v22, v33, e):
    cfg = PotentialConfig(v11, v22, v33, 1.0)
    if abs(e - cfg.va) < 1e-3 or abs(cfg.v2 - cfg.va) < 1e-6:
        return
    k2 = k_squared(cfg, e)
    # the cubic dispersion relation (E - v1)(E - v2)(E - v3) = (E - va) k^2
    f = (e - cfg.v1) * (e - cfg.v2) * (e - cfg.v3)
    assert abs(f - (e - cfg.va) * k2) < 1e-12 * (1.0 + abs(f))


def test_level_fields_satisfy_rho_kappa_identities():
    checked = 0
    for m in (1.0, 2.5):
        for cfg, geom in random_configs(42, 20, m=m):
            for sol in find_bound_states(cfg, geom):
                e = sol.energy
                assert sol.kappa == kappa(e, m)
                assert sol.rho * sol.rho == pytest.approx((m - e) / (m + e), rel=1e-13)
                rho_inv = 1.0 / sol.rho
                assert rho_inv - sol.rho == pytest.approx(2 * e / sol.kappa, rel=1e-13, abs=1e-13)
                assert rho_inv + sol.rho == pytest.approx(2 * m / sol.kappa, rel=1e-13)
                checked += 1
    assert checked > 100


def test_energy_point_identity_bulk():
    rng = np.random.default_rng(17)
    e = rng.uniform(-0.999, 0.999, size=10_000)
    kap = kappa(e)
    rho = np.sqrt((1.0 - e) / (1.0 + e))
    assert np.max(np.abs((1.0 / rho - rho) - 2.0 * e / kap) * kap) < 1e-13 * 2.0
    assert np.max(np.abs((1.0 / rho + rho) * kap - 2.0)) < 1e-13 * 2.0


def test_energy_point_outside_gap_rejected():
    lam = ConnectionMatrix(1.0, 0.0, 0.0, 1.0)
    for e in (1.0, -1.0, 1.5):
        with pytest.raises(GapEdge):
            general_bound_condition(lam, e)


@given(w=st.floats(-400, 400), t=st.floats(-3, 3))
@settings(max_examples=300, deadline=None)
def test_sc_kernels_pythagorean_identity(w, t):
    # c^2 + w s^2 = 1 exactly; for w < 0 the two huge hyperbolic terms cancel,
    # so the error must be measured relative to their size
    s, c = sc_kernels(w, t)
    assert abs(c * c + w * s * s - 1.0) <= 1e-12 * max(1.0, c * c)


def test_sc_kernels_match_trig_and_hyperbolic():
    s, c = sc_kernels(4.0, 0.7)
    assert s == pytest.approx(np.sin(2 * 0.7) / 2.0, rel=1e-14)
    assert c == pytest.approx(np.cos(2 * 0.7), rel=1e-14)
    s, c = sc_kernels(-9.0, 0.4)
    assert s == pytest.approx(np.sinh(3 * 0.4) / 3.0, rel=1e-14)
    assert c == pytest.approx(np.cosh(3 * 0.4), rel=1e-14)
