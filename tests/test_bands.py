import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from triband.bands import (
    band_eigenfunction,
    band_sweep,
    classify_flat,
    dispersion_bands,
    panel_class,
)
from triband.model import SQRT2, PotentialConfig


def eigenvector_system_residual(cfg, k, sig):
    """Max residual of the three-component system for col(-sigma1, 1, sigma3) e^{ikx}.

    Plane-wave substitution turns the system into three linear relations; the
    derivative brings down ik per component.  Certifies that returned
    coefficients are genuine eigenvectors.
    """
    a1, a2, a3 = -1j * sig.sigma1, 1.0 + 0j, 1j * sig.sigma3
    e = sig.energy
    r1 = -1j * k * a2 / SQRT2 - (e - cfg.v1) * a1
    r2 = 1j * k * (a1 - a3) / SQRT2 - (e - cfg.v2) * a2
    r3 = 1j * k * a2 / SQRT2 - (e - cfg.v3) * a3
    return float(max(abs(r1), abs(r2), abs(r3)))


def test_free_particle_bands():
    cfg = PotentialConfig(0, 0, 0, 1.0)
    for k in (0.0, 0.5, 2.0, -3.7):
        tr = dispersion_bands(cfg, k)
        ref = np.sqrt(k * k + 1.0)
        assert tr.e_minus == pytest.approx(-ref, abs=1e-12)
        assert tr.e_mid == pytest.approx(0.0, abs=1e-12)
        assert tr.e_plus == pytest.approx(ref, abs=1e-12)
        assert tr.flat_flag


def test_uniform_shift_bands():
    rng = np.random.default_rng(11)
    for _ in range(10):
        v = rng.uniform(-4, 4)
        k = rng.uniform(-5, 5)
        tr = dispersion_bands(PotentialConfig(v, v, v, 1.0), k)
        ref = np.sqrt(k * k + 1.0)
        assert tr.e_minus == pytest.approx(v - ref, abs=1e-10)
        assert tr.e_mid == pytest.approx(v, abs=1e-10)
        assert tr.e_plus == pytest.approx(v + ref, abs=1e-10)


def test_plane_a_band_formula():
    # V11 + V33 = 2 V22: dispersive bands at v2 +- sqrt(k^2 + ((v1-v3)/2)^2)
    cfg = PotentialConfig(1.0, 0.75, 0.5, 1.0)
    assert classify_flat(cfg).on_a
    half = 0.5 * (cfg.v1 - cfg.v3)
    for k in (0.3, 1.0, 4.0):
        tr = dispersion_bands(cfg, k)
        ref = np.sqrt(k * k + half * half)
        assert tr.e_plus == pytest.approx(cfg.v2 + ref, abs=1e-11)
        assert tr.e_minus == pytest.approx(cfg.v2 - ref, abs=1e-11)
        assert tr.e_mid == pytest.approx(cfg.v2, abs=1e-11)


def test_classify_flat_examples():
    flat = classify_flat(PotentialConfig(2.0, 2.0, 2.0, 1.0))
    assert flat.on_a and not flat.on_b and flat.flat_energy == pytest.approx(2.0)
    flat = classify_flat(PotentialConfig(-1.0 + 0.3, 0.77, 1.0 + 0.3, 1.0))
    assert flat.on_b and flat.flat_energy == pytest.approx(0.3)
    flat = classify_flat(PotentialConfig(0.3, 0.9, 0.2, 1.0))
    assert not flat.on_a and not flat.on_b and flat.flat_energy is None


def test_intersection_line_membership():
    # v1 = v2 = v3: both planes, gapless bands E0 +- |k|
    cfg = PotentialConfig.from_renormalized(0.6, 0.6, 0.6)
    flat = classify_flat(cfg)
    assert flat.on_a and flat.on_b and flat.flat_energy == pytest.approx(0.6)
    tr = dispersion_bands(cfg, 1.7)
    assert tr.e_plus == pytest.approx(0.6 + 1.7, abs=1e-10)
    assert tr.e_minus == pytest.approx(0.6 - 1.7, abs=1e-10)


def test_panel_classes():
    m = 1.0
    mk = PotentialConfig.from_renormalized
    assert panel_class(mk(0.0, -5.0, 1.0, m)) == "a"
    assert panel_class(mk(0.0, 0.0, 1.0, m)) == "b"
    assert panel_class(mk(0.0, 0.2, 1.0, m)) == "c"
    assert panel_class(mk(0.0, 0.5, 1.0, m)) == "d"
    assert panel_class(mk(0.0, 0.8, 1.0, m)) == "e"
    assert panel_class(mk(0.0, 1.0, 1.0, m)) == "f"
    assert panel_class(mk(0.0, 5.0, 1.0, m)) == "g"
    assert panel_class(mk(1.0, -5.0, 1.0, m)) == "h"
    assert panel_class(mk(1.0, 5.0, 1.0, m)) == "i"
    assert panel_class(mk(1.0, 1.0, 1.0, m)) == "j"
    # order of v1, v3 must not matter
    assert panel_class(mk(1.0, -5.0, 0.0, m)) == "a"


def test_band_sweep_annotates_panel():
    sweep = band_sweep(PotentialConfig(3.0, 1.5, 0.0, 1.0), np.linspace(-5, 5, 41))
    assert len(sweep.triples) == 41
    assert sweep.panel in "abcdefghij"


@given(
    v11=st.floats(-4, 4), v22=st.floats(-4, 4), v33=st.floats(-4, 4), k=st.floats(-6, 6)
)
@settings(max_examples=200, deadline=None)
def test_band_roots_satisfy_dispersion(v11, v22, v33, k):
    cfg = PotentialConfig(v11, v22, v33, 1.0)
    tr = dispersion_bands(cfg, k)
    for e in tr.as_tuple():
        f = (e - cfg.v1) * (e - cfg.v2) * (e - cfg.v3)
        assert abs(f - (e - cfg.va) * (k * k)) < 1e-10 * (1.0 + abs(f))


def test_free_particle_hole_symmetry():
    cfg = PotentialConfig(0, 0, 0, 1.0)
    for k in np.linspace(-4, 4, 17):
        tr = dispersion_bands(cfg, k)
        up = np.sort(tr.as_tuple())
        dn = np.sort([-e for e in tr.as_tuple()])
        assert np.max(np.abs(up - dn)) < 1e-12


def test_flat_band_invariance_on_planes():
    rng = np.random.default_rng(3)
    ks = np.linspace(-5, 5, 100)
    for _ in range(20):
        v11, v22 = rng.uniform(-4, 4, size=2)
        cfg_a = PotentialConfig(v11, v22, 2 * v22 - v11, 1.0)
        for k in ks[::7]:
            assert dispersion_bands(cfg_a, k).e_mid == pytest.approx(v22, abs=1e-11)
        v11, v22 = rng.uniform(-4, 4, size=2)
        cfg_b = PotentialConfig(v11, v22, v11 + 2.0, 1.0)
        for k in ks[::7]:
            assert dispersion_bands(cfg_b, k).e_mid == pytest.approx(v11 + 1.0, abs=1e-11)


def test_middle_band_flattens_toward_plane_a():
    # max deviation of the middle band from v2 shrinks as v2 -> va, from
    # either side
    ks = np.linspace(-5, 5, 100)
    base = PotentialConfig.from_renormalized(-0.5, 0.0, 1.5)
    for side in (+1.0, -1.0):
        deviations = []
        for eps in (0.4, 0.1, 0.025):
            cfg = PotentialConfig.from_renormalized(-0.5, base.va + side * eps, 1.5)
            dev = max(abs(dispersion_bands(cfg, k).e_mid - cfg.v2) for k in ks)
            deviations.append(dev)
        assert deviations[0] > deviations[1] > deviations[2]


def test_eigenvector_residuals_dispersive():
    rng = np.random.default_rng(5)
    for _ in range(20):
        cfg = PotentialConfig(*rng.uniform(-3, 3, size=3), 1.0)
        k = rng.uniform(0.2, 4.0)
        for branch in ("+", "-", "0"):
            if branch == "0" and classify_flat(cfg).on_b:
                continue  # flat eigenvector there is psi2-free, handled below
            sig = band_eigenfunction(cfg, k, branch)
            assert eigenvector_system_residual(cfg, k, sig) < 1e-10


def test_eigenvector_on_intersection_line():
    cfg = PotentialConfig.from_renormalized(0.5, 0.5, 0.5)
    for k in (1.3, -2.1):
        plus = band_eigenfunction(cfg, k, "+")
        minus = band_eigenfunction(cfg, k, "-")
        ref = np.sign(k) / np.sqrt(2.0)
        assert plus.sigma1 == pytest.approx(ref, rel=1e-12)
        assert plus.sigma3 == pytest.approx(ref, rel=1e-12)
        assert minus.sigma1 == pytest.approx(-ref, rel=1e-12)
        flat = band_eigenfunction(cfg, k, "0")
        assert flat.sigma1 == 0.0 and flat.sigma3 == 0.0


def test_flat_eigenvector_plane_a_satisfies_system():
    cfg = PotentialConfig(1.0, 0.75, 0.5, 1.0)
    sig = band_eigenfunction(cfg, 1.1, "0")
    assert eigenvector_system_residual(cfg, 1.1, sig) < 1e-12
