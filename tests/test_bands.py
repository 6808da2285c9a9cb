import json
import math
import warnings
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from triband import bands
from triband.bands import (
    band_eigenfunction,
    band_sweep,
    classify_flat,
    dispersion_bands,
    panel_class,
)
from triband.model import REDUCE_RTOL, SQRT2, DomainError, PotentialConfig


def reference_bands(cfg, k):
    """(e_minus, e_mid, e_plus, k, flat_flag) at one k, solved the way
    dispersion_bands did one k at a time: sorted closed forms on the planes,
    np.roots plus accepted-only Newton polish elsewhere."""
    k2 = float(k) * float(k)
    if cfg.on_plane_a(REDUCE_RTOL):
        e0, center, half = cfg.v2, cfg.v2, 0.5 * (cfg.v1 - cfg.v3)
    elif cfg.on_plane_b(REDUCE_RTOL):
        e0, center, half = cfg.v1, 0.5 * (cfg.v1 + cfg.v2), 0.5 * (cfg.v1 - cfg.v2)
    else:
        e0 = None
    if e0 is not None:
        r = np.sqrt(k2 + half * half)
        return (*sorted([center - r, float(e0), center + r]), float(k), True)
    v1, v2, v3, va = cfg.v1, cfg.v2, cfg.v3, cfg.va
    coeffs = (1.0, -(v1 + v2 + v3), v1 * v2 + v1 * v3 + v2 * v3 - k2, -v1 * v2 * v3 + k2 * va)
    roots = np.roots(coeffs)
    scale = max(1.0, abs(coeffs[1]), abs(coeffs[2]), abs(coeffs[3]))
    assert np.max(np.abs(roots.imag)) <= 1e-5 * max(1.0, np.max(np.abs(roots.real)))
    e = np.sort(roots.real)
    c3, c2, c1, c0 = coeffs

    def poly(x):
        return ((c3 * x + c2) * x + c1) * x + c0

    p = poly(e)
    for _ in range(2):
        dp = (3.0 * c3 * e + 2.0 * c2) * e + c1
        step = np.where(dp != 0, p / np.where(dp == 0, 1.0, dp), 0.0)
        step = np.clip(step, -0.1 * scale, 0.1 * scale)
        trial = e - step
        p_trial = poly(trial)
        better = np.abs(p_trial) < np.abs(p)
        e = np.where(better, trial, e)
        p = np.where(better, p_trial, p)
    order = np.argsort(e)
    e, p = e[order], p[order]
    fscale = 1.0 + np.abs((e - cfg.v1) * (e - cfg.v2) * (e - cfg.v3))
    assert not np.any(np.abs(p) > 1e-8 * np.maximum(fscale, scale))
    return (float(e[0]), float(e[1]), float(e[2]), float(k), False)


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
    cfg = PotentialConfig(0, 0, 0)
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
        tr = dispersion_bands(PotentialConfig(v, v, v), k)
        ref = np.sqrt(k * k + 1.0)
        assert tr.e_minus == pytest.approx(v - ref, abs=1e-10)
        assert tr.e_mid == pytest.approx(v, abs=1e-10)
        assert tr.e_plus == pytest.approx(v + ref, abs=1e-10)


def test_plane_a_band_formula():
    # V11 + V33 = 2 V22: dispersive bands at v2 +- sqrt(k^2 + ((v1-v3)/2)^2)
    cfg = PotentialConfig(1.0, 0.75, 0.5)
    assert classify_flat(cfg).on_a
    half = 0.5 * (cfg.v1 - cfg.v3)
    for k in (0.3, 1.0, 4.0):
        tr = dispersion_bands(cfg, k)
        ref = np.sqrt(k * k + half * half)
        assert tr.e_plus == pytest.approx(cfg.v2 + ref, abs=1e-11)
        assert tr.e_minus == pytest.approx(cfg.v2 - ref, abs=1e-11)
        assert tr.e_mid == pytest.approx(cfg.v2, abs=1e-11)


def test_classify_flat_examples():
    flat = classify_flat(PotentialConfig(2.0, 2.0, 2.0))
    assert flat.on_a and not flat.on_b and flat.flat_energy == pytest.approx(2.0)
    flat = classify_flat(PotentialConfig(-1.0 + 0.3, 0.77, 1.0 + 0.3))
    assert flat.on_b and flat.flat_energy == pytest.approx(0.3)
    flat = classify_flat(PotentialConfig(0.3, 0.9, 0.2))
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
    mk = PotentialConfig.from_renormalized
    assert panel_class(mk(0.0, -5.0, 1.0)) == "a"
    assert panel_class(mk(0.0, 0.0, 1.0)) == "b"
    assert panel_class(mk(0.0, 0.2, 1.0)) == "c"
    assert panel_class(mk(0.0, 0.5, 1.0)) == "d"
    assert panel_class(mk(0.0, 0.8, 1.0)) == "e"
    assert panel_class(mk(0.0, 1.0, 1.0)) == "f"
    assert panel_class(mk(0.0, 5.0, 1.0)) == "g"
    assert panel_class(mk(1.0, -5.0, 1.0)) == "h"
    assert panel_class(mk(1.0, 5.0, 1.0)) == "i"
    assert panel_class(mk(1.0, 1.0, 1.0)) == "j"
    # order of v1, v3 must not matter
    assert panel_class(mk(1.0, -5.0, 0.0)) == "a"


def test_band_sweep_annotates_panel(monkeypatch):
    calls, solve = [], bands.dispersion_bands

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(bands, "dispersion_bands", counted)
    k = np.linspace(-5, 5, 41)
    sweep = band_sweep(PotentialConfig(3.0, 1.5, 0.0), k)
    assert len(calls) == 1  # the whole grid in one call
    assert np.array_equal(sweep.bands.k, k)
    for energies in (sweep.bands.e_minus, sweep.bands.e_mid, sweep.bands.e_plus):
        assert energies.shape == (41,)
    assert sweep.panel in "abcdefghij"


def _reference_cases():
    rng = np.random.default_rng(15)
    cfgs = [PotentialConfig(*rng.uniform(-4, 4, size=3)) for _ in range(40)]
    for v11, v22 in rng.uniform(-4, 4, size=(4, 2)):
        cfgs.append(PotentialConfig(v11, v22, 2 * v22 - v11))  # plane A
        cfgs.append(PotentialConfig(v11, v22, v11 + 2.0))  # plane B
    # a zero v1, v2 or v3 makes c0 = 0 at k = 0, where np.roots strips it and
    # solves the 2x2 companion; the 3x3 one differs in the last bit there
    for a, b in rng.uniform(-6, 6, size=(4, 2)):
        cfgs += [PotentialConfig(-1.0, a, b), PotentialConfig(a, 0.0, b), PotentialConfig(a, b, 1.0)]
    cfgs += [
        PotentialConfig.from_renormalized(0.6, 0.6, 0.6),  # planes A and B
        PotentialConfig(0.0, 0.0, 0.0),
        PotentialConfig(-1.0, -0.0, 1.0),  # three equal zeros at k = 0, one of them -0.0
        PotentialConfig(3.0, 0.0, 0.0),
        PotentialConfig(3.0, 0.7, 0.0),
        PotentialConfig(3.0, 1.5, 0.0),
    ]
    k = np.concatenate([np.linspace(-5, 5, 101), [0.0, -0.0, 1e-9, 37.5]])
    return cfgs, k


def test_band_record_equals_the_per_k_reference_bitwise():
    # the reference is one scalar dispersion_bands call per k, so batching
    # moves no float; reference_bands is the accuracy baseline further down
    cfgs, k = _reference_cases()
    for cfg in cfgs:
        record = dispersion_bands(cfg, k)
        scalars = [dispersion_bands(cfg, x) for x in k.tolist()]
        for name in ("e_minus", "e_mid", "e_plus", "k"):
            got = getattr(record, name)
            assert got.shape == k.shape
            ref = np.array([getattr(s, name) for s in scalars])
            assert got.tobytes() == ref.tobytes(), (cfg, name)
            assert all(type(getattr(s, name)) is float for s in scalars)  # a float k gives floats
        assert record.flat_flag == reference_bands(cfg, 1.0)[4]
        assert all(s.flat_flag == record.flat_flag for s in scalars)


def _ulp_errors(roots, digits):
    """|root - reference| in units of the reference's ulp, per root."""
    return np.array([
        float(abs(Decimal(x) - Decimal(d)) / Decimal(math.ulp(float(d))))
        for x, d in zip(np.ravel(roots).tolist(), np.ravel(digits).tolist())
    ])


def test_band_roots_are_as_close_to_the_stored_40_digit_roots_as_np_roots():
    # tests/data/band_reference.json (tools/make_band_reference.py): the
    # off-plane configurations of _reference_cases at nine k.  The eigvalsh
    # roots are further from it than the np.roots ones on some roots, so the
    # rule is on the median, 90th percentile and maximum
    ref = json.loads((Path(__file__).parent / "data" / "band_reference.json").read_text())
    k = np.array(ref["k"])
    got, base = [], []
    for v in ref["configs"]:
        cfg = PotentialConfig(*v)
        record = dispersion_bands(cfg, k)
        assert not record.flat_flag
        got.append(np.column_stack([record.e_minus, record.e_mid, record.e_plus]))
        base.append([reference_bands(cfg, x)[:3] for x in k])
    with localcontext() as ctx:
        ctx.prec = 60
        errors = [_ulp_errors(roots, ref["roots"]) for roots in (got, base)]
    new, old = (np.array([np.median(e), np.percentile(e, 90), e.max()]) for e in errors)
    assert np.all(new <= old), (new, old)
    assert np.all(new < [0.3, 1.0, 40.0]), new


@pytest.mark.parametrize(
    "k", [1e300, -(2.0**512), np.inf, np.nan, np.array([0.0, 1.0, 2.0**512])]
)
@pytest.mark.parametrize("cfg", [PotentialConfig(3.0, 0.7, 0.0), PotentialConfig(3.0, 1.5, 0.0)])
def test_overflowing_k_squared_is_a_domain_error(cfg, k):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no RuntimeWarning on the way
        with pytest.raises(DomainError, match="k\\^2 is not finite"):
            dispersion_bands(cfg, k)


def test_largest_k_below_the_bound_has_bands():
    # 2^512 is the exact bound: the largest float below it has a finite square
    largest = np.nextafter(2.0**512, 0.0)
    assert np.isfinite(dispersion_bands(PotentialConfig(3.0, 1.5, 0.0), largest).e_plus)
    # off the planes the roots are polished on the cubic divided by 1 + k^2,
    # which overflows nowhere below the bound
    cfg = PotentialConfig(3.0, 0.7, 0.0)
    for k in (1e103, 1e150, largest):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = dispersion_bands(cfg, k)
        assert np.all(np.isfinite([tr.e_minus, tr.e_mid, tr.e_plus]))
        assert tr.e_minus <= tr.e_mid <= tr.e_plus
        assert abs(tr.e_mid - cfg.va) <= 1e-12
        assert abs(tr.e_plus / abs(k) - 1.0) <= 1e-12


@given(
    v11=st.floats(-4, 4), v22=st.floats(-4, 4), v33=st.floats(-4, 4), k=st.floats(-6, 6)
)
@settings(max_examples=200, deadline=None)
def test_band_roots_satisfy_dispersion(v11, v22, v33, k):
    cfg = PotentialConfig(v11, v22, v33)
    tr = dispersion_bands(cfg, k)
    for e in (tr.e_minus, tr.e_mid, tr.e_plus):
        f = (e - cfg.v1) * (e - cfg.v2) * (e - cfg.v3)
        assert abs(f - (e - cfg.va) * (k * k)) < 1e-10 * (1.0 + abs(f))


def test_free_particle_hole_symmetry():
    cfg = PotentialConfig(0, 0, 0)
    for k in np.linspace(-4, 4, 17):
        tr = dispersion_bands(cfg, k)
        triple = (tr.e_minus, tr.e_mid, tr.e_plus)
        up = np.sort(triple)
        dn = np.sort([-e for e in triple])
        assert np.max(np.abs(up - dn)) < 1e-12


def test_flat_band_invariance_on_planes():
    rng = np.random.default_rng(3)
    ks = np.linspace(-5, 5, 100)
    for _ in range(20):
        v11, v22 = rng.uniform(-4, 4, size=2)
        cfg_a = PotentialConfig(v11, v22, 2 * v22 - v11)
        for k in ks[::7]:
            assert dispersion_bands(cfg_a, k).e_mid == pytest.approx(v22, abs=1e-11)
        v11, v22 = rng.uniform(-4, 4, size=2)
        cfg_b = PotentialConfig(v11, v22, v11 + 2.0)
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
        cfg = PotentialConfig(*rng.uniform(-3, 3, size=3))
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
    cfg = PotentialConfig(1.0, 0.75, 0.5)
    sig = band_eigenfunction(cfg, 1.1, "0")
    assert eigenvector_system_residual(cfg, 1.1, sig) < 1e-12
