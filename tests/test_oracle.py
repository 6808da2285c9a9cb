import numpy as np
import pytest

from triband import oracle
from triband.boundstates import find_bound_states
from triband.model import Geometry, PotentialConfig, k_squared, kappa
from triband.oracle import oracle_bound_states, resolvable_va_window
from triband.verify import comparison_domain, crosscheck_config

FIG3_CFG = PotentialConfig(3.0, 3.0, 3.0, 1.0)
FIG3_GEOM = Geometry.centered(0.5)


def _fig3_mismatches(e):
    return oracle._parity_mismatches(FIG3_CFG, FIG3_GEOM, np.asarray(e, dtype=float), 2000)


def test_mismatch_small_at_reference_levels():
    at_levels = np.abs(_fig3_mismatches([0.5627951670674509, -0.6530593009188692]))
    # one parity vanishes at each level
    assert np.all(at_levels.min(axis=0) < 1e-9)
    # and the one that vanishes at 0.5628 changes sign across it
    ends = _fig3_mismatches([0.54, 0.58])[int(np.argmin(at_levels[:, 0]))]
    assert ends[0] * ends[1] < 0


def test_mismatch_away_from_levels():
    u, v = _fig3_mismatches([0.2])
    assert min(abs(u[0]), abs(v[0])) > 1e-2


def test_oracle_free_potential_empty():
    assert oracle_bound_states(PotentialConfig(0, 0, 0, 1.0), Geometry.centered(1.0)) == []


def test_oracle_reference_levels():
    roots = oracle_bound_states(FIG3_CFG, FIG3_GEOM)
    assert len(roots) == 2
    assert roots[0] == pytest.approx(-0.65, abs=0.01)
    assert roots[1] == pytest.approx(0.56, abs=0.01)


def test_step_halving_stability():
    for n_steps in (2000,):
        a = oracle_bound_states(FIG3_CFG, FIG3_GEOM, n_steps=n_steps)
        b = oracle_bound_states(FIG3_CFG, FIG3_GEOM, n_steps=2 * n_steps)
        assert len(a) == len(b)
        assert np.max(np.abs(np.array(a) - np.array(b))) < 1e-9


def test_oracle_matches_solver_on_middle_barrier():
    cfg = PotentialConfig(0.0, 10.0, 0.0, 1.0)
    geom = Geometry.centered(2.0)
    excl = comparison_domain(cfg, geom)
    solver = [s.energy for s in find_bound_states(cfg, geom, extra_exclusions=excl)]
    orc = oracle_bound_states(cfg, geom, extra_exclusions=excl)
    assert len(solver) == len(orc)
    assert np.max(np.abs(np.array(solver) - np.array(orc))) < 1e-8


def test_crosscheck_random_sample():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 4:
        cfg = PotentialConfig(*rng.uniform(-5, 5, size=3), 1.0)
        geom = Geometry.centered(rng.uniform(0.2, 3.0))
        ok, ns, no, diff = crosscheck_config(cfg, geom)
        assert ok, f"{cfg} {geom}: counts {ns}/{no}, diff {diff}"
        checked += 1


def test_resolvable_window_only_for_in_gap_pole():
    assert resolvable_va_window(FIG3_CFG, FIG3_GEOM) == 0.0  # va = 3 outside gap
    assert resolvable_va_window(PotentialConfig(5, 5, 5, 1.0), Geometry.centered(1.0)) == 0.0
    w = resolvable_va_window(PotentialConfig(0.0, 10.0, 0.0, 1.0), Geometry.centered(2.0))
    assert w > 0.0


def _stepwise_rk4(cfg, e, u, v, span, n_steps):
    """Reference for oracle._rk4: the explicit RK4 step loop, renormalized
    every 64 steps."""
    cu = np.sqrt(2.0) * (e - cfg.v2)
    denom = 2.0 * e - cfg.v1 - cfg.v3
    cv = -np.sqrt(2.0) * (e - cfg.v1) * (e - cfg.v3) / denom
    h = span / n_steps
    for i in range(n_steps):
        k1u, k1v = cu * v, cv * u
        k2u, k2v = cu * (v + 0.5 * h * k1v), cv * (u + 0.5 * h * k1u)
        k3u, k3v = cu * (v + 0.5 * h * k2v), cv * (u + 0.5 * h * k2u)
        k4u, k4v = cu * (v + h * k3v), cv * (u + h * k3u)
        u = u + (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        if i % 64 == 0:
            norm = np.hypot(u, v)
            u, v = u / norm, v / norm
    return u, v


def _mismatches(cfg, geom, e, n_steps):
    """Full-span cross product with the right decaying ray, then the two
    midpoint parity mismatches."""
    u, v = oracle._rk4(cfg, e, *oracle._left_ray(cfg, e), geom.l, n_steps)
    ru, rv = 2.0 * e / kappa(e, cfg.m), -np.sqrt(2.0)
    full = (u * rv - v * ru) / np.hypot(u, v) / np.hypot(ru, rv)
    return np.stack([full, *oracle._parity_mismatches(cfg, geom, e, n_steps)])


def _assert_matches_stepwise(monkeypatch, cfg, geom, e, n_steps):
    powered = _mismatches(cfg, geom, e, n_steps)
    with monkeypatch.context() as mp:
        mp.setattr(oracle, "_rk4", _stepwise_rk4)
        stepwise = _mismatches(cfg, geom, e, n_steps)
    assert np.all(np.isfinite(powered))
    assert np.max(np.abs(powered - stepwise)) <= 1e-11, (cfg, geom, n_steps)
    assert np.array_equal(np.sign(powered), np.sign(stepwise)), (cfg, geom, n_steps)


def test_powered_rk4_matches_stepwise_loop(monkeypatch):
    rng = np.random.default_rng(7)
    regimes = set()
    near_pole = 0
    for _ in range(8):
        cfg = PotentialConfig(*rng.uniform(-5, 5, size=3), 1.0)
        geom = Geometry.centered(rng.uniform(0.2, 3.0))
        e = rng.uniform(-0.999, 0.999, size=100)
        if abs(cfg.va) < 1.0:
            # |k| diverges at va.  Closer than ~1e-4 m the phase is so large
            # that both implementations round off an extended-precision
            # iterate by up to ~1e-10, so the 1e-11 bound is checked from there
            # out (levels are compared only outside resolvable_va_window)
            d = 10.0 ** rng.uniform(-4, -2, size=10)
            pole = np.concatenate([cfg.va - d, cfg.va + d])
            pole = pole[np.abs(pole) < 1.0]
            near_pole += pole.size
            e = np.concatenate([e, pole])
        regimes.update(np.unique(np.sign(k_squared(cfg, e))))
        for n_steps in (1, 2, 3, 7, 2000, 8000):
            _assert_matches_stepwise(monkeypatch, cfg, geom, e, n_steps)
    assert regimes >= {-1.0, 1.0} and near_pole > 0
    # kappa ~ 40, so kappa l ~ 800: the unscaled growth e^800 overflows doubles
    cfg = PotentialConfig(40.0, -40.0, 40.0, 1.0)
    e = np.linspace(-0.99, 0.99, 41)
    assert np.all(k_squared(cfg, e) < -1500.0)
    _assert_matches_stepwise(monkeypatch, cfg, Geometry.centered(20.0), e, 2000)
