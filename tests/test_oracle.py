import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from triband import oracle, verify
from triband.boundstates import find_bound_states
from triband.model import Geometry, PotentialConfig, k_squared, kappa
from triband.oracle import oracle_bound_states
from triband.verify import comparison_domain, crosscheck_config, random_configs

FIG3_CFG = PotentialConfig(3.0, 3.0, 3.0)
FIG3_GEOM = Geometry.centered(0.5)
POOL_REFS = Path(__file__).resolve().parents[1] / "perfbench" / "refs" / "solve_pool.json"


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
    assert oracle_bound_states(PotentialConfig(0, 0, 0), Geometry.centered(1.0)) == []


def test_oracle_options_are_keyword_only():
    # the scan runs on boundstates.N_GRID points, the resolution that
    # verify.comparison_domain sizes its windows for; n_steps and
    # extra_exclusions are given by keyword
    with pytest.raises(TypeError):
        oracle_bound_states(FIG3_CFG, FIG3_GEOM, 2000)


def test_oracle_reference_levels():
    roots = oracle_bound_states(FIG3_CFG, FIG3_GEOM)
    assert len(roots) == 2
    assert roots[0] == pytest.approx(-0.65, abs=0.01)
    assert roots[1] == pytest.approx(0.56, abs=0.01)


def test_step_halving_stability():
    # fig3 lies on the flat-band planes; random_configs(42, 4)[1] and [3] put
    # va, the pole of k^2, in the gap, and are compared outside its window.
    # 2000 steps agree with 4000 to 1e-9, 2^17 with 2^18 to rounding
    cases = [(FIG3_CFG, FIG3_GEOM)] + [random_configs(42, 4)[i] for i in (1, 3)]
    for cfg, geom in cases:
        excl = comparison_domain(cfg, geom)
        for n_steps, tol in ((2000, 1e-9), (2**17, 1e-13)):
            a = oracle_bound_states(cfg, geom, n_steps=n_steps, extra_exclusions=excl)
            b = oracle_bound_states(cfg, geom, n_steps=2 * n_steps, extra_exclusions=excl)
            assert len(a) == len(b), (cfg, n_steps)
            assert np.max(np.abs(np.array(a) - np.array(b))) < tol, (cfg, n_steps)


def test_mismatches_stay_finite_next_to_va():
    # within 1e-4 of va on its k^2 > 0 side the one-step phase is large, and
    # a one-step normalizer below the spectral radius (|p| + |q| sqrt|c|)
    # lets its powers underflow from 8000 steps on
    d = np.logspace(-7, -4, 31)
    for cfg, _ in random_configs(42, 300):
        e = np.concatenate([cfg.va - d, cfg.va + d])
        if abs(cfg.va) < 0.9 and np.count_nonzero(k_squared(cfg, e) > 0) >= 10:
            break
    e = e[k_squared(cfg, e) > 0]
    assert e.size >= 10
    for n_steps in (2000, 8000, 2**17):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            u, v = oracle._parity_mismatches(cfg, Geometry.centered(3.0), e, n_steps)
        assert np.all(np.isfinite(u)) and np.all(np.isfinite(v)), n_steps
        assert np.allclose(np.hypot(u, v), 1.0, rtol=0.0, atol=1e-15), n_steps


def test_oracle_matches_solver_on_middle_barrier():
    cfg = PotentialConfig(0.0, 10.0, 0.0)
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
        cfg = PotentialConfig(*rng.uniform(-5, 5, size=3))
        geom = Geometry.centered(rng.uniform(0.2, 3.0))
        ok, ns, no, diff = crosscheck_config(cfg, geom)
        assert ok, f"{cfg} {geom}: counts {ns}/{no}, diff {diff}"
        checked += 1


def test_comparison_domain_windows_the_crowded_levels():
    # on plane A (v2 = va) k^2 has no pole at va: nothing to leave out
    assert comparison_domain(FIG3_CFG, FIG3_GEOM) == []
    assert comparison_domain(PotentialConfig(5, 5, 5), Geometry.centered(1.0)) == []
    # the middle barrier's family accumulates at va = 0
    [(lo, hi)] = comparison_domain(PotentialConfig(0.0, 10.0, 0.0), Geometry.centered(2.0))
    assert lo == -hi and 0.0 < hi < 0.5
    # the windows the benchmark references were computed on
    pool = json.loads(POOL_REFS.read_text())["configs"]
    for ref in pool[:4]:
        cfg, geom = PotentialConfig(*ref["v"]), Geometry.centered(ref["l"])
        assert comparison_domain(cfg, geom) == [tuple(w) for w in ref["exclude"]]
    # va just outside the gap: the family crowds at the nearer gap edge,
    # and the window, clipped to the gap, reaches into it from there
    for seed, index, edge in ((3, 233, -1.0), (7, 163, 1.0)):
        cfg, geom = random_configs(seed, 300)[index]
        assert 1.0 < abs(cfg.va) < 1.001
        [window] = comparison_domain(cfg, geom)
        assert edge in window and abs(window[1] - window[0]) < 0.1


@pytest.mark.parametrize("seed, index", [(3, 233), (7, 163)])
def test_crosscheck_agrees_with_va_just_outside_the_gap(seed, index):
    cfg, geom = random_configs(seed, 300)[index]
    ok, ns, no, diff = crosscheck_config(cfg, geom)
    assert ok, f"{cfg} {geom}: counts {ns}/{no}, diff {diff}"
    assert ns > 10


def test_oracle_agreement_names_the_excluded_windows(monkeypatch):
    domains = [comparison_domain(cfg, geom) for cfg, geom in random_configs(42, 20)]
    widest = max((hi - lo, i) for i, d in enumerate(domains) for lo, hi in d)[1]
    ok, detail = verify.check_oracle_agreement(seed=42, cases=20)
    assert ok
    assert f"; {sum(map(bool, domains))} compared outside a window, widest (" in detail
    assert detail.endswith(f" at case {widest}")
    # a mismatch line names the window of its configuration
    [(lo, hi)] = domains[widest]
    calls = iter(range(20))
    monkeypatch.setattr(
        verify, "_crosscheck", lambda cfg, geom, excl: (next(calls) < widest, 3, 2, np.inf)
    )
    ok, detail = verify.check_oracle_agreement(seed=42, cases=20)
    assert not ok and detail.startswith(f"mismatch at case {widest} (V = ")
    assert detail.endswith(f"counts 3/2, diff inf, excluded windows: ({lo:.6g}, {hi:.6g})")


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
    u, v = oracle._rk4(cfg, e, *oracle._left_ray(e), geom.l, n_steps)
    ru, rv = 2.0 * e / kappa(e), -np.sqrt(2.0)
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
        cfg = PotentialConfig(*rng.uniform(-5, 5, size=3))
        geom = Geometry.centered(rng.uniform(0.2, 3.0))
        e = rng.uniform(-0.999, 0.999, size=100)
        if abs(cfg.va) < 1.0:
            # |k| diverges at va.  Closer than ~1e-4 m the phase is so large
            # that both implementations round off an extended-precision
            # iterate by up to ~1e-10, so the 1e-11 bound is checked from there
            # out (levels are compared only outside comparison_domain)
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
    cfg = PotentialConfig(40.0, -40.0, 40.0)
    e = np.linspace(-0.99, 0.99, 41)
    assert np.all(k_squared(cfg, e) < -1500.0)
    _assert_matches_stepwise(monkeypatch, cfg, Geometry.centered(20.0), e, 2000)
