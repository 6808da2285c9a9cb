import math
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from triband import rootfind
from triband.boundstates import (
    EDGE_MARGIN,
    ROOT_XTOL,
    VA_WINDOW,
    ZERO_WINDOW,
    _ScanResiduals,
    _form,
    _scan_brackets,
    boundary_values,
    connection_matrix,
    current,
    discontinuities,
    eigenfunction,
    find_bound_states,
    general_bound_condition,
    scan_segments,
    split_residuals,
    ConnectionMatrix,
    Levels,
    WaveFunction,
)
from triband.model import (
    REDUCE_RTOL,
    Geometry,
    OutOfDomainSolution,
    PoleAtVa,
    PotentialConfig,
    kappa,
    sc_kernels,
)
from triband.spectra import PencilSpec, sweep
from triband.verify import comparison_domain, random_configs

from refine_reference import ref_refine

FIG3_CFG = PotentialConfig(3.0, 3.0, 3.0)
FIG3_GEOM = Geometry.centered(0.5)


def _matrix(lam):
    return np.array([[lam.l11, lam.l12], [lam.l21, lam.l22]])


def test_connection_matrix_width_zero_is_identity():
    cfg = PotentialConfig(1.0, -2.0, 0.5)
    lam = connection_matrix(cfg, Geometry.centered(1e-12), 0.4)
    assert np.allclose(_matrix(lam), np.eye(2), atol=1e-10)


@given(
    v11=st.floats(-5, 5),
    v22=st.floats(-5, 5),
    v33=st.floats(-5, 5),
    e=st.floats(-0.99, 0.99),
    l=st.floats(0.05, 4.0),
)
@example(v11=0.0, v22=1.0, v33=0.0, e=-1e-5, l=4.0)  # cosh overflows: z ~ 1265
@settings(max_examples=300, deadline=None)
def test_connection_matrix_unit_determinant(v11, v22, v33, e, l):
    cfg = PotentialConfig(v11, v22, v33)
    try:
        # an overflow is seen below as a non-finite determinant
        with np.errstate(over="ignore"):
            lam = connection_matrix(cfg, Geometry.centered(l), e)
    except PoleAtVa:
        return
    if not np.isfinite(lam.det):
        return  # cosh overflow for extreme evanescent widths
    scale = max(1.0, lam.l11**2, abs(lam.l12 * lam.l21))
    assert abs(lam.det - 1.0) <= 1e-12 * scale


def test_connection_matrix_regular_at_e_equal_v2():
    # l21 = -k^2 s / (sqrt(2)(E - v2)) has a removable singularity at E = v2
    cfg = PotentialConfig(1.0, 0.3, -0.5)
    geom = Geometry.centered(1.0)
    lam0 = connection_matrix(cfg, geom, cfg.v2)
    lam1 = connection_matrix(cfg, geom, cfg.v2 + 1e-9)
    assert np.allclose(_matrix(lam0), _matrix(lam1), rtol=1e-6, atol=1e-8)
    assert np.isfinite(_matrix(lam0)).all()


def test_delta_squeeze_limit_of_connection_matrix():
    # V = g/l along v11 = v22 = v33 (beta = 1): rotation-like limit matrix
    g = 1.3
    target = np.array(
        [[np.cos(g), -np.sqrt(2) * np.sin(g)], [np.sin(g) / np.sqrt(2), np.cos(g)]]
    )
    errs = []
    for l in (1e-4, 1e-6):
        cfg = PotentialConfig(g / l, g / l, g / l)
        lam = connection_matrix(cfg, Geometry.centered(l), 0.3)
        errs.append(np.max(np.abs(_matrix(lam) - target)))
    assert errs[0] < 1e-3 and errs[1] < 1e-5


def test_general_bound_condition_identity_matrix():
    lam = ConnectionMatrix(1.0, 0.0, 0.0, 1.0)
    assert general_bound_condition(lam, 0.5) == pytest.approx(2.0)


def test_general_bound_condition_point_limit_ground_state():
    # Lambda = [[1, -sqrt(2) g], [0, 1]] with E0 = g/sqrt(4+g^2) solves it
    for g in (0.5, 2.0, -3.0):
        e0 = g / np.sqrt(4.0 + g * g)
        lam = ConnectionMatrix(1.0, -np.sqrt(2.0) * g, 0.0, 1.0)
        assert abs(general_bound_condition(lam, e0)) < 1e-10


def test_split_residuals_zero_crossings_match_reported_levels():
    sols = find_bound_states(FIG3_CFG, FIG3_GEOM)
    assert len(sols) == 2
    for s in sols:
        rp, rm = split_residuals(FIG3_CFG, FIG3_GEOM, s.energy)
        r = rp if s.parity == "+" else rm
        assert abs(r) < 1e-10


def test_split_and_general_conditions_have_same_zero_sets():
    cfg = PotentialConfig(-2.0, 1.5, 1.0)
    geom = Geometry.centered(1.5)
    es = np.linspace(-0.95, 0.95, 1501)
    keep = (np.abs(es) > 1e-4) & (np.abs(es - cfg.va) > 2e-2)
    es = es[keep]
    gen = np.array([general_bound_condition(connection_matrix(cfg, geom, e), e) for e in es])
    prod = np.empty_like(gen)
    for i, e in enumerate(es):
        rp, rm = split_residuals(cfg, geom, e)
        prod[i] = rp * rm

    def roots_of(f):
        # skip sign flips whose bracket straddles a pole of either form
        # (E = 0) or the structural factor zero at E = v2
        idx = np.where(np.sign(f[:-1]) * np.sign(f[1:]) < 0)[0]
        special = (0.0, cfg.v2, cfg.va)
        return np.array(
            [
                es[i]
                for i in idx
                if not any(es[i] < c < es[i + 1] for c in special)
            ]
        )

    # r+ r- equals kappa (1 - v2/E)/2 times the general residual, so away
    # from that factor's zero/pole the sign-change sets coincide
    gen_roots = roots_of(gen)
    prod_roots = roots_of(prod)
    assert len(gen_roots) == len(prod_roots)
    assert np.max(np.abs(gen_roots - prod_roots)) < 1e-10 + 2 * (es[1] - es[0])


def test_reference_two_level_configuration():
    sols = find_bound_states(FIG3_CFG, FIG3_GEOM)
    by_parity = {s.parity: s.energy for s in sols}
    assert by_parity["+"] == pytest.approx(0.56, abs=0.01)
    assert by_parity["-"] == pytest.approx(-0.65, abs=0.01)


def test_free_potential_has_no_bound_states():
    assert len(find_bound_states(PotentialConfig(0, 0, 0), Geometry.centered(1.0))) == 0


def test_level_record_indexing():
    levels = find_bound_states(FIG3_CFG, FIG3_GEOM)
    assert isinstance(levels, Levels) and len(levels) == 2
    one = levels[1]
    for f in fields(Levels):
        assert np.ndim(getattr(one, f.name)) == 0
        assert getattr(one, f.name) == getattr(levels, f.name)[1]
    assert isinstance(one.energy, float) and isinstance(one.parity, str)
    bv = boundary_values(one, FIG3_CFG, FIG3_GEOM)
    assert {type(p) for side in bv.values() for p in side} == {float}
    plus = levels[levels.parity == "+"]
    assert len(plus) == 1 and plus.parity.tolist() == ["+"]
    assert [s.energy for s in levels] == levels.energy.tolist()


def test_level_records_compare_by_value():
    levels = find_bound_states(FIG3_CFG, FIG3_GEOM)
    assert levels == find_bound_states(FIG3_CFG, FIG3_GEOM)
    assert levels[1] == levels[1:][0] and levels[0] != levels[1]
    assert levels != find_bound_states(PotentialConfig(3.0, 3.0, 3.5), FIG3_GEOM)
    assert levels != levels[:1] and levels != "levels"


@pytest.mark.parametrize("fn", [eigenfunction, boundary_values, discontinuities])
@pytest.mark.parametrize("pick", [slice(0, 1), slice(None)], ids=["one_slice", "whole"])
def test_level_functions_take_one_level(fn, pick):
    # a sub-record, even of one level, is not a level: the error names levels[i]
    levels = find_bound_states(FIG3_CFG, FIG3_GEOM)
    args = (np.linspace(-1.0, 1.0, 5),) if fn is eigenfunction else ()
    with pytest.raises(ValueError, match=r"levels\[i\]"):
        fn(levels[pick], FIG3_CFG, FIG3_GEOM, *args)
    fn(levels[0], FIG3_CFG, FIG3_GEOM, *args)


def test_reported_levels_revalidate():
    # configurations without an in-gap accumulation point at va, where every
    # level is isolated and the residual slope stays moderate
    rng = np.random.default_rng(12)
    checked = 0
    while checked < 5:
        cfg = PotentialConfig(*rng.uniform(-4, 4, size=3))
        geom = Geometry.centered(rng.uniform(0.3, 2.0))
        if abs(cfg.va) < 1.2 and not cfg.on_plane_a():
            continue
        checked += 1
        for s in find_bound_states(cfg, geom):
            assert abs(s.energy) < 1.0
            assert s.residual < 1e-10
            assert s.kappa == pytest.approx(kappa(s.energy), rel=1e-12)


def test_grid_refinement_stability():
    # accumulation-free configurations: the level set is finite, so doubling
    # the scan grid must reproduce it exactly
    for cfg, geom in (
        (FIG3_CFG, FIG3_GEOM),
        (PotentialConfig(5.0, 5.0, 5.0), Geometry.centered(1.0)),
        (PotentialConfig(3.0, 1.0, 0.0), Geometry.centered(1.5)),
    ):
        a = find_bound_states(cfg, geom, n_grid=4000)
        b = find_bound_states(cfg, geom, n_grid=8000)
        assert len(a) == len(b)
        assert np.allclose([s.energy for s in a], [s.energy for s in b], atol=1e-10)


def test_particle_hole_mirror_negates_spectrum():
    # C, which swaps components 1 and 3, anticommutes with the free Hamiltonian
    # and keeps psi2, so (V11, V22, V33) -> (-V33, -V22, -V11) maps every level
    # E to -E with the same parity
    levels = 0
    for cfg, geom in random_configs(42, 60):
        mirror = PotentialConfig(-cfg.v33, -cfg.v22, -cfg.v11)
        sols, mirrored = find_bound_states(cfg, geom), find_bound_states(mirror, geom)
        for p in "+-":
            e = np.sort([s.energy for s in sols if s.parity == p])
            e_mirror = np.sort([-s.energy for s in mirrored if s.parity == p])
            assert e.size == e_mirror.size, (cfg, geom, p)
            if e.size:
                assert np.max(np.abs(e - e_mirror)) <= 1e-9, (cfg, geom, p)
            levels += e.size
    assert levels > 0


# --- bit identity with the per-parity scaffold --------------------------------
# The solver used to bracket and refine each parity on its own: one residual
# call per segment grid, per sign-change cell and per edge ladder, then one
# one-level refinement per parity (refine_reference.ref_refine), with both
# residual kernels evaluated everywhere under np.where.  That code is kept
# here as the reference the batched solver must reproduce float for float.


def _ref_k2(cfg, e):
    if cfg.on_plane_a(REDUCE_RTOL):
        if cfg.on_plane_b(REDUCE_RTOL):
            return (e - cfg.v2) ** 2
        return (e - cfg.v1) * (e - cfg.v3)
    return (e - cfg.v1) * (e - cfg.v2) * (e - cfg.v3) / (e - cfg.va)


def sc_ratio(w, t):
    """Return s(w, t)/c(w, t) for w <= 0 without overflow (tanh form).

    Only meaningful where c does not vanish, i.e. for w <= 0 where
    c = cosh >= 1; used to normalize residuals in the imaginary-k region.
    """
    w, t = np.broadcast_arrays(np.asarray(w, dtype=float), np.asarray(t, dtype=float))
    u = w * t * t
    r = np.empty_like(u)
    small = np.abs(u) < 1e-6
    q = np.sqrt(np.abs(w[~small]))
    r[~small] = np.tanh(q * t[~small]) / q
    r[small] = t[small] * (1.0 + u[small] / 3.0)
    if r.ndim == 0:
        return float(r)
    return r


def _ref_both(cfg, geom, e):
    k2 = _ref_k2(cfg, e)
    v2, half = cfg.v2, 0.5 * geom.l
    v2_zero = abs(v2) <= 1e-14 * cfg.scale()
    kap = np.sqrt((1.0 - e) * (1.0 + e))
    with np.errstate(over="ignore", invalid="ignore"):
        s2, c2 = sc_kernels(k2, half)
        ratio = sc_ratio(np.minimum(k2, 0.0), half)
        neg = k2 < 0
        fac = kap if v2_zero else kap * (e - v2)
        lead = 1.0 if v2_zero else e
        rp = np.where(neg, fac * ratio + lead, fac * s2 + lead * c2)
        if cfg.on_plane_a(REDUCE_RTOL) and not cfg.on_plane_b(REDUCE_RTOL):
            lam = kap * (e - v2)
            rm = np.where(neg, lam - e * k2 * ratio, lam * c2 - e * k2 * s2)
        elif cfg.on_plane_a(REDUCE_RTOL):
            rm = np.where(neg, kap - e * (e - v2) * ratio, kap * c2 - e * (e - v2) * s2)
        elif v2_zero:
            rm = np.where(neg, kap - k2 * ratio, kap * c2 - k2 * s2)
        else:
            w = (e - cfg.v1) * (e - cfg.v3) / (e - cfg.va)
            rm = np.where(neg, kap - e * w * ratio, kap * c2 - e * w * s2)
    return rp, rm


def _ref_sign_changes(x, f):
    s = np.sign(f)
    out = [
        (float(min(x[i], x[i + 1])), float(max(x[i], x[i + 1])))
        for i in np.where(s[:-1] * s[1:] < 0)[0]
    ]
    for i in np.where(s == 0)[0]:
        nb = (x[max(i - 1, 0)], x[min(i + 1, len(x) - 1)])
        if max(nb) > min(nb):
            out.append((float(min(nb)), float(max(nb))))
    return sorted(out)


def _ref_brackets(fun, segments, n_grid, refine=4):
    brackets = []
    total = sum(s[1] - s[0] for s in segments)
    for slo, shi in segments:
        n = max(16, int(round(n_grid * (shi - slo) / total)))
        xs = np.linspace(slo, shi, n)
        for a, b in _ref_sign_changes(xs, fun(xs)):
            sub = np.linspace(a, b, refine + 1)
            brackets.extend(_ref_sign_changes(sub, fun(sub)))
        h = (shi - slo) / (n - 1)
        for edge, inward in ((slo, +1.0), (shi, -1.0)):
            lad = rootfind.edge_ladder(edge, inward, h)
            lad = lad[(lad > slo) & (lad < shi)]
            lad = np.sort(np.append(lad, edge + inward * h))
            if inward < 0:
                lad = lad[::-1]
            brackets.extend(_ref_sign_changes(lad, fun(lad)))
    return sorted(set(brackets))


def _ref_find_bound_states(cfg, geom, extra_exclusions=()):
    lo, hi = -1.0 + EDGE_MARGIN, 1.0 - EDGE_MARGIN
    windows = [(-ZERO_WINDOW, ZERO_WINDOW)]
    centers = [0.0]
    if abs(cfg.va) < 1.0:
        windows.append((cfg.va - VA_WINDOW, cfg.va + VA_WINDOW))
        centers.append(cfg.va)
    windows.extend(extra_exclusions)
    segments = rootfind.subtract_windows(lo, hi, windows)
    rows = []
    for i, parity in enumerate("+-"):

        def fun(x):
            return _ref_both(cfg, geom, np.asarray(x, dtype=float))[i]

        roots, fr = ref_refine(fun, _ref_brackets(fun, segments, 4000), ROOT_XTOL)
        roots, fr = rootfind.dedup_sorted(roots, fr, tol=5.0 * ROOT_XTOL)
        for r, f in zip(roots, fr):
            if lo < r < hi and not any(abs(r - c) < 3e-10 for c in centers):
                rho = float(np.sqrt((1.0 - r) / (1.0 + r)))
                k2 = float(_ref_k2(cfg, r))
                rows.append((float(r), parity, float(kappa(r)), rho, k2, float(abs(f)), 0))
    rows.sort(key=lambda row: row[0])
    return Levels(*(np.array(c) for c in (list(zip(*rows)) or [()] * len(fields(Levels)))))


# fig6 pencil (P2, alphas (1, 1, -1), l = 2) on nine V points: va = 0 is in the
# gap, and the level count runs from 2 (V = 0) to 309 (|V| = 12)
FIG6_CASES = [
    (PencilSpec("P2", 1.0, 1.0, -1.0).config(v), Geometry.centered(2.0))
    for v in np.linspace(-12.0, 12.0, 9)
]
SUITE_CASES = random_configs(42, 20)


def test_batched_solver_matches_per_parity_reference():
    cases = [(FIG3_CFG, FIG3_GEOM, ())]
    cases += [(cfg, geom, ()) for cfg, geom in SUITE_CASES + FIG6_CASES]
    cfg, geom = SUITE_CASES[1]
    excl = comparison_domain(cfg, geom)
    assert excl
    cases.append((cfg, geom, excl))
    for cfg, geom, excl in cases:
        got = find_bound_states(cfg, geom, extra_exclusions=excl)
        want = _ref_find_bound_states(cfg, geom, extra_exclusions=excl)
        assert len(got) == len(want), cfg
        for f in fields(Levels):
            # every field equal as a float, not merely close
            g, w = getattr(got, f.name), getattr(want, f.name)
            assert np.array_equal(g, w), (cfg, f.name, g, w)


def test_scan_brackets_match_per_segment_reference():
    # each parity's brackets are the set the per-segment reference finds, and
    # carry the residuals at their ends, bit for bit
    cases = [(cfg, geom, ()) for cfg, geom in random_configs(7, 60)]
    cases += [(cfg, geom, comparison_domain(cfg, geom)) for cfg, geom, _ in cases]
    assert any(excl for _, _, excl in cases)
    for cfg, geom, excl in cases:
        both = _ScanResiduals.of([cfg], geom).at(0).both
        segments = scan_segments(cfg, excl)
        scans = _scan_brackets(both, segments, 4000)
        for k, (brackets, f_ends) in enumerate(scans):
            want = _ref_brackets(lambda x: both(x)[k], segments, 4000)
            assert set(map(tuple, brackets.tolist())) == set(want), (cfg, k)
            assert np.array_equal(f_ends, both(brackets.T)[k]), (cfg, k)
    # no segment, no bracket
    for brackets, f_ends in _scan_brackets(both, [], 4000):
        assert brackets.shape == (0, 2) and f_ends.shape == (2, 0)


def test_scan_residuals_hold_one_form():
    # a block of configurations is one unmasked residual form: fig6 at V = 0
    # sits on plane AB (with v2 = 0), at V = 1 off the planes
    fig6 = PencilSpec("P2", 1.0, 1.0, -1.0)
    geom = Geometry.centered(2.0)
    _ScanResiduals.of([fig6.config(1.0), fig6.config(2.0)], geom)
    with pytest.raises(ValueError, match="one form"):
        _ScanResiduals.of([fig6.config(0.0), fig6.config(1.0)], geom)
    # fig8 keeps v2 = 0, but V = 0 reaches plane A
    fig8 = PencilSpec("P1", 1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="one form"):
        _ScanResiduals.of([fig8.config(1.0), fig8.config(0.0)], geom)


# Two configurations of each residual form (_form), by renormalized strengths
# (v1, v2, v3); plane AB with v2 = 0 holds only v1 = v2 = v3 = 0.
FORM_CASES = [
    [PotentialConfig.from_renormalized(*v) for v in pair]
    for pair in (
        ((-0.6, 0.3, 0.8), (-0.4, -0.5, 0.7)),  # generic
        ((-0.6, 0.0, 0.8), (-0.4, 0.0, 0.7)),  # generic, v2 = 0
        ((-0.6, 0.1, 0.8), (-0.8, -0.05, 0.7)),  # plane A
        ((-0.6, 0.0, 0.6), (-0.3, 0.0, 0.3)),  # plane A, v2 = 0
        ((0.5, 0.5, 0.5), (-0.2, -0.2, -0.2)),  # plane AB
        ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),  # plane AB, v2 = 0
    )
]


def _kernel_abscissas(cfg):
    """A gap grid, the zeros of k^2 in the gap (k^2 = 0 exactly on plane AB)
    with points either side where |k^2| (l/2)^2 < 1e-6, and points next to the
    va pole off the planes, where |k^2| is huge."""
    near = np.array([1e-12, 1e-10, 1e-9, 1e-8, 1e-7])
    zeros = [v for v in (cfg.v1, cfg.v2, cfg.v3) if abs(v) < 1.0]
    e = [np.linspace(-0.99, 0.99, 397), zeros]
    e += [z + near for z in zeros] + [z - near for z in zeros]
    if _form(cfg)[0] == "generic":
        e += [cfg.va + near, cfg.va - near]
    return np.concatenate(e)


def test_scan_residuals_equal_the_per_branch_reference_bitwise():
    geom = Geometry.centered(2.0)
    half = 0.5 * geom.l
    assert len({_form(cfgs[0]) for cfgs in FORM_CASES}) == 6
    k2_all = []
    for cfgs in FORM_CASES:
        es = [_kernel_abscissas(cfg) for cfg in cfgs]
        refs = [_ref_both(cfg, geom, e) for cfg, e in zip(cfgs, es)]
        res = _ScanResiduals.of(cfgs, geom)
        for i, e in enumerate(es):
            for got, want in zip(res.at(i).both(e), refs[i]):
                assert np.array_equal(got, want), (cfgs[i], e[got != want])
        # one configuration per abscissa, as _solve_block refines a block
        idx = np.repeat(np.arange(len(cfgs)), [e.size for e in es])
        for got, want in zip(res.at(idx).both(np.concatenate(es)), zip(*refs)):
            assert np.array_equal(got, np.concatenate(want)), cfgs
        k2_all += [res.at(i).k2(e) for i, e in enumerate(es)]
    k2 = np.concatenate(k2_all)
    u = k2 * half * half
    small = np.abs(u) < 1e-6
    # the series of both signs, k^2 = 0 itself and cosh past overflow are covered
    assert np.any(small & (k2 > 0)) and np.any(small & (k2 < 0)) and np.any(k2 == 0)
    assert np.any(np.sqrt(np.maximum(-k2, 0.0)) * half > 710.0)


def test_scan_residuals_do_not_warn_where_cosh_would_overflow():
    cfg = FORM_CASES[0][0]
    geom = Geometry.centered(2.0)
    e = _kernel_abscissas(cfg)
    res = _ScanResiduals.of([cfg], geom).at(0)
    k2 = res.k2(e)
    # k^2 > 0 points beside k^2 << 0 points whose cosh(sqrt(-k^2) l/2) overflows
    assert np.any(k2 > 0) and np.any(np.sqrt(np.maximum(-k2, 0.0)) * 0.5 * geom.l > 710.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rp, rm = res.both(e)
    assert np.all(np.isfinite(rp)) and np.all(np.isfinite(rm))


def _phase_index(cfg, geom, sol):
    """phi/(pi/2) of a level with k^2 > 0, phi = k l/2 + atan2(E k, kappa (E - v2)).

    Then E r_plus = R sin(phi) and E r_minus = R cos(phi) with R > 0, so a '+'
    level sits at an even multiple of pi/2 and a '-' level at an odd one.
    """
    k = math.sqrt(sol.k2)
    phi = k * geom.l / 2.0 + math.atan2(sol.energy * k, sol.kappa * (sol.energy - cfg.v2))
    return phi / (math.pi / 2.0)


def test_every_level_sits_on_a_phase_index_of_its_parity():
    fig6 = PencilSpec("P2", 1.0, 1.0, -1.0)
    cases = random_configs(7, 300) + [(fig6.config(v), Geometry.centered(2.0)) for v in (3.0, 12.0)]
    checked = 0
    for cfg, geom in cases:
        for sol in find_bound_states(cfg, geom):
            if not sol.k2 > 0.0:
                continue
            index = _phase_index(cfg, geom, sol)
            j = round(index)
            assert abs(index - j) < 1e-6, (cfg, geom, sol, index)
            assert (j % 2 == 0) == (sol.parity == "+"), (cfg, geom, sol, j)
            checked += 1
    assert checked > 10000


def test_solver_emits_no_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cfg, geom in SUITE_CASES + FIG6_CASES:
            find_bound_states(cfg, geom)


def test_residual_calls_per_solve_do_not_grow_with_levels(monkeypatch):
    calls = []
    both = _ScanResiduals.both

    def counted(self, e):
        calls.append(np.size(e))
        return both(self, e)

    monkeypatch.setattr(_ScanResiduals, "both", counted)
    n_calls, n_levels = [], []
    for cfg, geom in FIG6_CASES:
        calls.clear()
        n_levels.append(len(find_bound_states(cfg, geom)))
        n_calls.append(len(calls))
    assert min(n_levels) <= 2 and max(n_levels) >= 300
    assert max(n_calls) <= 40, n_calls
    # a sweep scans each V on its own (two calls) and refines the brackets of
    # a block of 16 V points in one pass
    calls.clear()
    v_grid = np.linspace(-12.0, 12.0, 2400)[::20]
    sweep(PencilSpec("P2", 1, 1, -1), Geometry.centered(2.0), v_grid)
    assert len(calls) <= 2 * v_grid.size + 40 * math.ceil(v_grid.size / 16), len(calls)

def _solutions():
    # well-isolated levels: keep clear of the accumulation point at va and of
    # E = 0, where component magnitudes blow up and absolute tolerances lose
    # meaning
    out = []
    for cfg, geom in (
        (FIG3_CFG, FIG3_GEOM),
        (PotentialConfig(-2.0, 1.5, 1.0), Geometry.centered(1.5)),
        (PotentialConfig(1.0, -2.0, -4.0), Geometry(0.3, 1.8)),
    ):
        sols = [
            s
            for s in find_bound_states(cfg, geom)
            if abs(s.energy - cfg.va) > 0.05 and abs(s.energy) > 0.05
        ]
        for s in sols[:2]:
            out.append((cfg, geom, s))
    return out


def test_eigenfunction_parity_structure():
    for cfg, geom, sol in _solutions():
        u = np.linspace(geom.l / 50, 1.4 * geom.l, 60)
        t = np.concatenate([-u[::-1], [0.0], u])
        wf = eigenfunction(sol, cfg, geom, geom.a + t)
        # index i mirrors n - 1 - i, so each mirror is the reversed array
        if sol.parity == "+":
            assert wf.psi2 == pytest.approx(wf.psi2[::-1], abs=1e-10)
            assert wf.psi1 == pytest.approx(-wf.psi1[::-1], abs=1e-10)
            assert wf.psi3 == pytest.approx(-wf.psi3[::-1], abs=1e-10)
        else:
            assert wf.psi2 == pytest.approx(-wf.psi2[::-1], abs=1e-10)
            assert wf.psi1 == pytest.approx(wf.psi1[::-1], abs=1e-10)
            assert wf.psi3 == pytest.approx(wf.psi3[::-1], abs=1e-10)


def test_eigenfunction_exterior_decay_rate():
    for cfg, geom, sol in _solutions():
        xr = geom.x2 + np.linspace(0.5, 1.5, 11) * geom.l
        psi2 = np.abs(eigenfunction(sol, cfg, geom, xr, normalize="raw").psi2)
        slopes = np.diff(np.log(psi2)) / np.diff(xr)
        assert np.max(np.abs(slopes + sol.kappa)) < 1e-8


def test_eigenfunction_peak_normalization():
    cfg, geom, sol = _solutions()[0]
    x = np.linspace(geom.x1 - geom.l, geom.x2 + geom.l, 501)
    wf = eigenfunction(sol, cfg, geom, x)
    assert np.max(np.abs(wf.psi2)) == pytest.approx(1.0, rel=1e-12)


def test_eigenfunction_is_one_record_of_arrays():
    # one WaveFunction of 1-D arrays over the grid; psi2_max is the raw
    # wave function divided by its peak |psi2|, float for float
    cfg, geom, sol = _solutions()[0]
    x = np.linspace(geom.x1 - geom.l, geom.x2 + geom.l, 101)
    raw = eigenfunction(sol, cfg, geom, x, normalize="raw")
    peak = eigenfunction(sol, cfg, geom, x)
    assert isinstance(raw, WaveFunction)
    for wf in (raw, peak):
        assert np.array_equal(wf.x, x)
        assert all(a.shape == x.shape and a.dtype == float for a in (wf.psi1, wf.psi2, wf.psi3))
    scale = 1.0 / np.max(np.abs(raw.psi2))
    for name in ("psi1", "psi2", "psi3"):
        assert np.array_equal(getattr(peak, name), getattr(raw, name) * scale)


def test_eigenfunction_rejects_foreign_solution():
    sols = find_bound_states(FIG3_CFG, FIG3_GEOM)
    other = PotentialConfig(0.0, 5.0, 1.0)
    with pytest.raises(OutOfDomainSolution):
        eigenfunction(sols[0], other, FIG3_GEOM, np.linspace(-1, 1, 5))


def test_discontinuities_match_sampled_jumps():
    for cfg, geom, sol in _solutions():
        d1, d2 = discontinuities(sol, cfg, geom)
        bv = boundary_values(sol, cfg, geom)
        for j in (0, 2):
            assert bv["x1-"][j] - bv["x1+"][j] == pytest.approx(d1, abs=1e-9)
            assert bv["x2-"][j] - bv["x2+"][j] == pytest.approx(d2, abs=1e-9)
        # psi2 itself stays continuous
        assert bv["x1-"][1] == pytest.approx(bv["x1+"][1], abs=1e-9)
        assert bv["x2-"][1] == pytest.approx(bv["x2+"][1], abs=1e-9)


def test_discontinuity_factor_is_mass_for_equal_renormalized_outer():
    # v1 = v3 makes mu = m exactly: jumps reduce to m c(k2,l/2)/kappa
    # (resp. m k2 s(k2,l/2)/kappa for the odd family)
    from triband.model import sc_kernels

    cfg = PotentialConfig(-0.5, 0.9, 1.5)  # v33 - v11 = 2
    assert cfg.on_plane_b()
    geom = Geometry.centered(1.2)
    for sol in find_bound_states(cfg, geom)[:3]:
        d1, _ = discontinuities(sol, cfg, geom)
        s2, c2 = sc_kernels(sol.k2, 0.5 * geom.l)
        pred = (c2 if sol.parity == "+" else sol.k2 * s2) / sol.kappa
        assert d1 == pytest.approx(pred, rel=1e-12)


def test_discontinuity_vanishes_for_equal_outer_strengths():
    # v1 = v3 makes mu = m exactly; v11 = v33 = 0 makes mu = 0
    cfg = PotentialConfig(0.0, 10.0, 0.0)
    geom = Geometry.centered(2.0)
    isolated = [s for s in find_bound_states(cfg, geom) if abs(s.energy - cfg.va) > 0.1]
    for sol in isolated[:4]:
        d1, d2 = discontinuities(sol, cfg, geom)
        assert d1 == pytest.approx(0.0, abs=1e-12)
        assert d2 == pytest.approx(0.0, abs=1e-12)
        bv = boundary_values(sol, cfg, geom)
        for j in (0, 2):
            assert abs(bv["x1-"][j] - bv["x1+"][j]) < 1e-10
            assert abs(bv["x2-"][j] - bv["x2+"][j]) < 1e-10


def test_eigenfunction_satisfies_system_pointwise():
    # interior samples obey the component system: the algebraic constraint
    # (E - v1) psi1 = -(E - v3) psi3 exactly, and the derivative relations
    # u' = sqrt(2)(E - v2) v, v' = -sqrt(2)(E - v1)(E - v3) u/(2E - v1 - v3)
    # checked with a 4th-order stencil
    for cfg, geom, sol in _solutions():
        h = geom.l / 2000.0
        x0 = np.linspace(geom.x1 + 5 * h, geom.x2 - 5 * h, 25)
        e = sol.energy
        stencil = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * h
        weights = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * h)
        for xx in x0:
            wf = eigenfunction(sol, cfg, geom, xx + stencil, normalize="raw")
            u = wf.psi1 - wf.psi3
            v = wf.psi2
            psi1, psi2, psi3 = wf.psi1[2], wf.psi2[2], wf.psi3[2]  # at xx
            assert (e - cfg.v1) * psi1 + (e - cfg.v3) * psi3 == pytest.approx(
                0.0, abs=1e-12 * cfg.scale()
            )
            du = float(weights @ u)
            dv = float(weights @ v)
            scale = max(1.0, abs(du), abs(dv))
            assert du == pytest.approx(np.sqrt(2) * (e - cfg.v2) * psi2, abs=1e-7 * scale)
            target = -np.sqrt(2) * (e - cfg.v1) * (e - cfg.v3) / (2 * e - cfg.v1 - cfg.v3)
            assert dv == pytest.approx(target * (psi1 - psi3), abs=1e-7 * scale)


def test_current_vanishes_for_bound_states():
    for cfg, geom, sol in _solutions():
        x = np.linspace(geom.x1 - geom.l, geom.x2 + geom.l, 101)
        wf = eigenfunction(sol, cfg, geom, x)
        assert np.all(np.abs(current(wf.psi1, wf.psi2, wf.psi3)) < 1e-12)


def test_current_zero_wavefunction():
    assert current(0.0, 0.0, 0.0) == 0.0


def test_current_complex_plane_wave():
    # j is real for any complex spinor and nonzero for a traveling wave
    j = current(1.0 + 0.2j, 0.5j, -1.0 + 0.2j)
    assert isinstance(j, float)
    assert j != 0.0
