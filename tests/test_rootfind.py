import math

import numpy as np
from hypothesis import given, settings, strategies as st

from triband import oracle, rootfind
from triband.boundstates import N_GRID, scan_segments
from triband.verify import comparison_domain, random_configs

from refine_reference import ref_refine


def _two_parities(x):
    return np.sin(7.0 * x), np.cos(5.0 * x) - 0.3


def _signs(x):
    # residuals of magnitude 1: a secant polish step never lowers |f|, so
    # every root stays its bisection midpoint and one bisection more or less
    # than a family's own count shows in the result
    return tuple(np.sign(f) for f in _two_parities(x))


def _one_parity(k, func=_two_parities):
    return lambda x: (func(x)[k],)


def test_sign_change_rows_match_one_call_per_row():
    rows = [
        np.linspace(-1.0, 1.0, 41),
        np.array([0.5]),  # a single point: no bracket
        np.array([-0.2, 0.0, 0.3]),  # exact zero inside the row
        np.array([0.0, 0.4, 0.9]),  # exact zero at the row start
        np.array([-0.7, -0.1, 0.0]),  # and at the row end
        np.linspace(2.0, 3.0, 17),
    ]
    fs = [np.sin(7.0 * r) if k % 2 == 0 else r for k, r in enumerate(rows)]
    want = sorted(
        b for r, f in zip(rows, fs) for b in rootfind.sign_change_brackets(r, f, [r.size])
    )
    got = rootfind.sign_change_brackets(
        np.concatenate(rows), np.concatenate(fs), [r.size for r in rows]
    )
    assert got == want
    # a bracket never spans two rows, although the concatenation changes sign
    # between the end of one row and the start of the next
    a, b = np.array([0.0, 1.0]), np.array([2.0, 3.0])
    assert rootfind.sign_change_brackets(
        np.concatenate([a, b]), np.array([1.0, 2.0, -1.0, -2.0]), [2, 2]
    ) == []


def _plus_minus():
    # family 0 has narrow brackets, family 1 wide ones, so their bisection
    # counts differ (33 and 40 at xtol 1e-12); the last family-1 bracket does
    # not straddle a sign change
    plus = [(k * np.pi / 7.0 - 1e-3, k * np.pi / 7.0 + 2e-3) for k in range(-3, 4)]
    z = np.arccos(0.3) / 5.0
    minus = [(z - 0.2, z + 0.25), (-z - 0.3, -z + 0.1), (1.2, 1.3)]
    return plus, minus


def test_joint_refine_equals_one_call_per_family():
    xtol = 1e-12
    plus, minus = _plus_minus()
    for func in (_two_parities, _signs):
        got = rootfind.refine_brackets(func, plus + minus, xtol, [len(plus), len(minus)])
        for k, fam in enumerate((plus, minus)):
            (alone,) = rootfind.refine_brackets(_one_parity(k, func), fam, xtol, [len(fam)])
            assert np.array_equal(got[k][0], alone[0])
            assert np.array_equal(got[k][1], alone[1])
    # an empty family gets an empty result, and leaves the others unchanged
    got = rootfind.refine_brackets(_two_parities, minus, xtol, [0, len(minus)])
    assert got[0][0].size == 0 and got[0][1].size == 0
    (alone,) = rootfind.refine_brackets(_one_parity(1), minus, xtol, [len(minus)])
    assert np.array_equal(got[1][0], alone[0]) and np.array_equal(got[1][1], alone[1])


def test_refine_by_pick_equals_one_call_per_family():
    # 70 families, more than np.choose takes arrays, each reading one of the
    # two outputs by pick, as the solver's (V, parity) families of a block do;
    # bracket widths grow with the family, so every family has its own count
    xtol = 1e-12
    families = []
    for j in range(70):
        k, w = j % 2, 1e-6 * 1.2**j  # up to 0.29, below half the root spacing
        if k == 0:
            roots = [-np.pi / 7.0, np.pi / 7.0]
        else:
            roots = [-np.arccos(0.3) / 5.0, np.arccos(0.3) / 5.0]
        families.append((k, [(r - w, r + 0.5 * w) for r in roots]))
    brackets = np.array([b for _, fam in families for b in fam])
    sizes = [len(fam) for _, fam in families]
    pick = np.repeat([k for k, _ in families], sizes)
    got = rootfind.refine_brackets(_two_parities, brackets, xtol, sizes, pick=pick)
    assert len(got) == len(families)
    for (k, fam), (roots, res) in zip(families, got):
        (alone,) = rootfind.refine_brackets(_one_parity(k), fam, xtol, [len(fam)])
        assert np.array_equal(roots, alone[0]) and np.array_equal(res, alone[1])


def _sin_brackets(n):
    # n brackets around consecutive roots k pi/7 of sin(7 x), of widths that
    # differ from bracket to bracket, below half the root spacing
    k = np.arange(n) - n // 2
    w = 1e-3 * (1.0 + (k % 5))
    return list(zip(k * np.pi / 7.0 - w, k * np.pi / 7.0 + 0.5 * w))


def _levels_per_call(n):
    # the largest m with n (2^m - 1) <= POINTS_PER_CALL, at least 1
    m = 1
    while n * (2 ** (m + 1) - 1) <= rootfind.POINTS_PER_CALL:
        m += 1
    return m


def _assert_same(got, want):
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_multi_level_refine_matches_one_level_reference():
    xtol = 1e-12
    # family 0 has narrow brackets, one of them with an exact zero (sin 0) at
    # its end; family 1 has wide ones, so the two bisection counts differ,
    # and its last bracket does not straddle a sign change
    plus = [(0.0, 0.3)] + [(k * np.pi / 7.0 - 1e-3, k * np.pi / 7.0 + 2e-3) for k in (-3, 2, 5)]
    z = np.arccos(0.3) / 5.0
    minus = [(z - 0.2, z + 0.25), (-z - 0.3, -z + 0.1), (1.2, 1.3)]
    for func in (_two_parities, _signs):
        got = rootfind.refine_brackets(func, plus + minus, xtol, [len(plus), len(minus)])
        for k, fam in enumerate((plus, minus)):
            _assert_same(got[k], ref_refine(lambda x: func(x)[k], fam, xtol))
    # 1 and 3 brackets score several levels per call, 40 two, and more than
    # POINTS_PER_CALL one
    counts = (1, 3, 40, rootfind.POINTS_PER_CALL + 44)
    assert [_levels_per_call(n) > 1 for n in counts] == [True, True, True, False]
    for n in counts:
        fam = _sin_brackets(n)
        for func in (_two_parities, _signs):
            (got,) = rootfind.refine_brackets(_one_parity(0, func), fam, xtol, [n])
            _assert_same(got, ref_refine(lambda x: func(x)[0], fam, xtol))


def test_oracle_refine_matches_one_level_reference():
    # the oracle's RK4 parity mismatches on two configurations, with 15 and
    # 6 brackets: both get several levels per call
    suite = random_configs(42, 4)
    for cfg, geom in (suite[1], suite[3]):

        def both(x):
            return oracle._parity_mismatches(cfg, geom, x, oracle.N_STEPS)

        grids = rootfind.segment_grids(scan_segments(cfg, comparison_domain(cfg, geom)), N_GRID)
        xs = np.concatenate(grids)
        fams = [rootfind.sign_change_brackets(xs, f, [g.size for g in grids]) for f in both(xs)]
        assert all(fams)
        got = rootfind.refine_brackets(
            both, fams[0] + fams[1], oracle.ORACLE_XTOL, [len(f) for f in fams]
        )
        for k, fam in enumerate(fams):
            _assert_same(got[k], ref_refine(lambda x: both(x)[k], fam, oracle.ORACLE_XTOL))


def test_refine_call_count_follows_the_level_rule():
    # one call scores both ends, one per m bisection levels, and one the root
    # together with its secant polish step
    xtol = 1e-12
    for n in (1, 3, 40, rootfind.POINTS_PER_CALL + 44):
        fam = _sin_brackets(n)
        calls = []

        def func(x):
            calls.append(x)
            return _two_parities(x)

        rootfind.refine_brackets(func, fam, xtol, [n])
        levels = math.ceil(math.log2(max(hi - lo for lo, hi in fam) / xtol)) + 1
        m = _levels_per_call(n)
        assert len(calls) == 1 + math.ceil(levels / m) + 1, n
        # column i of every call holds abscissas of bracket i
        assert [x.shape for x in (calls[0], calls[-1])] == [(2, n), (2, n)]
        for x in calls[1:-1]:
            assert x.shape[-1] == n and x.size <= max(n, rootfind.POINTS_PER_CALL)
    # a call ends where a family's count ends: the counts 33 and 40 at m = 4
    # take 9 calls to level 33 (the last one scores a single level), then 2
    plus, minus = _plus_minus()
    n = len(plus) + len(minus)
    calls = []

    def func(x):
        calls.append(x)
        return _two_parities(x)

    rootfind.refine_brackets(func, plus + minus, xtol, [len(plus), len(minus)])
    m = _levels_per_call(n)
    assert m == 4
    assert len(calls) == 1 + math.ceil(33 / m) + math.ceil((40 - 33) / m) + 1 == 13
    assert [x.size for x in calls[8:11]] == [(2**m - 1) * n, n, (2**m - 1) * n]


def _exact_zero_residuals(x):
    # sin(7 x) is exactly 0 at x = 0; the second output has exact zeros at
    # 0.5 and -0.75, where the product is computed exactly
    return np.sin(7.0 * x), (x - 0.5) * (x + 0.75)


@st.composite
def _bracket(draw, k):
    w = draw(st.floats(1e-9, 0.3))
    kind = draw(st.sampled_from(["root", "zero end", "anywhere"]))
    if kind == "root":
        roots = [j * np.pi / 7.0 for j in range(-4, 5)] if k == 0 else [-0.75, 0.5]
        lo = draw(st.sampled_from(roots)) - w * draw(st.floats(0.0, 1.0))
    elif kind == "zero end":
        z = draw(st.sampled_from([0.0] if k == 0 else [-0.75, 0.5]))
        return draw(st.sampled_from([(z, z + w), (z - w, z)]))
    else:
        # mostly brackets with no sign change
        lo = draw(st.floats(-2.0, 2.0))
    return (lo, lo + w)


@st.composite
def _families(draw):
    fams = []
    for _ in range(draw(st.integers(1, 6))):
        k = draw(st.integers(0, 1))
        fams.append((k, draw(st.lists(_bracket(k), max_size=40))))
    return fams


@settings(max_examples=100, deadline=None)
@given(fams=_families(), signs=st.booleans())
def test_refine_matches_reference_family_by_family(fams, signs):
    # families with their own counts, sizes and outputs, refined in one pass,
    # get the floats of the one-level reference run on each family alone
    xtol = 1e-12

    def func(x):
        out = _exact_zero_residuals(x)
        return tuple(np.sign(f) for f in out) if signs else out

    sizes = [len(fam) for _, fam in fams]
    brackets = np.array([b for _, fam in fams for b in fam]).reshape(-1, 2)
    pick = np.repeat([k for k, _ in fams], sizes)
    got = rootfind.refine_brackets(func, brackets, xtol, sizes, pick=pick)
    assert len(got) == len(fams)
    for (k, fam), res in zip(fams, got):
        _assert_same(res, ref_refine(lambda x: func(x)[k], fam, xtol))
