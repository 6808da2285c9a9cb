import itertools

import numpy as np
import pytest

from triband import boundstates, cli, spectra
from triband.boundstates import BoundStateSolution, Levels, find_bound_states
from triband.cli import PRESETS
from triband.model import Geometry, OutOfValidityWindow, TypeMismatch
from triband.pointlimits import SqueezeLaw, limit_energy
from triband.spectra import (
    PencilSpec,
    SpectrumType,
    asymptotic_energy,
    classify,
    cutoff_values,
    sweep,
)


def test_pencil_strength_mapping():
    p1 = PencilSpec("P1", 2.0, 1.0, -0.5)
    cfg = p1.config(3.0)
    assert (cfg.v11, cfg.v22, cfg.v33) == (6.0, 3.0, -1.5)
    p2 = PencilSpec("P2", 2.0, 1.0, -0.5)
    cfg = p2.config(3.0)
    assert (cfg.v1, cfg.v2, cfg.v3) == (6.0, 3.0, -1.5)
    assert cfg.v11 == pytest.approx(6.0 - 1.0)
    assert cfg.v33 == pytest.approx(-1.5 + 1.0)


def test_classification_table():
    assert classify(PencilSpec("P1", 1, 1, 1)).tag == "P"
    assert classify(PencilSpec("P1", 1, 1, 1)).beta == pytest.approx(1.0)
    assert classify(PencilSpec("P2", -1, 1, -1)).tag == "D"
    assert classify(PencilSpec("P2", -1, 1, -1)).beta == pytest.approx(-1.0)
    assert classify(PencilSpec("P2", 1, 1, -1)).tag == "H1"
    assert classify(PencilSpec("P1", 0, 1, 0)).tag == "H2"
    assert classify(PencilSpec("P2", 0, 1, 0)).tag == "unclassified"  # P1 only
    assert classify(PencilSpec("P1", 1, 0, 1)).tag == "W1"
    assert classify(PencilSpec("P1", 2, 1, 0)).tag == "W2"
    assert classify(PencilSpec("P1", 1, 0, 0)).tag == "unclassified"
    # alpha1 alpha3 / (alpha1 + alpha3) = (-3)/(-2) > 0: still type P
    assert classify(PencilSpec("P1", -3, 1, 1)).tag == "P"
    assert classify(PencilSpec("P1", 3, 1, -1)).tag == "D"


def test_type_p_asymptotic_beta_one_reduction():
    stype = classify(PencilSpec("P1", 1, 1, 1))
    geom = Geometry.centered(0.5)
    for v in (13.0, 27.0, 81.0):
        pred = asymptotic_energy(stype, v, geom)
        x = v * 0.5 / 2.0
        assert pred["+"] == pytest.approx(np.sign(np.cos(x)) * np.sin(x), rel=1e-12)
        assert pred["-"] == pytest.approx(-np.sign(np.sin(x)) * np.cos(x), rel=1e-12)


def test_type_d_asymptotic_limit():
    stype = classify(PencilSpec("P2", -1, 1, -1))
    geom = Geometry.centered(5.0)
    pred = asymptotic_energy(stype, 50.0, geom)
    assert pred["+"] == pytest.approx(1 / np.sqrt(2), abs=1e-6)
    assert pred["-"] == pytest.approx(1 / np.sqrt(2), abs=1e-6)
    pred_neg = asymptotic_energy(stype, -50.0, geom)
    assert pred_neg["+"] == pytest.approx(-1 / np.sqrt(2), abs=1e-6)


def test_h2_asymptotic_formula_values():
    stype = classify(PencilSpec("P1", 0, 1, 0))
    geom = Geometry.centered(2.0)
    v = 50.0
    q = (np.pi / 2.0) ** 2
    e1 = asymptotic_energy(stype, v, geom, n=1)["n"]
    assert e1 == pytest.approx(np.sqrt(q * q / (4 * v * v) + 1.0) - q / (2 * v), rel=1e-12)
    e0 = asymptotic_energy(stype, v, geom, n=0)["n"]
    assert e0 == pytest.approx(1.0 / np.sqrt(1.0 + (2.0 / (v * 2.0)) ** 2), rel=1e-12)


def test_asymptotic_laws_are_the_one_point_limits():
    # asymptotic_energy is limit_energy at g = V l (delta; P and D) and at
    # g = V l^2 (inv_square; W1 ladder); the two evaluate the same closed form
    # in different orders, so they agree to rounding
    for pencil, vs in (
        (PencilSpec("P1", 1, 1, 1), (3.0, 13.0, 27.0, 81.0, -7.0)),
        (PencilSpec("P1", -3, 1, 1), (2.0, 9.0, 40.0)),
        (PencilSpec("P2", -1, 1, -1), (1.6, 50.0, -50.0)),
    ):
        stype = classify(pencil)
        for l in (0.5, 2.0):
            geom = Geometry.centered(l)
            for v in vs:
                pred = asymptotic_energy(stype, v, geom)
                for par in ("+", "-"):
                    lim = limit_energy(pencil, SqueezeLaw("delta", v * l), parity=par)
                    assert pred[par] == pytest.approx(lim, rel=1e-14, abs=1e-15)
    for alphas in ((1, 0, 1), (2, 0, 1), (-1, 0, 3)):
        pencil = PencilSpec("P1", *alphas)
        stype = classify(pencil)
        for l in (0.625, 2.5):
            geom = Geometry.centered(l)
            for v in (100.0, -150.0, 1000.0):
                for n in (1, 2, 3):
                    law = SqueezeLaw("inv_square", v * l * l)
                    if abs(stype.beta * law.g) <= (n * np.pi) ** 2:
                        continue  # outside the ladder's validity window
                    pred = asymptotic_energy(stype, v, geom, n=n)["n"]
                    assert pred == pytest.approx(limit_energy(pencil, law, n=n), rel=1e-14)
    # every other (V, l) -> g mapping: the delta law at g = V l for the ground
    # levels (H2, W1, and W2 at V < 0), two_thirds at g = V l^(2/3) for
    # the H1 ladder and inv_square at g = V l^2 for the H2 and W2 ladders
    for alphas, vertex, vs, ns in (
        ((0, 1, 0), "P1", (50.0, -200.0, 3.0), (0, 1, 2, 3)),
        ((1, 0, 1), "P1", (100.0, -150.0, 0.7), (0,)),
        ((-1, 0, 3), "P1", (100.0, -150.0, 0.7), (0,)),
        ((2, 1, 0), "P1", (-300.0, -40.0, -0.8), (0, 1, 2)),
        ((1, 1, -1), "P2", (0.5, 1.5, -2.0, 3.0), (1, 2, 3)),
        ((-2, 1, 2), "P2", (0.5, 1.5, -2.0, 3.0), (1, 2, 3)),
    ):
        pencil = PencilSpec(vertex, *alphas)
        stype = classify(pencil)
        for l, v, n in itertools.product((0.5, 2.0), vs, ns):
            if n == 0:
                law = SqueezeLaw("delta", v * l)
            elif stype.tag == "H1":
                law = SqueezeLaw("two_thirds", v * (l * l) ** (1.0 / 3.0))
            else:
                law = SqueezeLaw("inv_square", v * l * l)
            try:
                lim = limit_energy(pencil, law, n=n)
            except OutOfValidityWindow:
                continue  # outside the ladder's validity window
            geom = Geometry.centered(l)
            pred = asymptotic_energy(stype, v, geom, n=n, alpha=pencil.alpha1)["n"]
            assert pred == pytest.approx(lim, rel=1e-14)


def test_asymptotic_type_guards():
    geom = Geometry.centered(1.0)
    # P needs no level index
    assert "+" in asymptotic_energy(classify(PencilSpec("P1", 1, 1, 1)), 5.0, geom)
    # H1 ladder outside its validity window
    stype = classify(PencilSpec("P2", 1, 1, -1))
    with pytest.raises(TypeMismatch):
        asymptotic_energy(stype, 50.0, geom, n=1)
    # W species need an index
    with pytest.raises(TypeMismatch):
        asymptotic_energy(classify(PencilSpec("P1", 1, 0, 1)), 5.0, geom)
    # W1 ladder outside |beta V l^2| > (n pi)^2, where the law gives |E| >= m
    with pytest.raises(TypeMismatch):
        asymptotic_energy(classify(PencilSpec("P1", 1, 0, 1)), 5.0, geom, n=1)
    # W2 ground level at V = 0, where m/sqrt(1 + 2 alpha m/V) has no value
    with pytest.raises(TypeMismatch):
        asymptotic_energy(SpectrumType("W2"), 0.0, geom, n=0)


def test_h1_cutoff_polynomial_roots():
    stype = classify(PencilSpec("P2", 1, 1, -1))
    geom = Geometry.centered(2.0)
    for n in (1, 2, 3):
        lo, hi = cutoff_values(stype, geom, n)
        q = (n * np.pi / 2.0) ** 2
        assert (hi - 1.0) ** 2 * (hi + 1.0) == pytest.approx(q, rel=1e-10)
        assert (lo + 1.0) ** 2 * (1.0 - lo) == pytest.approx(q, rel=1e-10)
        assert hi >= 1.0 and lo <= -1.0


def test_w_threshold_values():
    geom = Geometry.centered(2.5)
    w1 = classify(PencilSpec("P1", 1, 0, 1))
    vals = cutoff_values(w1, geom, 2)
    assert vals[1] == pytest.approx((2 * np.pi / 2.5) ** 2, rel=1e-12)
    w2 = classify(PencilSpec("P1", 2, 1, 0))
    assert cutoff_values(w2, Geometry.centered(2.0), 1, alpha=2.0)[0] == pytest.approx(
        -((np.pi / 2.0) ** 2) / 4.0, rel=1e-12
    )


def test_sweep_branch_linking_two_level_family():
    pencil = PencilSpec("P1", 1, 1, 1)
    geom = Geometry.centered(0.5)
    spectrum = sweep(pencil, geom, np.linspace(2.0, 4.0, 21))
    # every V point carries levels and branches are continuous in V
    assert np.all(np.bincount(spectrum.levels.config, minlength=21) >= 1)
    long_branches = [b for b in spectrum.branches if b.index.size >= 5]
    assert long_branches
    for br in long_branches:
        jumps = np.abs(np.diff(spectrum.levels.energy[br.index]))
        assert np.all(jumps < 0.5)


FIELDS = ("energy", "parity", "kappa", "rho", "k2", "residual")


def _record(per_v):
    """The Levels record of one list of BoundStateSolution per V point."""
    sols = [s for sols in per_v for s in sols]
    columns = {f: np.array([getattr(s, f) for s in sols]) for f in FIELDS}
    columns["parity"] = columns["parity"].astype(str)  # also when there is no level
    config = np.repeat(np.arange(len(per_v)), [len(sols) for sols in per_v])
    return Levels(**columns, config=config)


def _greedy_link(v_grid, levels):
    """The plainest linker: every active branch scans all levels of the
    current V.  Kept as the reference that spectra._link must reproduce."""
    e, par = levels.energy.tolist(), levels.parity.tolist()
    v_of = [float(v_grid[c]) for c in levels.config]
    branches, active, events = [], [], []
    for i, v in enumerate(v_grid):
        dv = max((v_grid[min(i + 1, len(v_grid) - 1)] - v_grid[max(i - 1, 0)]) / 2.0, 1e-12)
        at_v = np.flatnonzero(levels.config == i).tolist()
        taken = set()
        still_active = []
        for br in active:
            parity, idx = br
            slope = 0.0
            if len(idx) >= 2:
                dv_br = v_of[idx[-1]] - v_of[idx[-2]]
                if dv_br != 0:
                    slope = (e[idx[-1]] - e[idx[-2]]) / dv_br
            pred = e[idx[-1]] + slope * (v - v_of[idx[-1]])
            best, best_d = -1, 5.0 * dv * max(abs(slope), 1.0)
            for j in at_v:
                if j not in taken and par[j] == parity and abs(e[j] - pred) < best_d:
                    best, best_d = j, abs(e[j] - pred)
            if best >= 0:
                taken.add(best)
                idx.append(best)
                still_active.append(br)
            else:
                events.append((float(v), "disappear", parity))
        for j in at_v:
            if j not in taken:
                br = (par[j], [j])
                branches.append(br)
                still_active.append(br)
                if i > 0:
                    events.append((float(v), "appear", par[j]))
        active = still_active
    return branches, events


def _linked(branches):
    return [(b.parity, b.index.tolist()) for b in branches]


def _preset_case(name, v_grid):
    preset = PRESETS["sweep"][name]
    pencil = PencilSpec(preset["vertex"], *preset["alphas"])
    return pencil, Geometry.centered(preset["l"]), v_grid


@pytest.mark.parametrize(
    "name",
    ["fig6_stride20", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"],
)
def test_linking_matches_greedy_scan(name):
    if name == "fig6_stride20":
        # the first 40 V points of the fig6 preset grid at stride 20: 180-309
        # levels per point, many branches opening and closing
        case = _preset_case("fig6", np.linspace(-12.0, 12.0, 2400)[::20][:40])
    else:
        # 61 points put V = 0 on the grid; fig5 and fig9 are mostly levels
        # with k^2 < 0, and fig6 records about a thousand appear and
        # disappear events
        case = _preset_case(name, np.linspace(-12.0, 12.0, 61))
    spectrum = sweep(*case)
    branches, events = _linked(spectrum.branches), spectrum.events
    assert (branches, events) == _greedy_link(spectrum.v_grid, spectrum.levels)
    if name == "fig6_stride20":
        assert len(branches) > 300 and events


def _state(e, parity="+"):
    return BoundStateSolution(e, parity, 1.0, 1.0, 1.0, 0.0)


@pytest.mark.parametrize(
    "candidates, expected",
    [
        # two states at equal distance 0.25 from the prediction 0.0: the one
        # listed first wins, whichever side of the prediction it is on
        ([0.25, -0.25], 0.25),
        ([-0.25, 0.25], -0.25),
        # a three-way tie, two of them at equal energy: index 0 wins
        ([0.25, -0.25, 0.25], 0.25),
        # a nearer state of the other parity is not a candidate
        ([-0.25, _state(0.01, "-"), 0.25], -0.25),
    ],
)
def test_linking_tie_goes_to_lowest_index(candidates, expected):
    later = [c if isinstance(c, BoundStateSolution) else _state(c) for c in candidates]
    v_grid = np.array([0.0, 1.0, 2.0])
    levels = _record([[_state(0.0)], later, []])
    branches, events = spectra._link(v_grid, levels)
    first = branches[0]
    assert v_grid[levels.config[first.index]].tolist() == [0.0, 1.0]
    # level 0 is the state at V = 0, so later[k] is level 1 + k
    assert first.index[1] == 1 + [s.energy for s in later].index(expected)
    assert (_linked(branches), events) == _greedy_link(v_grid, levels)


def _per_v_sweep(pencil, geom, v_grid):
    """The sweep before V blocks: one find_bound_states call per V, then _link."""
    v_grid = np.asarray(sorted(v_grid), dtype=float)
    per_v = [find_bound_states(pencil.config(v), geom) for v in v_grid]
    branches, events = spectra._link(v_grid, _record(per_v))
    return per_v, _linked(branches), events


def test_batched_sweep_matches_per_v_solves():
    fig6 = PencilSpec("P2", 1, 1, -1), Geometry.centered(2.0)
    fig6_grid = np.linspace(-12.0, 12.0, 2400)
    cases = [(*fig6, fig6_grid[offset::20]) for offset in (0, 10)]
    # 61 points put V = 0 on the grid, where every preset changes residual
    # form (fig5 and fig6 reach plane AB, the others plane A or v2 = 0), so
    # V = 0 is a block of its own between two runs of 30 V points; fig8
    # keeps v2 = 0 throughout
    for name in ("fig4", "fig5", "fig6", "fig7", "fig8", "fig9"):
        cases.append(_preset_case(name, np.linspace(-12, 12, 61)))
    cases.append((*fig6, np.linspace(-3.0, 5.0, 21)))  # 21 = 16 + 5 points
    cases.append((*fig6, [0.5]))
    for pencil, geom, v_grid in cases:
        spectrum = sweep(pencil, geom, v_grid)
        per_v, branches, events = _per_v_sweep(pencil, geom, v_grid)
        lv = spectrum.levels
        counts = [len(sols) for sols in per_v]
        assert np.array_equal(lv.config, np.repeat(np.arange(len(per_v)), counts))
        # every field of every level equal as a float, not merely close
        for i, sols in enumerate(per_v):
            for f in FIELDS:
                got = getattr(lv, f)[lv.config == i]
                assert np.array_equal(got, [getattr(s, f) for s in sols]), (pencil, i, f)
        assert _linked(spectrum.branches) == branches
        assert spectrum.events == events
    assert lv.energy.size > 0


def test_sweep_builds_no_bound_state_solution(monkeypatch, tmp_path):
    # a sweep keeps its levels as arrays, from the block solver to the CSV
    def refuse(*args, **kwargs):
        raise AssertionError("a sweep built a BoundStateSolution")

    monkeypatch.setattr(boundstates, "BoundStateSolution", refuse)
    pencil, geom, v_grid = _preset_case("fig6", np.linspace(-12.0, 12.0, 2400)[::20][:40])
    with pytest.raises(AssertionError):
        find_bound_states(pencil.config(v_grid[0]), geom)  # the patch is in force
    assert sweep(pencil, geom, v_grid).levels.energy.size > 1000
    out = tmp_path / "fig6.csv"
    argv = ["sweep", "--preset", "fig6", "--vmin", "-12", "--vmax", "-6", "--nv", "40"]
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) > 1000


def test_type_p_connector_crosses_imaginary_band():
    # along v11 = v22 = v33 = V the even level starts inside the evanescent
    # band |E - V| < m and connects to the propagating region as V grows,
    # while an extra odd level lives entirely inside the band until it exits
    pencil = PencilSpec("P1", 1, 1, 1)
    geom = Geometry.centered(0.5)
    spectrum = sweep(pencil, geom, np.linspace(0.5, 2.5, 21))
    lv = spectrum.levels
    plus = [b for b in spectrum.branches if b.parity == "+" and b.index.size >= 15]
    assert plus
    signs = set(np.sign(lv.k2[plus[0].index]).astype(int).tolist())
    assert signs == {-1, 1}  # the branch spans both regions
    inner = [
        b
        for b in spectrum.branches
        if b.parity == "-" and np.all((lv.k2[b.index] < 0) & (lv.energy[b.index] > 0))
    ]
    assert inner  # the additional branch confined to the evanescent band


def test_h2_hydrogenic_ratio_law():
    # the 1/n^2 law holds where (n pi / l)^2 >> 2 V m, i.e. at small V l^2;
    # V = 2e4, l = 1e-2 (the g = 2 inverse-square point) puts n <= 4 deep in
    # that regime
    pencil = PencilSpec("P1", 0, 1, 0)
    sols = find_bound_states(pencil.config(2.0e4), Geometry.centered(1e-2))
    pos = sorted((s.energy for s in sols if 0 < s.energy < 0.9), reverse=True)
    e = pos[:4]  # n = 1..4 (the separate n = 0 level sits near the threshold)
    for n in (2, 3, 4):
        assert e[n - 1] / e[0] == pytest.approx(1.0 / n**2, rel=0.05)


def test_h2_levels_share_the_sign_of_the_strength():
    pencil = PencilSpec("P1", 0, 1, 0)
    geom = Geometry.centered(2.0)
    for v in (6.0, -6.0):
        for s in find_bound_states(pencil.config(v), geom):
            assert np.sign(s.energy) == np.sign(v)


def test_d_type_cone_touch_level():
    # the odd family touches the k = 0 line E = V exactly at the strength
    # solving kappa(V) = V^2 l; the level there is genuine (u const, v linear)
    l = 5.0
    lo, hi = 0.1, 0.9
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if np.sqrt(1.0 - mid * mid) - mid * mid * l > 0:
            lo = mid
        else:
            hi = mid
    v_star = 0.5 * (lo + hi)
    pencil = PencilSpec("P2", -1, 1, -1)
    sols = find_bound_states(pencil.config(v_star), Geometry.centered(l))
    devs = [abs(s.energy - v_star) for s in sols if s.parity == "-"]
    assert min(devs) < 1e-8


def test_d_type_split_shrinks_with_strength():
    pencil = PencilSpec("P2", -1, 1, -1)
    geom = Geometry.centered(5.0)
    splits = []
    for v in (1.6, 2.5, 50.0):
        es = sorted(s.energy for s in find_bound_states(pencil.config(v), geom) if s.energy > 0)
        assert len(es) >= 2
        splits.append(es[-1] - es[-2])
    assert splits[0] > splits[1] >= splits[2]
    assert splits[2] < 1e-3
