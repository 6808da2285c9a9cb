"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with -s or in the failure
report).  Numbered test names keep the criterion <-> test mapping obvious.
"""

import time

import numpy as np
import pytest

import triband as tb
from triband.bands import dispersion_bands
from triband.boundstates import find_bound_states, split_residuals
from triband.model import Geometry, PotentialConfig
from triband.pointlimits import SqueezeLaw, convergence_study, limit_energy
from triband.spectra import PencilSpec, asymptotic_energy, classify, cutoff_values
from triband.verify import check_oracle_agreement, crosscheck_config, run_all


def report(num: int, ok: bool, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}"
    print(line)
    return ok


def test_criterion_01_reference_two_level_potential():
    t0 = time.perf_counter()
    sols = find_bound_states(PotentialConfig(3.0, 3.0, 3.0), Geometry.centered(0.5))
    elapsed = time.perf_counter() - t0
    by_parity = {s.parity: s.energy for s in sols}
    ok = (
        len(sols) == 2
        and abs(by_parity["+"] - 0.56) <= 0.01
        and abs(by_parity["-"] - (-0.65)) <= 0.01
        and elapsed < 1.0
    )
    assert report(
        1,
        ok,
        f"2 levels E+={by_parity.get('+'):.4f} E-={by_parity.get('-'):.4f} "
        f"({elapsed * 1e3:.0f} ms)",
    )


def test_criterion_02_flat_band_invariance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    ks = np.linspace(-5.0, 5.0, 100)
    worst = 0.0
    for _ in range(50):
        v11, v22 = rng.uniform(-5, 5, size=2)
        cfg = PotentialConfig(v11, v22, 2.0 * v22 - v11)
        for k in ks:
            worst = max(worst, abs(dispersion_bands(cfg, k).e_mid - v22))
    for _ in range(50):
        v11, v22 = rng.uniform(-5, 5, size=2)
        cfg = PotentialConfig(v11, v22, v11 + 2.0)
        for k in ks:
            worst = max(worst, abs(dispersion_bands(cfg, k).e_mid - (v11 + 1.0)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 5.0
    assert report(2, ok, f"middle-band max |dev| = {worst:.2e} over 100 configs ({elapsed:.1f} s)")


def test_criterion_03_uniform_shift_spectrum():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(10):
        v = rng.uniform(-5, 5)
        k = rng.uniform(-5, 5)
        tr = dispersion_bands(PotentialConfig(v, v, v), k)
        ref = np.sqrt(k * k + 1.0)
        worst = max(
            worst,
            abs(tr.e_mid - v),
            abs(tr.e_plus - (v + ref)),
            abs(tr.e_minus - (v - ref)),
        )
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 1.0
    assert report(3, ok, f"max |dev| = {worst:.2e} over 10 draws ({elapsed * 1e3:.0f} ms)")


def test_criterion_04_delta_limit_ground_state():
    t0 = time.perf_counter()
    pencil = PencilSpec("P1", 0.0, 1.0, 0.0)
    rows = convergence_study(
        pencil, SqueezeLaw("delta", 2.0), n=0, l_sequence=[2.0**-k for k in range(2, 9)]
    )
    elapsed = time.perf_counter() - t0
    errs = [r.error for r in rows]
    monotone = all(a > b for a, b in zip(errs, errs[1:]))
    ok = monotone and errs[-1] < 1e-2 and elapsed < 10.0
    assert report(
        4,
        ok,
        f"E -> m/sqrt(2); errors {errs[0]:.2e} .. {errs[-1]:.2e}, monotone={monotone} "
        f"({elapsed:.1f} s)",
    )


def test_criterion_05_inverse_square_excited_levels():
    t0 = time.perf_counter()
    g, l = 2.0, 1e-2
    cfg = PencilSpec("P1", 0.0, 1.0, 0.0).config(g / (l * l))
    sols = find_bound_states(cfg, Geometry.centered(l))
    rel_errs = []
    for n in (1, 2, 3):
        q = (n * np.pi) ** 2
        target = q / (2.0 * g) * (np.sqrt(1.0 + 4.0 * g * g / q**2) - 1.0)
        nearest = min((s.energy for s in sols), key=lambda e: abs(e - target))
        rel_errs.append(abs(nearest - target) / target)
    elapsed = time.perf_counter() - t0
    ok = max(rel_errs) < 0.01 and elapsed < 10.0
    assert report(
        5,
        ok,
        "relative errors n=1..3: " + ", ".join(f"{e:.2%}" for e in rel_errs) + f" ({elapsed:.1f} s)",
    )


def test_criterion_06_asymptotic_periodicity():
    t0 = time.perf_counter()
    pencil = PencilSpec("P1", 1.0, 1.0, 1.0)
    stype = classify(pencil)
    geom = Geometry.centered(0.5)
    # On this pencil (v1, v2, v3) = (V + m, V, V - m), so k^2 = (E - V)^2 - m^2
    # exactly and the interior phase is k l/2 = (V - E) l/2 + O(1/V).  The
    # one-point law at g = V l drops the -E l/2 part, an offset that does not
    # shrink with V; evaluated at V - E it keeps it, leaving only the O(1/V)
    # remainder.  Every level must satisfy e = law(V - e) for its parity.
    max_errs = []
    for v in (25.0, 50.0, 100.0):
        sols = find_bound_states(pencil.config(v), geom)
        errs = []
        for par in ("+", "-"):
            cands = [s.energy for s in sols if s.parity == par]
            assert cands, f"no {par} level at V={v}"
            errs.extend(abs(e - asymptotic_energy(stype, v - e, geom)[par]) for e in cands)
        max_errs.append(max(errs))
    elapsed = time.perf_counter() - t0
    monotone = max_errs[0] > max_errs[1] > max_errs[2]
    ok = max_errs[2] < 2e-2 and monotone and elapsed < 30.0
    assert report(
        6,
        ok,
        f"max |E - law(V - E)| at V=25,50,100: "
        f"{max_errs[0]:.1e}, {max_errs[1]:.1e}, {max_errs[2]:.1e} "
        f"(require <2e-2 at V=100 and monotone decrease; {elapsed:.1f} s)",
    )


def test_criterion_07_double_level_merging():
    t0 = time.perf_counter()
    pencil = PencilSpec("P2", -1.0, 1.0, -1.0)
    geom = Geometry.centered(5.0)
    limit = 1.0 / np.sqrt(2.0)
    details = []
    ok = True
    for v in (50.0, -50.0):
        sols = find_bound_states(pencil.config(v), geom)
        same_sign = sorted(s.energy for s in sols if np.sign(s.energy) == np.sign(v))
        pair = same_sign[-2:] if v > 0 else same_sign[:2]
        split = abs(pair[1] - pair[0])
        dev = max(abs(e - np.sign(v) * limit) for e in pair)
        ok = ok and split < 1e-3 and dev < 1e-2
        details.append(f"V={v:+.0f}: split={split:.1e}, |E - sgn(V)m/sqrt2|={dev:.1e}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    assert report(7, ok, "; ".join(details) + f" ({elapsed:.1f} s)")


def _upper_gap_count(pencil, geom, v):
    sols = find_bound_states(pencil.config(v), geom, n_grid=3000)
    return sum(1 for s in sols if s.energy > 0.2)


def test_criterion_08_h1_cutoffs_and_simple_branch():
    t0 = time.perf_counter()
    pencil = PencilSpec("P2", 1.0, 1.0, -1.0)
    stype = classify(pencil)
    geom = Geometry.centered(2.0)
    dv = 0.01
    cutoff_ok = True
    details = []
    for n in (1, 2, 3):
        v_star = cutoff_values(stype, geom, n)[-1]  # positive-side root
        vs = np.arange(v_star - 0.15, v_star + 0.15, dv)
        counts = [_upper_gap_count(pencil, geom, v) for v in vs]
        drops = [vs[i + 1] for i in range(len(vs) - 1) if counts[i + 1] < counts[i]]
        hit = min(drops, key=lambda v: abs(v - v_star)) if drops else np.nan
        cutoff_ok = cutoff_ok and drops and abs(hit - v_star) <= 3 * dv
        details.append(f"n={n}: drop at {hit:.3f} vs root {v_star:.3f}")

    # No level follows E+ = -V (there r_plus = 1 + kappa l).  The split
    # equations degenerate on the line E = v1 = v2 = V instead: kappa (1 - v2/E)
    # and k^2 both vanish, so r_minus is zero by construction, but the
    # connection matrix is the identity and cannot join the left-decaying edge
    # spinor to the right-decaying one (the unsplit condition equals 2), so no
    # state exists.  The solver must drop that line, and solver and oracle
    # must agree on the levels around it.
    line_residuals = []
    line_devs = []
    for v in (-0.8, -0.5, -0.2, 0.2, 0.5, 0.8):
        cfg = pencil.config(v)
        line_residuals.append(abs(split_residuals(cfg, geom, v)[1]))
        line_devs.append(min(abs(s.energy - v) for s in find_bound_states(cfg, geom)))
    line_ok = max(line_residuals) < 1e-12 and min(line_devs) > 1e-3
    oracle_details = []
    for v in (-0.5, 0.5):
        agree, n_solver, n_oracle, diff = crosscheck_config(pencil.config(v), geom)
        line_ok = line_ok and agree
        oracle_details.append(f"V={v:+.1f}: {n_solver}/{n_oracle} levels, |dE|={diff:.1e}")
    elapsed = time.perf_counter() - t0
    ok = bool(cutoff_ok and line_ok)
    assert report(
        8,
        ok,
        "; ".join(details)
        + f"; E = V line: max |r_minus| = {max(line_residuals):.1e} (require < 1e-12), "
        + f"min |E - V| over levels = {min(line_devs):.2e} (require > 1e-3); oracle "
        + ", ".join(oracle_details)
        + f" ({elapsed:.1f} s)",
    )


def test_criterion_09_w1_detachment_staircase():
    t0 = time.perf_counter()
    pencil = PencilSpec("P1", 1.0, 0.0, 1.0)
    stype = classify(pencil)
    geom = Geometry.centered(2.5)
    # counts are finite once va = V has left the gap and the upward-moving
    # levels have exited (V >= 2m); below that the spectrum accumulates at va
    vs = np.arange(2.0, 45.0, 0.05)
    counts = np.array(
        [len(find_bound_states(pencil.config(v), geom, n_grid=3000)) for v in vs]
    )
    nondecreasing = bool(np.all(np.diff(counts) >= 0))
    steps = vs[np.where(np.diff(counts) > 0)[0] + 1]
    step_ok = True
    step_details = []
    for n in (3, 4, 5):
        v_n = cutoff_values(stype, geom, n)[-1]
        nearest = steps[np.argmin(np.abs(steps - v_n))]
        rel = abs(nearest - v_n) / v_n
        step_ok = step_ok and rel < 0.10
        step_details.append(f"n={n}: step {nearest:.2f} vs {v_n:.2f} ({rel:.1%})")

    # -(n pi/l)^2/(beta V) is the inv_square one-point law at g = V l^2.  At
    # fixed l its relative error tends to a V-independent constant of about
    # 4 m l/(n pi)^2, so it is checked along the squeeze path g = 625 (V = 100
    # at l = 2.5), where the error must shrink with l.
    g = 100.0 * 2.5**2
    rel_errs = {}
    for l in (2.5, 1.25, 0.625):
        squeezed = Geometry.centered(l)
        v = g / l**2
        sols = find_bound_states(pencil.config(v), squeezed)
        for n in (3, 4, 5):
            pred = asymptotic_energy(stype, v, squeezed, n=n)["n"]
            nearest = min((s.energy for s in sols), key=lambda e: abs(e - pred))
            rel_errs.setdefault(n, []).append(abs(nearest - pred) / abs(pred))
    energy_ok = all(
        errs[0] > errs[1] > errs[2] and errs[2] < 0.05 for errs in rel_errs.values()
    )
    energy_details = [
        f"n={n}: " + "/".join(f"{e:.1%}" for e in errs) for n, errs in rel_errs.items()
    ]
    elapsed = time.perf_counter() - t0
    ok = bool(nondecreasing and step_ok and energy_ok)
    assert report(
        9,
        ok,
        f"nondecreasing[2,45]={nondecreasing}; "
        + "; ".join(step_details)
        + "; E_n vs -(n pi/l)^2/(beta V) at g=V l^2=625, l=2.5/1.25/0.625: "
        + ", ".join(energy_details)
        + f" (require decrease with l and <5% at l=0.625; {elapsed:.1f} s)",
    )


def test_criterion_10_oracle_equivalence():
    t0 = time.perf_counter()
    ok, detail = check_oracle_agreement(seed=42, cases=20)
    elapsed = time.perf_counter() - t0
    ok = bool(ok and elapsed < 60.0)
    assert report(10, ok, f"{detail} ({elapsed:.1f} s)")


def test_criterion_11_property_suite():
    t0 = time.perf_counter()
    results = run_all(seed=42, cases=20)
    elapsed = time.perf_counter() - t0
    failed = [name for name, ok, _ in results if not ok]
    ok = not failed and elapsed < 60.0
    assert report(
        11,
        ok,
        f"{len(results)} checks, failed: {failed or 'none'} ({elapsed:.1f} s)",
    )
