"""Bracketing and refinement helpers for scalar root scans.

All solvers in this package reduce to the same pattern: evaluate a smooth
residual on a grid, bracket sign changes, refine each bracket.  Refinement is
bisection to a fixed width followed by two secant polish steps that are only
accepted when they reduce the residual.  Everything works on arrays, so a
whole solve costs a fixed number of residual calls:

- `sign_change_brackets` scans many grids (rows) in one call;
- `refine_brackets` refines many bracket families in one pass.  The residual
  is evaluated once per step on the abscissas of every bracket, in bracket
  order, and each bracket reads its own output of the residual (its parity).
  Each bracket keeps the bisection count of its own family,
  ceil(log2(widest bracket of the family / xtol)) + 1, and is frozen once
  that count is spent, so every family gets exactly the floats a separate
  call on its brackets would return.  The bound-state solver makes one family
  per (configuration, parity): a block of 16 V points of a sweep, both
  parities each, goes through one pass (see boundstates.BLOCK_SIZE).
"""

from __future__ import annotations

import numpy as np


def sign_change_brackets(x, f, lengths) -> list[tuple[float, float]]:
    """Brackets [x_i, x_{i+1}] where f changes sign (exact zeros included).

    x and f hold consecutive rows (grids) of the given lengths, each scanned
    on its own: no bracket spans two rows.  An exact zero at x_i gives the
    bracket spanned by its neighbours within the row.
    """
    x = np.asarray(x, dtype=float)
    s = np.sign(f)
    # first and last index of the row of every point
    last = np.repeat(np.cumsum(lengths) - 1, lengths)
    first = last - np.repeat(lengths, lengths) + 1
    idx = np.flatnonzero(s[:-1] * s[1:] < 0)
    idx = idx[idx < last[idx]]
    lo = np.minimum(x[idx], x[idx + 1])
    hi = np.maximum(x[idx], x[idx + 1])
    hits = np.flatnonzero(s == 0)
    left = x[np.maximum(hits - 1, first[hits])]
    right = x[np.minimum(hits + 1, last[hits])]
    hit_lo, hit_hi = np.minimum(left, right), np.maximum(left, right)
    wide = hit_hi > hit_lo
    out = list(zip(lo.tolist(), hi.tolist()))
    out.extend(zip(hit_lo[wide].tolist(), hit_hi[wide].tolist()))
    return sorted(out)


def segment_grids(segments, n_grid: int) -> list[np.ndarray]:
    """One uniform grid per (lo, hi) segment; the n_grid points are shared in
    proportion to segment length, with at least 16 per segment."""
    total = sum(shi - slo for slo, shi in segments)
    return [
        np.linspace(slo, shi, max(16, int(round(n_grid * (shi - slo) / total))))
        for slo, shi in segments
    ]


def refine_brackets(func, brackets, xtol: float, families, pick=None):
    """Converge every bracket to width <= xtol; vectorized bisection + secant.

    brackets is an (n, 2) array (or a list of (lo, hi) pairs), the
    concatenation of consecutive families of sizes families[0],
    families[1], ...  func maps an array holding one abscissa per bracket, in
    bracket order, to a sequence of residual arrays (as _ScanResiduals.both
    returns the two parities); bracket i reads output pick[i], by default the
    index of its family.  Returns one (roots, residuals) pair per family,
    sorted by root, exactly what a call on that family's brackets alone
    returns.  Brackets whose endpoints do not actually straddle a sign change
    (can happen after grid refinement around an exact zero) collapse to the
    endpoint with the smaller |f|.
    """
    sizes = list(families)
    brackets = np.asarray(brackets, dtype=float).reshape(-1, 2)
    if brackets.size == 0:
        return [(np.empty(0), np.empty(0)) for _ in sizes]
    a = brackets[:, 0].copy()
    b = brackets[:, 1].copy()
    if pick is None:
        pick = np.repeat(np.arange(len(sizes)), sizes)

    def f(x):
        return np.choose(pick, func(x))

    # every bracket gets the bisection count of the widest one in its family
    cuts = np.cumsum(sizes)[:-1]
    counts = [
        int(np.ceil(np.log2(max(np.max(w), xtol) / xtol))) + 1 if w.size else 0
        for w in np.split(b - a, cuts)
    ]
    n_iter = np.repeat(counts, sizes)
    fa = f(a)
    fb = f(b)
    bad = fa * fb > 0  # not a true bracket; keep best endpoint
    for k in range(int(n_iter.max())):
        mid = 0.5 * (a + b)
        fm = f(mid)
        live = k < n_iter
        take_left = fa * fm <= 0
        left, right = live & take_left, live & ~take_left
        b = np.where(left, mid, b)
        fb = np.where(left, fm, fb)
        a = np.where(right, mid, a)
        fa = np.where(right, fm, fa)
    root = 0.5 * (a + b)
    fr = f(root)
    for _ in range(2):  # secant polish
        denom = fb - fa
        safe = np.abs(denom) > 0
        x = np.where(safe, b - fb * (b - a) / np.where(safe, denom, 1.0), root)
        x = np.clip(x, np.minimum(a, b), np.maximum(a, b))
        fx = f(x)
        better = np.abs(fx) < np.abs(fr)
        root = np.where(better, x, root)
        fr = np.where(better, fx, fr)
    if np.any(bad):
        pick_a = np.abs(fa) < np.abs(fb)
        fallback = np.where(pick_a, a, b)
        f_fall = np.where(pick_a, fa, fb)
        root = np.where(bad, fallback, root)
        fr = np.where(bad, f_fall, fr)
    out = []
    for r, f_r in zip(np.split(root, cuts), np.split(fr, cuts)):
        order = np.argsort(r)
        out.append((r[order], f_r[order]))
    return out


def dedup_sorted(roots: np.ndarray, residuals: np.ndarray, tol: float):
    """Merge sorted roots closer than tol, keeping the smaller residual."""
    if roots.size == 0:
        return roots, residuals
    keep_r = [float(roots[0])]
    keep_f = [float(residuals[0])]
    for r, f in zip(roots[1:], residuals[1:]):
        if r - keep_r[-1] < tol:
            if abs(f) < abs(keep_f[-1]):
                keep_r[-1] = float(r)
                keep_f[-1] = float(f)
        else:
            keep_r.append(float(r))
            keep_f.append(float(f))
    return np.array(keep_r), np.array(keep_f)


def subtract_windows(lo: float, hi: float, windows) -> list[tuple[float, float]]:
    """Split [lo, hi] into segments avoiding the given (open) windows."""
    segs = [(lo, hi)]
    for wlo, whi in sorted(windows):
        nxt = []
        for slo, shi in segs:
            if whi <= slo or wlo >= shi:
                nxt.append((slo, shi))
                continue
            if wlo > slo:
                nxt.append((slo, wlo))
            if whi < shi:
                nxt.append((whi, shi))
        segs = nxt
    return [s for s in segs if s[1] > s[0]]


def edge_ladder(edge: float, inward: float, span: float):
    """Log-spaced abscissas approaching `edge` from the `inward` direction.

    72 points, 24 per decade, cover distances from `span` down to span/10^3;
    used to recover roots that sit close to an excluded window or to the
    domain boundary.
    """
    d = np.logspace(np.log10(span), np.log10(span / 1e3), 72)
    return edge + inward * d
