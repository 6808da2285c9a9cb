"""Bracketing and refinement helpers for scalar root scans.

All solvers in this package reduce to the same pattern: evaluate a smooth
residual on a grid, bracket sign changes, refine each bracket.  Refinement is
bisection to a fixed width followed by one secant polish step that is only
accepted when it reduces the residual.  Everything works on arrays, so a
whole solve costs a fixed number of residual calls:

- `sign_change_brackets` scans many grids (rows) in one call;
- `refine_brackets` refines many bracket families in one pass.  Each
  residual call scores abscissas of every bracket, one column per bracket,
  and each bracket reads its own output of the residual (its parity).  A
  call on few brackets scores several bisection levels at once
  (POINTS_PER_CALL), with the floats of one level per call.
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


# Abscissas one bisection call may score.  A call on n brackets scores the
# next m levels of every bracket, m the largest value with
# n (2^m - 1) <= POINTS_PER_CALL, and at least 1.  A residual call on a few
# brackets costs about its fixed overhead: on a 2-core VM (numpy 2.4.6) the
# scan residual took 23 us on 1 to 64 abscissas and 34 us on 256, the
# oracle's RK4 mismatches 102 and 136 us.  So m grows there (m = 4 to 7 on
# the oracle's 2 to 15 brackets over the default verify suite), while the
# sweep's blocks of ~3,000 brackets get m = 1.  Limits of 128 to 1024 refined
# the solver's brackets equally fast.
POINTS_PER_CALL = 256


def _bisection_points(a, b, depth):
    """The 2^depth - 1 points that depth bisection levels below (a, b) can
    visit, in order along the bracket, one column per bracket.

    Built one level at a time in O(depth) array operations: every new point
    is 0.5 * (lo + hi) of its neighbours one level up, the float that the
    one-level bisection computes when its bracket is (lo, hi).
    """
    points = (0.5 * (a + b))[None]
    for _ in range(depth - 1):
        ends = np.concatenate([a[None], points, b[None]])
        fine = np.empty((2 * len(points) + 1, a.size))
        fine[::2] = 0.5 * (ends[:-1] + ends[1:])
        fine[1::2] = points
        points = fine
    return points


def refine_brackets(func, brackets, xtol: float, families, pick=None):
    """Converge every bracket to width <= xtol; vectorized bisection + secant.

    brackets is an (n, 2) array (or a list of (lo, hi) pairs), the
    concatenation of consecutive families of sizes families[0],
    families[1], ...  func maps an array of abscissas whose last axis runs
    over the brackets, (rows, n) with column i for bracket i, or (n,) when a
    call scores one level, to a sequence of residual arrays of that shape (as
    _ScanResiduals.both returns the two parities).  Residuals with strengths
    per bracket, of shape (n,), broadcast against both.  Bracket i reads
    output pick[i], by default the index of its family.  Returns one (roots,
    residuals) pair per family, sorted by root, exactly what a call on that
    family's brackets alone returns.  Brackets whose endpoints do not actually
    straddle a sign change (can happen after grid refinement around an exact
    zero) collapse to the endpoint with the smaller |f|.

    Calls: one scores both ends, and one the bisection root together with a
    secant step from the final bracket.  Between them each call scores the
    next m bisection levels of every bracket, m the largest value with
    n (2^m - 1) <= POINTS_PER_CALL (at least 1): the 2^m - 1 midpoints that
    m levels can visit, which the walk then descends with the one-level
    rules.  Every midpoint is the nested 0.5 * (lo + hi) that one level per
    call computes, so no returned float depends on m.
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
    fa, fb = f(np.stack([a, b]))
    bad = fa * fb > 0  # not a true bracket; keep best endpoint
    levels = max(1, (POINTS_PER_CALL // a.size + 1).bit_length() - 1)
    total = int(n_iter.max())
    for first in range(0, total, levels):
        depth = min(levels, total - first)
        xs = _bisection_points(a, b, depth)
        # one level goes to func as the 1-D array of its midpoints: numpy
        # takes its fast path when operands share one shape, as the
        # per-bracket strengths of a block of configurations do
        fs = f(xs) if depth > 1 else f(xs[0])[None]
        for k in range(first, first + depth):
            # the middle row of xs holds every bracket's midpoint; xs then
            # keeps the points on the side taken
            c = len(xs) // 2
            mid, fm = xs[c], fs[c]
            live = k < n_iter
            take_left = fa * fm <= 0
            left, right = live & take_left, live & ~take_left
            b = np.where(left, mid, b)
            fb = np.where(left, fm, fb)
            a = np.where(right, mid, a)
            fa = np.where(right, fm, fa)
            if c:
                xs = np.where(take_left, xs[:c], xs[c + 1 :])
                fs = np.where(take_left, fs[:c], fs[c + 1 :])
    root = 0.5 * (a + b)
    # secant polish: x depends on the final bracket alone, so a second step
    # would score the same x again
    denom = fb - fa
    safe = np.abs(denom) > 0
    x = np.where(safe, b - fb * (b - a) / np.where(safe, denom, 1.0), root)
    x = np.clip(x, np.minimum(a, b), np.maximum(a, b))
    fr, fx = f(np.stack([root, x]))
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
