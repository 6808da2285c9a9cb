"""Bracketing and refinement helpers for scalar root scans.

All solvers in this package reduce to the same pattern: evaluate a smooth
residual on a grid, bracket sign changes, refine each bracket.  Refinement is
bisection to a fixed width followed by one secant polish step that is only
accepted when it reduces the residual.  Everything works on arrays, so a
whole solve costs a fixed number of residual calls:

- `sign_change_brackets` scans many grids (rows) in one call, and returns
  the brackets as one record: an (n, 2) array of [lo, hi] and the (2, n)
  residuals at both ends, which the scan has already computed;
- `refine_brackets` refines many bracket families in one pass, from the
  record, so it scores no bracket end again.  Each residual call scores
  abscissas of every bracket, one column per bracket, and each bracket
  reads its own output of the residual (its parity).  A call on few
  brackets scores several bisection levels at once
  (POINTS_PER_CALL): a table of each bracket's ends and nested midpoints,
  which the walk halves once per level, with the floats of one level per
  call.  Each bracket keeps the bisection count of its own family,
  ceil(log2(widest bracket of the family / xtol)) + 1, and a call ends where
  a family's count ends, so every family gets exactly the floats a separate
  call on its brackets would return.  The bound-state solver makes one family
  per (configuration, parity): a block of 16 V points of a sweep, both
  parities each, goes through one pass (see boundstates.BLOCK_SIZE).
"""

from __future__ import annotations

import numpy as np


def sign_change_brackets(x, f, lengths):
    """(brackets, f_ends) of the cells [x_i, x_{i+1}] where f changes sign.

    x and f hold consecutive rows (ascending grids) of the given lengths,
    each scanned on its own: no bracket spans two rows.  An exact zero at x_i
    gives the bracket spanned by its neighbours within the row.  brackets is
    an (n, 2) array of [lo, hi], the sign changes in scan order, then the
    exact zeros; f_ends is the (2, n) array of f at lo and at hi, as
    refine_brackets takes it.
    """
    x, f = np.asarray(x, dtype=float), np.asarray(f, dtype=float)
    s = np.sign(f)
    # the last point of every row; end[i - 1] is True where i starts a row,
    # i = 0 included, as end[-1] holds the last point
    end = np.zeros(x.size, dtype=bool)
    end[np.cumsum(lengths, dtype=int) - 1] = True
    idx = np.flatnonzero((s[:-1] * s[1:] < 0) & ~end[:-1])
    hits = np.flatnonzero(s == 0)
    left = np.where(end[hits - 1], hits, hits - 1)
    right = np.where(end[hits], hits, hits + 1)
    wide = x[left] < x[right]
    lo, hi = np.concatenate([idx, left[wide]]), np.concatenate([idx + 1, right[wide]])
    return np.stack([x[lo], x[hi]], axis=1), np.stack([f[lo], f[hi]])


def segment_grids(segments, n_grid: int):
    """(x, lengths): uniform grids of the (lo, hi) segments, concatenated,
    and the array of their sizes; the n_grid points are shared in proportion
    to segment length, with at least 16 per segment."""
    total = sum(shi - slo for slo, shi in segments)
    lengths = [max(16, int(round(n_grid * (shi - slo) / total))) for slo, shi in segments]
    x = np.concatenate([np.linspace(*seg, n) for seg, n in zip(segments, lengths)])
    return x, np.array(lengths)


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


def refine_brackets(func, brackets, xtol: float, families, pick=None, *, f_ends):
    """Converge every bracket to width <= xtol; vectorized bisection + secant.

    brackets is an (n, 2) array of [lo, hi], the concatenation of
    consecutive families of sizes families[0], families[1], ..., and f_ends
    the (2, n) array of residuals at lo and at hi, as sign_change_brackets
    returns them.  func maps an array of abscissas whose last axis runs over
    the brackets, (rows, n) with column i for bracket i, or (n,) when a call
    scores one level, to a sequence of one or two residual arrays of that
    shape (as _ScanResiduals.both returns the two parities).  Residuals with
    strengths per bracket, of shape (n,), broadcast against both.  Bracket i
    reads output pick[i], 0 or 1, by default the index of its family.
    Returns one (roots, residuals) pair per family, sorted by root, exactly
    what a call on that family's brackets alone returns.  Brackets whose
    endpoints do not actually straddle a sign change (can happen after grid
    refinement around an exact zero) collapse to the endpoint with the
    smaller |f|.

    Calls: the ends come scored, and the last call scores the bisection root
    together with a secant step from the final bracket.  Before it each call
    scores the next m bisection levels of every bracket, m the largest value
    with n (2^m - 1) <= POINTS_PER_CALL (at least 1).  Its table holds rows a,
    the 2^m - 1 nested midpoints 0.5 * (lo + hi) that m levels can visit,
    and b; the walk halves it m times, keeping the half whose first and last
    rows still bracket a sign change, so those two rows are always the
    current bracket.  Each family bisects ceil(log2(widest bracket / xtol))
    + 1 times, and a call ends where the smallest count not yet spent ends,
    so no bracket walks past its own count; brackets whose count is spent
    keep their ends.  Every float is then the one that one level per call
    and one call per family compute, whatever m and the other families.
    """
    sizes = list(families)
    brackets = np.asarray(brackets, dtype=float).reshape(-1, 2)
    n = len(brackets)
    if n == 0:
        return [(np.empty(0), np.empty(0)) for _ in sizes]
    if pick is None:
        pick = np.repeat(np.arange(len(sizes)), sizes)
    second = np.asarray(pick) == 1

    def f(x):
        outs = func(x)
        return np.where(second, outs[1], outs[0]) if len(outs) > 1 else outs[0]

    # rows a and b of every bracket (column), and their residuals
    ends = brackets.T.copy()
    bad = f_ends[0] * f_ends[1] > 0  # not a true bracket; keep best endpoint
    # every bracket gets the bisection count of the widest one in its family
    cuts = np.cumsum(sizes)[:-1]
    counts = [
        int(np.ceil(np.log2(max(np.max(w), xtol) / xtol))) + 1 if w.size else 0
        for w in np.split(ends[1] - ends[0], cuts)
    ]
    n_iter = np.repeat(counts, sizes)
    levels = max(1, (POINTS_PER_CALL // n + 1).bit_length() - 1)
    done = 0
    while done < max(counts):
        # a call stops where a count ends, so no bracket whose count is not
        # spent walks past it; spent ones keep their ends (live, below)
        depth = min(levels, min(c for c in counts if c > done) - done)
        # rows a, the 2^depth - 1 nested midpoints in order, and b
        xs = ends
        for _ in range(depth):
            fine = np.empty((2 * len(xs) - 1, n))
            fine[::2] = xs
            fine[1::2] = 0.5 * (xs[:-1] + xs[1:])
            xs = fine
        fs = np.empty_like(xs)
        fs[0], fs[-1] = f_ends
        # one level goes to func as the 1-D array of its midpoints: numpy
        # takes its fast path when operands share one shape, as the
        # per-bracket strengths of a block of configurations do
        fs[1:-1] = f(xs[1:-1] if depth > 1 else xs[1])
        # the middle row holds every bracket's midpoint; keep the half whose
        # ends still bracket the sign change
        for _ in range(depth):
            c = len(xs) // 2
            left = fs[0] * fs[c] <= 0
            xs = np.where(left, xs[: c + 1], xs[c:])
            fs = np.where(left, fs[: c + 1], fs[c:])
        live = n_iter > done
        ends = np.where(live, xs, ends)
        f_ends = np.where(live, fs, f_ends)
        done += depth
    (a, b), (fa, fb) = ends, f_ends
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


def edge_ladder(edge, inward, span):
    """Log-spaced abscissas approaching `edge` from the `inward` direction.

    72 points, 24 per decade, cover distances from `span` down to span/10^3;
    used to recover roots that sit close to an excluded window or to the
    domain boundary.  edge, inward and span may be arrays of one shape s:
    the result then has shape s + (72,), one ladder per last-axis row.
    """
    d = np.logspace(np.log10(span), np.log10(span / 1e3), 72, axis=-1)
    return np.asarray(edge)[..., None] + np.asarray(inward)[..., None] * d
