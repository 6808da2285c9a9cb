"""One-level bisection refinement, kept as a test reference.

This is how rootfind.refine_brackets refined a single family with one
residual output before it scored several bisection levels per call: one
residual call per end, one per bisection level, one at the bisection root and
one per secant polish step (two of them).  The multi-level refinement must
return the same floats.
"""

import numpy as np


def ref_refine(func, brackets, xtol):
    if not brackets:
        return np.empty(0), np.empty(0)
    a = np.array([b[0] for b in brackets], dtype=float)
    b = np.array([b[1] for b in brackets], dtype=float)
    fa, fb = func(a), func(b)
    bad = fa * fb > 0
    for _ in range(int(np.ceil(np.log2(max(np.max(b - a), xtol) / xtol))) + 1):
        mid = 0.5 * (a + b)
        fm = func(mid)
        left = fa * fm <= 0
        a, b = np.where(left, a, mid), np.where(left, mid, b)
        fa, fb = np.where(left, fa, fm), np.where(left, fm, fb)
    root = 0.5 * (a + b)
    fr = func(root)
    for _ in range(2):
        denom = fb - fa
        safe = np.abs(denom) > 0
        x = np.where(safe, b - fb * (b - a) / np.where(safe, denom, 1.0), root)
        x = np.clip(x, np.minimum(a, b), np.maximum(a, b))
        fx = func(x)
        better = np.abs(fx) < np.abs(fr)
        root, fr = np.where(better, x, root), np.where(better, fx, fr)
    pick_a = np.abs(fa) < np.abs(fb)
    root = np.where(bad, np.where(pick_a, a, b), root)
    fr = np.where(bad, np.where(pick_a, fa, fb), fr)
    order = np.argsort(root)
    return root[order], fr[order]
