"""Command-line front end: band sweeps, bound states, strength sweeps,
point-interaction limits and the self-verification suite.

The library computes with m = 1, and --m is the one rescaling: strengths and
wave numbers are divided by m and widths multiplied by it,
E(m; V, l, k) = m E(1; V/m, m l, k/m).  A preset is a set of flag defaults.
Every file output gets a JSON manifest sidecar.  Exit codes: 0 ok, 1 usage,
2 numerical domain, 3 verification failed.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from . import __version__, io_utils
from .bands import band_sweep, classify_flat
from .boundstates import N_GRID, eigenfunction, find_bound_states
from .model import DomainError, Geometry, PotentialConfig
from .pointlimits import (
    SqueezeLaw,
    convergence_study,
    limit_energy,
    limit_matrix,
    squeezed_eigenfunction,
)
from .spectra import PencilSpec, classify, sweep
from .verify import checks, run_check

FAMILY_NAMES = {"delta": "delta", "l23": "two_thirds", "l2": "inv_square"}

# canonical pencil per spectrum species
SET_PENCILS = {
    "P": PencilSpec("P1", 1.0, 1.0, 1.0),
    "D": PencilSpec("P2", -1.0, 1.0, -1.0),
    "H1": PencilSpec("P2", 1.0, 1.0, -1.0),
    "H2": PencilSpec("P1", 0.0, 1.0, 0.0),
    "W1": PencilSpec("P1", 1.0, 0.0, 1.0),
    "W2": PencilSpec("P1", 2.0, 1.0, 0.0),
}


def _sweep_preset(species, l):
    """The sweep flag defaults of the species' pencil at width l."""
    p = SET_PENCILS[species]
    return {"vertex": p.vertex, "alphas": (p.alpha1, p.alpha2, p.alpha3), "l": l}


# the flag defaults that each boundstates and sweep preset stands for
PRESETS = {
    "boundstates": {"fig3": {"v": (3.0, 3.0, 3.0), "l": 0.5}},
    "sweep": {
        "fig4": _sweep_preset("P", 0.5),
        "fig5": _sweep_preset("D", 5.0),
        "fig6": _sweep_preset("H1", 2.0),
        "fig7": _sweep_preset("H2", 2.0),
        "fig8": _sweep_preset("W1", 2.5),
        "fig9": _sweep_preset("W2", 2.0),
    },
}
POINTLIMIT_PRESET_UNREAD = ("set", "family", "g", "n", "parity", "converge", "l0", "levels")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)

    def parse_known_args(self, args=None, namespace=None):
        ns, rest = super().parse_known_args(args, namespace)
        x1, x2 = getattr(ns, "x1", None), getattr(ns, "x2", None)
        if (x1 is None) != (x2 is None):
            self.error("--x1 and --x2 must be given together")
        if x1 is not None and not x1 < x2:
            self.error(f"need --x1 < --x2, got {x1} and {x2}")
        return ns, rest


def _checked(kind, ok, what):
    """An argparse type: kind(text), rejected with a usage error unless ok."""

    def parse(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid float value"
    return parse


_finite_float = _checked(float, math.isfinite, "finite")
_positive_float = _checked(float, lambda x: 0 < x < math.inf, "positive and finite")
_nonzero_float = _checked(float, lambda x: x != 0 and math.isfinite(x), "nonzero and finite")
_positive_int = _checked(int, lambda x: x > 0, "positive")
_nonnegative_int = _checked(int, lambda x: x >= 0, "non-negative")


def _triple(text: str):
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 3 or not all(map(math.isfinite, parts)):
        raise argparse.ArgumentTypeError(f"expected three finite values a,b,c, got {text}")
    return tuple(parts)


def _index_range(text: str):
    lo, _, hi = text.partition("..")
    levels = list(range(int(lo), int(hi or lo) + 1))
    if not levels or levels[0] < 0:
        raise argparse.ArgumentTypeError(f"expected N or N0..N1 with 0 <= N0 <= N1, got {text}")
    return levels


def _write_manifests(args, record):
    """A <file>.manifest.json beside every file the command wrote: the command,
    version and parameters, plus the command's own record."""
    payload = {
        "command": args.command,
        "version": __version__,
        "parameters": {
            k: v for k, v in sorted(vars(args).items()) if k not in ("command", "func")
        },
        **record,
    }
    for path in (getattr(args, "out", None), getattr(args, "wavefunction", None)):
        if path and path != "-":
            io_utils.write_manifest(path + ".manifest.json", payload)


def cmd_bands(args):
    cfg = PotentialConfig(*(v / args.m for v in args.v))
    result = band_sweep(cfg, np.linspace(-args.kmax, args.kmax, args.nk) / args.m)
    columns = ["k", "e_minus", "e_mid", "e_plus"]  # fields of the BandTriple record
    io_utils.write_csv(
        args.out,
        [*columns, "panel_class"],
        zip(*(getattr(result.bands, c).tolist() for c in columns)),
        row_format="{:.12g},{:.12g},{:.12g},{:.12g}," + result.panel + "\r\n",
    )
    flat = classify_flat(cfg)
    sys.stderr.write(
        f"panel {result.panel}; on_A={flat.on_a} on_B={flat.on_b} "
        f"flat_energy={io_utils.fmt(flat.flat_energy)}\n"
    )
    return 0, {"panel": result.panel}


def cmd_flat(args):
    cfg = PotentialConfig(args.v11 / args.m, args.v22 / args.m, args.v33 / args.m)
    flat = classify_flat(cfg)
    print(f"on_A={str(flat.on_a).lower()}")
    print(f"on_B={str(flat.on_b).lower()}")
    print(f"flat_energy={io_utils.fmt(flat.flat_energy)}")
    return 0, {}


def _geometry(args) -> Geometry:
    if args.x1 is not None:  # the parser requires --x2 with it
        return Geometry(args.x1 * args.m, args.x2 * args.m)
    return Geometry.centered(args.l * args.m)


WAVEFUNCTION_COLUMNS = ("x", "psi1", "psi2", "psi3")


def _wavefunction_rows(label, e, wf):
    """One CSV row (label, e, x, psi1, psi2, psi3) per grid point of wf."""
    columns = np.column_stack([getattr(wf, name) for name in WAVEFUNCTION_COLUMNS])
    return [(label, e, *row) for row in columns.tolist()]


def cmd_boundstates(args):
    cfg = PotentialConfig(*(v / args.m for v in args.v))
    geom = _geometry(args)
    lv = find_bound_states(cfg, geom, n_grid=args.ngrid)
    columns = (lv.parity, lv.energy, lv.kappa, lv.residual)
    rows = zip(*(c.tolist() for c in columns))
    io_utils.write_csv(args.out, ["parity", "E_b", "kappa", "residual"], rows)
    if args.wavefunction:
        span = 2.0 * geom.l
        x = np.linspace(geom.x1 - span, geom.x2 + span, args.nx)
        wrows = []
        for s in lv:
            wrows += _wavefunction_rows(s.parity, s.energy, eigenfunction(s, cfg, geom, x))
        io_utils.write_csv(args.wavefunction, ["parity", "E_b", *WAVEFUNCTION_COLUMNS], wrows)
    return 0, {"n_states": len(lv)}


def cmd_sweep(args):
    pencil = PencilSpec(args.vertex, *args.alphas)
    geom = Geometry.centered(args.l * args.m)
    v_grid = np.linspace(args.vmin, args.vmax, args.nv) / args.m
    spectrum = sweep(pencil, geom, v_grid, n_grid=args.ngrid)
    lv, v = spectrum.levels, spectrum.v_grid[spectrum.levels.config]
    branch_id = np.empty(lv.energy.size, dtype=int)
    for b, br in enumerate(spectrum.branches):
        branch_id[br.index] = b
    # a branch holds at most one level per V index, in level order, so the
    # level index breaks a (V, E, branch id) tie as the position in it would
    index = np.lexsort((branch_id, lv.energy, v))
    k2_sign = np.sign(lv.k2[index]).astype(int)
    columns = (v[index], lv.parity[index], lv.energy[index], branch_id[index], k2_sign)
    io_utils.write_csv(
        args.out,
        ["V", "parity", "E_b", "branch_id", "k2_sign"],
        zip(*(c.tolist() for c in columns)),
        row_format="{:.12g},{},{:.12g},{},{}\r\n",
    )
    stype = classify(pencil)
    return 0, {
        "pencil": {"vertex": args.vertex, "alphas": list(args.alphas), "l": geom.l},
        "spectrum_type": stype.tag,
        "beta": stype.beta,
        "events": [list(e) for e in spectrum.events],
    }


def _table1_rows():
    """One row per tabulated squeezed matrix, each at a strength inside its
    validity window (delta rates cover ground states, l23/l2 the ladders)."""
    combos = [
        ("H1", "l23", 1.5, range(1, 4)),
        ("W1", "delta", 3.0, (0,)),
        ("W1", "l2", 45.0, range(0, 3)),
        ("H2", "delta", 2.0, (0,)),
        ("H2", "l2", 2.0, range(0, 4)),
        ("W2", "delta", -2.0, (0,)),
        ("W2", "l2", -60.0, range(0, 3)),
    ]
    out = []
    for set_tag, fam, g, ns in combos:
        pencil = SET_PENCILS[set_tag]
        law = SqueezeLaw(FAMILY_NAMES[fam], g)
        for n in ns:
            try:
                e = limit_energy(pencil, law, n=n)
            except DomainError:
                continue
            if e is None:
                continue
            pi = limit_matrix(pencil, law, n=n, e_n=e)
            lam = pi.lambda_n
            out.append(
                {
                    "set": set_tag,
                    "family": fam,
                    "g": g,
                    "n": n,
                    "E_n": e,
                    "chi_n": pi.chi_n,
                    "lambda": [[lam.l11, lam.l12], [lam.l21, lam.l22]],
                }
            )
    return out


def cmd_pointlimit(args):
    if args.preset == "table1":
        args.out = args.out or "table1.json"  # "-" is stdout
        io_utils.write_manifest(args.out, {"entries": _table1_rows()})
        return 0, {}
    if args.preset == "fig10":
        pencil = SET_PENCILS["P"]
        law = SqueezeLaw("delta", np.pi / 2.0)
        x = np.linspace(-8.0, 8.0, args.nx)
        rows = []
        for par in ("+", "-"):
            e = limit_energy(pencil, law, parity=par)
            wf = squeezed_eigenfunction(pencil, law, parity=par, x_grid=x)
            rows += _wavefunction_rows(par, e, wf)
        io_utils.write_csv(args.out, ["parity", "E_b", *WAVEFUNCTION_COLUMNS], rows)
        return 0, {}
    if args.preset == "fig11":
        pencil = SET_PENCILS["H2"]
        law = SqueezeLaw("inv_square", 2.0)
        x = np.linspace(-30.0, 30.0, args.nx)
        rows = []
        for n in range(4):
            e = limit_energy(pencil, law, n=n)
            wf = squeezed_eigenfunction(pencil, law, n=n, x_grid=x)
            rows += _wavefunction_rows(n, e, wf)
        io_utils.write_csv(args.out, ["n", "E_n", *WAVEFUNCTION_COLUMNS], rows)
        return 0, {}

    pencil = SET_PENCILS[args.set]
    law = SqueezeLaw(FAMILY_NAMES[args.family], args.g)
    rows = []
    if args.converge:
        ls = [args.l0 * 2.0**-k for k in range(args.levels)]
        for n in args.n:
            for row in convergence_study(
                pencil, law, n=n, l_sequence=ls, parity=args.parity
            ):
                rows.append((n, row.l, row.v, row.e_b, row.error, row.order))
        io_utils.write_csv(args.out, ["n", "l", "V", "E_b", "error", "order"], rows)
        return 0, {}
    for n in args.n:
        e = limit_energy(pencil, law, n=n, parity=args.parity)
        if e is None:
            rows.append((n, "", "", "", "", ""))
            continue
        pi = limit_matrix(pencil, law, n=n, e_n=e, parity=args.parity)
        lam = pi.lambda_n
        rows.append((n, e, lam.l11, lam.l12, lam.l21, lam.l22))
    io_utils.write_csv(args.out, ["n", "E_n", "l11", "l12", "l21", "l22"], rows)
    return 0, {}


def cmd_verify(args):
    ok = True
    for name, fn in checks(seed=args.seed, cases=args.cases):
        t0 = time.perf_counter()
        passed, detail = run_check(fn)
        status = "PASS" if passed else "FAIL"
        print(f"[{status}] {name}: {detail} ({time.perf_counter() - t0:.1f} s)", flush=True)
        ok = ok and passed
    return (0 if ok else 3), {}


def build_parser():
    """(parser, {command: its subparser})."""
    p = _Parser(prog="triband", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bands", help="three-band dispersion over a k grid")
    b.add_argument("--v", type=_triple, required=True, metavar="V11,V22,V33")
    b.add_argument("--m", type=_positive_float, default=1.0)
    b.add_argument("--kmax", type=_finite_float, default=5.0)
    b.add_argument("--nk", type=_positive_int, default=400)
    b.add_argument("--out", default=None)
    b.set_defaults(func=cmd_bands)

    f = sub.add_parser("flat", help="flat-band plane membership of a strength triple")
    f.add_argument("--v11", type=_finite_float, default=0.0)
    f.add_argument("--v22", type=_finite_float, default=0.0)
    f.add_argument("--v33", type=_finite_float, default=0.0)
    f.add_argument("--m", type=_positive_float, default=1.0)
    f.set_defaults(func=cmd_flat)

    bs = sub.add_parser("boundstates", help="bound states of one rectangular potential")
    bs.add_argument("--v", type=_triple, default=(0.0, 0.0, 0.0), metavar="V11,V22,V33")
    bs.add_argument("--m", type=_positive_float, default=1.0)
    width = bs.add_mutually_exclusive_group()  # --x1/--x2 place the rectangle instead
    width.add_argument("--l", type=_positive_float, default=1.0)
    width.add_argument("--x1", type=_finite_float, default=None)
    bs.add_argument("--x2", type=_finite_float, default=None)
    bs.add_argument("--preset", choices=sorted(PRESETS["boundstates"]), default=None)
    bs.add_argument("--ngrid", type=_positive_int, default=N_GRID)
    bs.add_argument("--wavefunction", default=None, help="also write samples to this CSV")
    bs.add_argument("--nx", type=_positive_int, default=801)
    bs.add_argument("--out", default=None)
    bs.set_defaults(func=cmd_boundstates)

    sw = sub.add_parser("sweep", help="bound states along a strength pencil")
    sw.add_argument("--preset", choices=sorted(PRESETS["sweep"]), default=None)
    sw.add_argument("--vertex", choices=["P1", "P2"], default="P1")
    sw.add_argument("--alphas", type=_triple, default=(1.0, 1.0, 1.0), metavar="a1,a2,a3")
    sw.add_argument("--l", type=_positive_float, default=1.0)
    sw.add_argument("--m", type=_positive_float, default=1.0)
    sw.add_argument("--vmin", type=_finite_float, default=-12.0)
    sw.add_argument("--vmax", type=_finite_float, default=12.0)
    sw.add_argument("--nv", type=_positive_int, default=2400)
    sw.add_argument("--ngrid", type=_positive_int, default=N_GRID)
    sw.add_argument("--out", default=None)
    sw.set_defaults(func=cmd_sweep)

    pl = sub.add_parser("pointlimit", help="point-interaction limits and convergence")
    pl.add_argument("--family", choices=sorted(FAMILY_NAMES), default="delta")
    pl.add_argument("--set", choices=sorted(SET_PENCILS), default="H2")
    pl.add_argument("--g", type=_nonzero_float, default=1.0)
    pl.add_argument("--n", type=_index_range, default=[0], metavar="N or N0..N1")
    pl.add_argument("--parity", choices=["+", "-"], default=None)
    pl.add_argument("--preset", choices=["fig10", "fig11", "table1"], default=None)
    pl.add_argument("--converge", action="store_true", help="run a finite-width study")
    pl.add_argument("--l0", type=_positive_float, default=0.25, help="largest width of the study")
    pl.add_argument("--levels", type=_positive_int, default=7, help="number of width halvings")
    pl.add_argument("--nx", type=_positive_int, default=601)
    pl.add_argument("--out", default=None)
    pl.set_defaults(func=cmd_pointlimit)

    vf = sub.add_parser("verify", help="oracle cross-check and invariant suite")
    vf.add_argument("--seed", type=_nonnegative_int, default=42)
    vf.add_argument("--cases", type=_positive_int, default=20)
    vf.set_defaults(func=cmd_verify)
    return p, sub.choices


def _parse(argv):
    """argv parsed again over the flag defaults its boundstates or sweep preset
    stands for.  The pointlimit presets (table1, fig10, fig11) read none of
    POINTLIMIT_PRESET_UNREAD, so giving one with them is a usage error.
    Without a preset, --parity picks the level of pointlimit sets P and D and
    must be given there; the ladder sets are indexed by --n and read no
    --parity, so giving it with them is a usage error too."""
    parser, subs = build_parser()
    args = parser.parse_args(argv)
    preset = getattr(args, "preset", None)
    if preset is None:
        if args.command == "pointlimit":
            by_parity = args.set in ("P", "D")
            if by_parity != (args.parity is not None):
                rule = "needs --parity + or -" if by_parity else "reads no --parity"
                subs["pointlimit"].error(f"--set {args.set} {rule}")
        return args
    sub = subs[args.command]
    if args.command in PRESETS:
        sub.set_defaults(**PRESETS[args.command][preset])
        return parser.parse_args(argv)
    unset = object()
    sub.set_defaults(**dict.fromkeys(POINTLIMIT_PRESET_UNREAD, unset))
    given = vars(parser.parse_args(argv))
    flags = [f"--{k}" for k in POINTLIMIT_PRESET_UNREAD if given[k] is not unset]
    if flags:
        sub.error(f"--preset {preset} reads none of {', '.join(flags)}")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    t0 = time.perf_counter()
    try:
        # overflow, division by zero and invalid operations are numerical
        # trouble like a DomainError; underflow is not (exterior tails decay)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            # (exit code, the command's part of the manifest of each file it wrote)
            code, record = args.func(args)
    except (DomainError, FloatingPointError) as exc:
        sys.stderr.write(f"numerical domain error: {exc}\n")
        return 2
    _write_manifests(args, {**record, "elapsed_s": time.perf_counter() - t0})
    return code


if __name__ == "__main__":
    sys.exit(main())
