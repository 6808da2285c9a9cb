import numpy as np
import pytest

from triband.boundstates import general_bound_condition
from triband.model import (
    SQRT2,
    Geometry,
    OutOfValidityWindow,
    UnsupportedCombination,
)
from triband.pointlimits import (
    SqueezeLaw,
    convergence_study,
    level_parity,
    limit_energy,
    limit_matrix,
    squeezed_eigenfunction,
)
from triband.spectra import PencilSpec

H2 = PencilSpec("P1", 0.0, 1.0, 0.0)
H1 = PencilSpec("P2", 1.0, 1.0, -1.0)
W1 = PencilSpec("P1", 1.0, 0.0, 1.0)
W2 = PencilSpec("P1", 2.0, 1.0, 0.0)
P_PENCIL = PencilSpec("P1", 1.0, 1.0, 1.0)
D_PENCIL = PencilSpec("P2", -1.0, 1.0, -1.0)


def boundary_connection_residual(pi, parity, m=1.0):
    """Residual of Lambda_n applied to the squeezed boundary columns.

    The left boundary column is (2E/kappa, sqrt(2)); Lambda_n must map it to
    (-2E/kappa, sqrt(2)) for a '+' state and to (2E/kappa, -sqrt(2)) for a
    '-' state.
    """
    e = pi.e_n
    kap = np.sqrt((m - e) * (m + e))
    left = np.array([2.0 * e / kap, SQRT2])
    target = np.array([-2.0 * e / kap, SQRT2]) if parity == "+" else np.array(
        [2.0 * e / kap, -SQRT2]
    )
    got = pi.lambda_n.as_array() @ left
    return float(np.max(np.abs(got - target)))


def test_squeeze_law_scalings():
    assert SqueezeLaw("delta", 2.0).v_of_l(0.1) == pytest.approx(20.0)
    assert SqueezeLaw("inv_square", 2.0).v_of_l(0.1) == pytest.approx(200.0)
    assert SqueezeLaw("two_thirds", 2.0).v_of_l(1e-3) == pytest.approx(2.0 * 1e2)
    with pytest.raises(ValueError):
        SqueezeLaw("delta", 0.0)


def test_middle_component_ground_state_energy():
    assert limit_energy(H2, SqueezeLaw("delta", 2.0), n=0) == pytest.approx(1 / np.sqrt(2))
    assert limit_energy(H2, SqueezeLaw("delta", -2.0), n=0) == pytest.approx(-1 / np.sqrt(2))
    # excited levels are not reachable at the delta rate
    assert limit_energy(H2, SqueezeLaw("delta", 2.0), n=1) is None


def test_middle_component_inverse_square_ladder():
    law = SqueezeLaw("inv_square", 2.0)
    e1 = limit_energy(H2, law, n=1)
    assert e1 == pytest.approx(
        (np.pi**2 / 4.0) * (np.sqrt(1.0 + 16.0 / np.pi**4) - 1.0), rel=1e-12
    )
    assert e1 == pytest.approx(0.1949, abs=2e-4)
    # ordering |E0| > |E1| > |E2| > ...
    es = [limit_energy(H2, law, n=n) for n in range(5)]
    mags = [abs(e) for e in es]
    assert all(a > b for a, b in zip(mags, mags[1:]))
    assert mags[0] < 1.0


def test_type_p_periodic_two_valued_limit():
    law_vals = []
    for parity in ("+", "-"):
        law_vals.append(limit_energy(P_PENCIL, SqueezeLaw("delta", np.pi / 2), parity=parity))
    assert law_vals[0] == pytest.approx(np.sin(np.pi / 4))
    assert law_vals[1] == pytest.approx(-np.cos(np.pi / 4))
    # the two-valued function repeats with period pi (branches swap)
    rng = np.random.default_rng(2)
    for g in rng.uniform(-6, 6, size=40):
        now = {
            limit_energy(P_PENCIL, SqueezeLaw("delta", g), parity="+"),
            limit_energy(P_PENCIL, SqueezeLaw("delta", g), parity="-"),
        }
        shifted = {
            limit_energy(P_PENCIL, SqueezeLaw("delta", g + np.pi), parity="+"),
            limit_energy(P_PENCIL, SqueezeLaw("delta", g + np.pi), parity="-"),
        }
        a = sorted(now)
        b = sorted(shifted)
        assert a[0] == pytest.approx(b[0], abs=1e-12)
        assert a[1] == pytest.approx(b[1], abs=1e-12)


def test_type_d_limit_energies():
    for g in (1.5, -2.5):
        ep = limit_energy(D_PENCIL, SqueezeLaw("delta", g), parity="+")
        em = limit_energy(D_PENCIL, SqueezeLaw("delta", g), parity="-")
        th = np.tanh(abs(g) / 2.0)
        assert ep == pytest.approx(np.sign(g) / np.sqrt(1.0 + 1.0 / th**2))
        assert em == pytest.approx(np.sign(g) / np.sqrt(1.0 + th**2))


def test_w1_ground_and_ladder():
    law = SqueezeLaw("delta", 3.0)
    e0 = limit_energy(W1, law, n=0)
    assert e0 == pytest.approx(-1.0 / np.sqrt(1.0 + 9.0 / 4.0))
    lader = SqueezeLaw("inv_square", 40.0)
    e1 = limit_energy(W1, lader, n=1)
    assert e1 == pytest.approx(-np.pi**2 / 40.0)
    e2 = limit_energy(W1, lader, n=2)
    assert abs(e2) > abs(e1)  # ladder magnitudes grow with n inside the window
    with pytest.raises(OutOfValidityWindow):
        limit_energy(W1, SqueezeLaw("inv_square", 5.0), n=1)  # |beta g| < pi^2


def test_w2_ladder_and_windows():
    law = SqueezeLaw("inv_square", -20.0)
    e1 = limit_energy(W2, law, n=1)
    assert e1 == pytest.approx(-(1.0 + np.pi**2 / (2.0 * -20.0)))
    with pytest.raises(OutOfValidityWindow):
        limit_energy(W2, SqueezeLaw("inv_square", -2.0), n=1)
    # ground state requires g < 0 at the delta rate; absorbed otherwise
    assert limit_energy(W2, SqueezeLaw("delta", 2.0), n=0) is None
    g = -2.0
    assert limit_energy(W2, SqueezeLaw("delta", g), n=0) == pytest.approx(
        g / np.sqrt(4.0 + g * g)
    )
    # energies are ordered E0 < E1 < ... within the common window
    es = [limit_energy(W2, SqueezeLaw("inv_square", -60.0), n=n) for n in range(4)]
    assert all(a < b for a, b in zip(es, es[1:]))


def test_h1_two_thirds_ladder():
    law = SqueezeLaw("two_thirds", 1.1)
    e1 = limit_energy(H1, law, n=1)
    assert e1 == pytest.approx((1.0 / np.pi) ** 2 * 1.1**3)
    with pytest.raises(OutOfValidityWindow):
        limit_energy(H1, SqueezeLaw("two_thirds", 3.0), n=1)
    with pytest.raises(UnsupportedCombination):
        limit_energy(H1, SqueezeLaw("delta", 1.0), n=0)


def test_pure_outer_component_has_no_limit_states():
    pencil = PencilSpec("P1", 1.0, 0.0, 0.0)
    for fam in ("delta", "two_thirds", "inv_square"):
        assert limit_energy(pencil, SqueezeLaw(fam, 2.0), n=0) is None


def test_limit_matrices_structure():
    # ground state of the middle-component well: upper triangular, -sqrt(2) g
    g = 2.0
    pi0 = limit_matrix(H2, SqueezeLaw("delta", g), n=0)
    lam = pi0.lambda_n
    assert (lam.l11, lam.l21, lam.l22) == (1.0, 0.0, 1.0)
    assert lam.l12 == pytest.approx(-np.sqrt(2.0) * g, rel=1e-12)
    assert lam.l12 == pytest.approx(
        -2.0 * np.sqrt(2.0) * pi0.e_n / np.sqrt(1.0 - pi0.e_n**2), rel=1e-12
    )
    # W1 ground: lower triangular with beta g / sqrt(2)
    g = 3.0
    piw = limit_matrix(W1, SqueezeLaw("delta", g), n=0)
    assert piw.lambda_n.l12 == 0.0
    assert piw.lambda_n.l21 == pytest.approx(g / np.sqrt(2.0), rel=1e-12)
    # alternating sign and 2/chi_n off-diagonal for the excited ladder
    for n in (1, 2, 3):
        pin = limit_matrix(H2, SqueezeLaw("inv_square", 2.0), n=n)
        sign = -1.0 if n % 2 else 1.0
        assert pin.lambda_n.l11 == sign
        assert pin.lambda_n.l12 == pytest.approx(sign * 2.0 / pin.chi_n, rel=1e-12)
        assert pin.lambda_n.det == pytest.approx(1.0, abs=1e-12)


def test_rotation_limit_matrix_p_and_d():
    g = 1.2
    pi = limit_matrix(P_PENCIL, SqueezeLaw("delta", g), parity="+")
    lam = pi.lambda_n
    assert lam.l11 == pytest.approx(np.cos(g), rel=1e-12)
    assert lam.l12 == pytest.approx(-np.sqrt(2.0) * np.sin(g), rel=1e-12)
    assert lam.l21 == pytest.approx(np.sin(g) / np.sqrt(2.0), rel=1e-12)
    assert lam.det == pytest.approx(1.0, abs=1e-12)
    pid = limit_matrix(D_PENCIL, SqueezeLaw("delta", g), parity="+")
    lamd = pid.lambda_n
    assert lamd.l11 == pytest.approx(np.cosh(g), rel=1e-12)
    assert lamd.det == pytest.approx(1.0, rel=1e-12)


def test_limit_pairs_satisfy_master_equation():
    combos = [
        (H2, SqueezeLaw("delta", 2.0), [0], None),
        (H2, SqueezeLaw("inv_square", 2.0), [0, 1, 2, 3], None),
        (W1, SqueezeLaw("delta", 3.0), [0], None),
        (W1, SqueezeLaw("inv_square", 40.0), [0, 1], None),
        (W2, SqueezeLaw("inv_square", -60.0), [0, 1, 2], None),
        (H1, SqueezeLaw("two_thirds", 1.1), [1, 2], None),
        (P_PENCIL, SqueezeLaw("delta", 1.2), [0], "+"),
        (P_PENCIL, SqueezeLaw("delta", 1.2), [0], "-"),
        (D_PENCIL, SqueezeLaw("delta", -1.7), [0], "+"),
        (D_PENCIL, SqueezeLaw("delta", -1.7), [0], "-"),
    ]
    for pencil, law, ns, parity in combos:
        for n in ns:
            pi = limit_matrix(pencil, law, n=n, parity=parity)
            assert abs(general_bound_condition(pi.lambda_n, pi.e_n)) < 1e-10
            par = parity if parity else level_parity(
                pencil_tag(pencil), n
            )
            assert boundary_connection_residual(pi, par) < 1e-10


def pencil_tag(pencil):
    from triband.spectra import classify

    return classify(pencil).tag


def test_convergence_to_ground_state():
    rows = convergence_study(
        H2, SqueezeLaw("delta", 2.0), n=0, l_sequence=[2.0**-k for k in range(2, 9)]
    )
    errs = [r.error for r in rows]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-2
    # first order in the width: error at least halves per halving of l
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    assert all(r >= 1.8 for r in ratios[:-1])
    assert ratios[-1] >= 1.5
    orders = [r.order for r in rows[1:]]
    assert all(o > 0.8 for o in orders)


def test_convergence_w2_excited_level():
    law = SqueezeLaw("inv_square", -20.0)
    target = limit_energy(W2, law, n=1)
    rows = convergence_study(W2, law, n=1, l_sequence=[0.08, 0.04, 0.02, 0.01])
    errs = [r.error for r in rows]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert rows[-1].e_b == pytest.approx(target, abs=1e-3)


def test_convergence_type_p_plus_level():
    rows = convergence_study(
        P_PENCIL,
        SqueezeLaw("delta", np.pi / 2),
        parity="+",
        l_sequence=[0.05, 0.02, 0.008],
    )
    errs = [r.error for r in rows]
    assert errs[-1] < errs[0]
    assert rows[-1].e_b == pytest.approx(np.sin(np.pi / 4), abs=5e-3)


def test_squeezed_eigenfunction_shapes():
    # even point count keeps x = 0 (the two-sided discontinuity) off the grid
    x = np.linspace(-4, 4, 40)
    plus = squeezed_eigenfunction(P_PENCIL, SqueezeLaw("delta", np.pi / 2), parity="+", x_grid=x)
    # psi2 even, outer components odd about the origin
    for i in range(len(x)):
        s, m = plus[i], plus[len(x) - 1 - i]
        assert s.psi2 == pytest.approx(m.psi2, rel=1e-12)
        assert s.psi1 == pytest.approx(-m.psi1, rel=1e-12)
    minus = squeezed_eigenfunction(H2, SqueezeLaw("inv_square", 2.0), n=1, x_grid=x)
    for i in range(len(x)):
        s, m = minus[i], minus[len(x) - 1 - i]
        assert s.psi2 == pytest.approx(-m.psi2, rel=1e-12)
        assert s.psi1 == pytest.approx(m.psi1, rel=1e-12)
    # exterior decay at the right rate
    e1 = limit_energy(H2, SqueezeLaw("inv_square", 2.0), n=1)
    kap = np.sqrt(1 - e1 * e1)
    mag = [abs(s.psi2) for s in minus if s.x > 0]
    xs = [s.x for s in minus if s.x > 0]
    slopes = np.diff(np.log(mag)) / np.diff(xs)
    assert np.max(np.abs(slopes + kap)) < 1e-9
