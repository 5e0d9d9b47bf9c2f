import numpy as np
import pytest

from doublejets import verify
from doublejets.actions import act_P_double
from doublejets.contact import (ContactElement, DoubleContactElement,
                                QuotientVerticalVector, affine_add_contact,
                                contact_equal, contact_of, contact_plane_of,
                                decompose_contact, double_contact_equal,
                                double_contact_of, is_holonomic_contact,
                                is_semiholonomic_contact, representative,
                                split_quotient, vertical_quotient,
                                vertical_quotient_by_action)
from doublejets.core import (Dims, DoubleVelocity, Velocity,
                             as_vertical_double, split_semiholonomic)
from doublejets.groups import PrincipalJetElement
from doublejets.linalg import ChartError, close, safe_inv, scaled_error
from doublejets.sampling import (double, group_element, holonomic_double,
                                 invertible_matrix, principal_element, rng_from,
                                 semiholonomic_double, semiholonomic_element,
                                 vertical_double)
from doublejets.actions import act_L_velocity


def test_contact_of_scales_to_pivot():
    c = contact_of(Velocity(Dims(1, 2), [0, 0], [[2], [4]]))
    assert np.array_equal(c.P, [[1.0], [2.0]])


def test_contact_of_idempotent_on_echelon_form():
    v = Velocity(Dims(2, 4), np.zeros(4), [[1, 0], [0, 1], [2, 3], [4, 5]])
    c = contact_of(v)
    assert np.array_equal(c.P, v.U)
    again = contact_of(Velocity(Dims(2, 4), c.u, c.P))
    assert contact_equal(c, again)


def test_contact_of_orbit_invariance():
    for t in range(100):
        rng = rng_from(31, t)
        v = Velocity(Dims(2, 4), rng.integers(-5, 6, 4).astype(float),
                     rng.integers(-5, 6, (4, 2)).astype(float))
        if np.linalg.matrix_rank(v.U) < 2:
            continue
        g = group_element(rng, 2)
        assert contact_equal(contact_of(v), contact_of(act_L_velocity(v, g)))


def test_contact_of_errors():
    with pytest.raises(ValueError):
        contact_of(Velocity(Dims(1, 2), [0, 0], [[0], [0]]))
    with pytest.raises(ValueError):
        contact_of(Velocity(Dims(2, 2), [0, 0], np.eye(2)))


def test_contact_element_requires_echelon_form():
    with pytest.raises(ValueError):
        ContactElement(Dims(1, 2), [0, 0], [[2.0], [4.0]])


def test_contact_equal():
    c = contact_of(Velocity(Dims(1, 2), [0, 0], [[2], [4]]))
    d = contact_of(Velocity(Dims(1, 2), [0, 0], [[1], [2]]))
    assert contact_equal(c, d)
    e = contact_of(Velocity(Dims(1, 2), [1, 0], [[1], [2]]))
    assert not contact_equal(c, e)


def test_double_contact_worked_case():
    dv = DoubleVelocity(Dims(1, 2), [0, 0], [[2], [3]], [[4], [6]], [[[8]], [[14]]])
    d = double_contact_of(dv)
    assert d.I == (0,)
    assert close(d.X, [[1.5]]) and close(d.Y, [[1.5]]) and close(d.Z, [[[0.25]]])
    # the orbit contains a semiholonomic representative even though Ui != Uo
    assert is_semiholonomic_contact(d)


def test_double_contact_normalized_passthrough():
    dims = Dims(1, 3)
    Ui = np.array([[1.0], [2.0], [3.0]])
    Uo = np.array([[1.0], [4.0], [5.0]])
    W = np.zeros((3, 1, 1))
    W[1, 0, 0] = 6.0
    d = double_contact_of(DoubleVelocity(dims, np.zeros(3), Ui, Uo, W))
    assert d.I == (0,)
    assert close(d.X, [[2.0], [3.0]]) and close(d.Y, [[4.0], [5.0]])
    assert close(d.Z[0], [[6.0]])


def test_double_contact_orbit_invariance():
    for t in range(100):
        rng = rng_from(32, t)
        dv = double(rng, Dims(2, 4))
        p = principal_element(rng, 2)
        d1 = double_contact_of(dv)
        d2 = double_contact_of(act_P_double(dv, p))
        assert double_contact_equal(d1, d2)


def test_double_contact_chart_failure():
    dv = DoubleVelocity(Dims(1, 2), [0, 0], [[1], [0]], [[0], [1]],
                        np.zeros((2, 1, 1)))
    with pytest.raises(ChartError):
        double_contact_of(dv)


def test_double_contact_precondition_errors():
    vertical = DoubleVelocity(Dims(1, 2), [0, 0], [[1], [0]], [[0], [0]],
                              np.zeros((2, 1, 1)))
    with pytest.raises(ValueError):
        double_contact_of(vertical)


def test_representative_roundtrip():
    rng = rng_from(33)
    dv = double(rng, Dims(2, 4))
    d = double_contact_of(dv)
    again = double_contact_of(representative(d))
    assert double_contact_equal(d, again)


def test_double_contact_equal_across_charts():
    rng = rng_from(34)
    while True:
        dv = double(rng, Dims(2, 4))
        d = double_contact_of(dv)
        # find a second admissible chart and normalize there by hand
        from itertools import combinations
        other = None
        for I2 in combinations(range(4), 2):
            if tuple(I2) == d.I:
                continue
            rows = list(I2)
            if (abs(np.linalg.det(dv.Ui[rows])) > 0.5
                    and abs(np.linalg.det(dv.Uo[rows])) > 0.5):
                other = tuple(I2)
                break
        if other is not None:
            break
    rows = list(other)
    Asigma = safe_inv(dv.Ui[rows])
    Aphi = safe_inv(dv.Uo[rows])
    W1 = np.einsum("ahk,hi,kj->aij", dv.W, Asigma, Aphi)
    B = -np.einsum("ih,hjk->ijk", Asigma, W1[rows])
    moved = act_P_double(dv, PrincipalJetElement(2, Aphi, Asigma, B))
    comp = [i for i in range(4) if i not in other]
    d2 = DoubleContactElement(Dims(2, 4), other, dv.u, moved.Ui[comp],
                              moved.Uo[comp], moved.W[comp])
    assert d2.I != d.I
    assert double_contact_equal(d, d2)


def test_vertical_quotient_worked_value():
    dv = DoubleVelocity(Dims(1, 2), [0, 0], [[2], [3]], [[0], [0]],
                        [[[4]], [[10]]])
    q = vertical_quotient(dv)
    assert close(q.V, [[[1.0]]])
    assert close(q.base.P, [[1.0], [1.5]])
    assert q.I == (0,)


def test_vertical_quotient_zero_and_types():
    dims = Dims(2, 4)
    rng = rng_from(35)
    dv = vertical_double(rng, dims)
    zero = DoubleVelocity(dims, dv.u, dv.Ui, dv.Uo, np.zeros((4, 2, 2)))
    assert np.max(np.abs(vertical_quotient(zero).V)) == 0.0
    W = np.zeros((4, 2, 2))
    W[0, 0, 1] = W[0, 1, 0] = 2.0
    sym_dv = DoubleVelocity(dims, dv.u, dv.Ui, dv.Uo, W)
    assert vertical_quotient(sym_dv).kind == "sym"
    K = np.zeros((4, 2, 2))
    K[0, 0, 1], K[0, 1, 0] = 1.0, -1.0
    alt_dv = DoubleVelocity(dims, dv.u, dv.Ui, dv.Uo, K)
    q = vertical_quotient(alt_dv)
    assert close(q.V, -np.swapaxes(q.V, 1, 2))


def test_vertical_quotient_agrees_with_action_route():
    for t in range(100):
        rng = rng_from(36, t)
        dv = vertical_double(rng, Dims(2, 4))
        q1 = vertical_quotient(dv)
        q2 = vertical_quotient_by_action(dv)
        assert q1.I == q2.I
        assert scaled_error(q1.V, q2.V) <= 1e-9
        # the base plane is contact_of(inner_projection(dv)), bit for bit
        assert np.array_equal(q1.base.P, q2.base.P)
        assert np.array_equal(q1.base.u, q2.base.u)


def test_vertical_quotient_invariance():
    for t in range(100):
        rng = rng_from(37, t)
        dv = vertical_double(rng, Dims(2, 4))
        p = semiholonomic_element(rng, 2)
        q1 = vertical_quotient(dv)
        q2 = vertical_quotient(act_P_double(dv, p))
        assert contact_equal(q1.base, q2.base)
        assert scaled_error(q1.V, q2.V) <= 1e-9


@pytest.mark.xfail(strict=True, reason=(
    "known defect: at m=3, n=5, seed 1800923 the Ui pivot block has condition "
    "number ~120 and |V| reaches 1284, and the quotient of the acted value is "
    "skew only to a scaled residual of 1.79e-9 > tol 1e-9"))
def test_vertical_quotient_alt_seed_1800923():
    result = verify.run_property("vertical-quotient-alt", verify.p_vertical_quotient_alt,
                                 3, 5, 1, 1800923, 1e-9)
    assert result.failures == 0


def test_vertical_quotient_preconditions():
    not_vertical = DoubleVelocity(Dims(1, 2), [0, 0], [[1], [2]], [[3], [4]],
                                  np.zeros((2, 1, 1)))
    with pytest.raises(ValueError):
        vertical_quotient(not_vertical)
    degenerate = DoubleVelocity(Dims(1, 2), [0, 0], [[0], [0]], [[0], [0]],
                                np.zeros((2, 1, 1)))
    with pytest.raises(ValueError):
        vertical_quotient(degenerate)


def test_split_quotient():
    base = contact_of(Velocity(Dims(2, 4), np.zeros(4),
                               [[1, 0], [0, 1], [1, 1], [2, 2]]))
    V = np.zeros((2, 2, 2))
    V[0, 0, 1] = 1.0
    q = QuotientVerticalVector(base, (0, 1), V)
    s, a = split_quotient(q)
    assert s.V[0, 0, 1] == 0.5 and s.V[0, 1, 0] == 0.5
    assert a.V[0, 0, 1] == 0.5 and a.V[0, 1, 0] == -0.5
    assert close(s.V + a.V, V)
    with pytest.raises(ValueError):
        split_quotient(s)
    sym = np.zeros((2, 2, 2))
    sym[1, 0, 1] = sym[1, 1, 0] = 3.0
    s2, a2 = split_quotient(QuotientVerticalVector(base, (0, 1), sym))
    assert close(s2.V, sym) and np.max(np.abs(a2.V)) == 0.0


def test_contact_predicates():
    rng = rng_from(38)
    d = double_contact_of(semiholonomic_double(rng, Dims(2, 4)))
    assert is_semiholonomic_contact(d)
    bumped = DoubleContactElement(d.dims, d.I, d.u, d.X, d.Y + 1.0, d.Z)
    assert not is_semiholonomic_contact(bumped)
    Z = np.array(d.Z)
    Z[0, 0, 1] = Z[0, 1, 0] + 1.0
    asym = DoubleContactElement(d.dims, d.I, d.u, d.X, d.X, Z)
    assert is_semiholonomic_contact(asym)
    assert not is_holonomic_contact(asym)


def test_decompose_contact_holonomic_and_m1():
    rng = rng_from(39)
    d = double_contact_of(holonomic_double(rng, Dims(2, 4)))
    h, k = decompose_contact(d)
    assert double_contact_equal(h, d)
    assert np.max(np.abs(k.V)) <= 1e-9
    d1 = double_contact_of(semiholonomic_double(rng, Dims(1, 3)))
    _, k1 = decompose_contact(d1)
    assert np.max(np.abs(k1.V)) == 0.0


def test_decompose_contact_roundtrip_and_independence():
    for t in range(60):
        rng = rng_from(40, t)
        dv = semiholonomic_double(rng, Dims(2, 4))
        d = double_contact_of(dv)
        h, k = decompose_contact(d)
        assert is_holonomic_contact(h)
        assert double_contact_equal(affine_add_contact(h, k), d)
        dv_h, kv = split_semiholonomic(dv)
        assert double_contact_equal(h, double_contact_of(dv_h))
        k2 = vertical_quotient(as_vertical_double(kv))
        assert scaled_error(k.V, k2.V) <= 1e-9
        assert contact_equal(k.base, k2.base)
        p = semiholonomic_element(rng, 2)
        h3, k3 = decompose_contact(double_contact_of(act_P_double(dv, p)))
        assert double_contact_equal(h, h3)
        assert scaled_error(k.V, k3.V) <= 1e-9


def test_decompose_contact_rejects_nonsemiholonomic():
    rng = rng_from(41)
    while True:
        d = double_contact_of(double(rng, Dims(2, 4)))
        if not is_semiholonomic_contact(d):
            break
    with pytest.raises(ValueError):
        decompose_contact(d)


def test_affine_add_contact_laws():
    rng = rng_from(42)
    d = double_contact_of(semiholonomic_double(rng, Dims(2, 4)))
    base = contact_plane_of(d)
    zero = QuotientVerticalVector(base, d.I, np.zeros((2, 2, 2)))
    assert double_contact_equal(affine_add_contact(d, zero), d)
    V1 = rng.integers(-5, 6, (2, 2, 2)).astype(float)
    V2 = rng.integers(-5, 6, (2, 2, 2)).astype(float)
    q1 = QuotientVerticalVector(base, d.I, V1)
    q2 = QuotientVerticalVector(base, d.I, V2)
    q12 = QuotientVerticalVector(base, d.I, V1 + V2)
    assert double_contact_equal(affine_add_contact(affine_add_contact(d, q1), q2),
                                affine_add_contact(d, q12))


def test_affine_add_contact_symmetry_bookkeeping():
    rng = rng_from(43)
    d = double_contact_of(holonomic_double(rng, Dims(2, 4)))
    base = contact_plane_of(d)
    raw = rng.integers(-5, 6, (2, 2, 2)).astype(float)
    sym = 0.5 * (raw + np.swapaxes(raw, 1, 2))
    assert is_holonomic_contact(affine_add_contact(
        d, QuotientVerticalVector(base, d.I, sym, "sym")))
    alt = np.zeros((2, 2, 2))
    alt[0, 0, 1], alt[0, 1, 0] = 1.0, -1.0
    bent = affine_add_contact(d, QuotientVerticalVector(base, d.I, alt, "alt"))
    assert is_semiholonomic_contact(bent) and not is_holonomic_contact(bent)
    _, k = decompose_contact(bent)
    assert close(k.V, alt)


def test_affine_add_contact_mismatch_errors():
    rng = rng_from(44)
    d = double_contact_of(semiholonomic_double(rng, Dims(2, 4)))
    base = contact_plane_of(d)
    wrong_pivots = tuple(i for i in range(4) if i not in d.I)[:2]
    with pytest.raises(ValueError):
        affine_add_contact(d, QuotientVerticalVector(base, wrong_pivots,
                                                     np.zeros((2, 2, 2))))
    other_base = contact_of(Velocity(Dims(2, 4), base.u + 1.0, base.P))
    with pytest.raises(ValueError):
        affine_add_contact(d, QuotientVerticalVector(other_base, d.I,
                                                     np.zeros((2, 2, 2))))


def test_dead_leading_rows_give_the_subset_scan_chart(monkeypatch):
    """(12, 4) values whose 8 leading rows are zero: every pivot search of
    the canonicalizations, the ContactElement validation included, lands on
    the last four rows, as the per-subset scan does."""
    from test_linalg import pivot_rows_by_subset

    rng = rng_from(68)
    dims, I = Dims(4, 12), (8, 9, 10, 11)

    def dead(block):
        full = np.zeros((12,) + block.shape[1:])
        full[8:] = block
        return full

    U = dead(invertible_matrix(rng, 4))
    W = dead(rng.integers(-5, 6, size=(4, 4, 4)).astype(float))
    u = rng.integers(-5, 6, size=12)
    dv = DoubleVelocity(dims, u, U, dead(invertible_matrix(rng, 4)), W)
    semi = DoubleVelocity(dims, u, U, U, W)
    vert = DoubleVelocity(dims, u, U, np.zeros((12, 4)), W)

    def outputs():
        d = double_contact_of(dv)
        h, k = decompose_contact(double_contact_of(semi))
        q = vertical_quotient(vert)
        assert d.I == h.I == k.I == q.I == I
        return [x.to_dict() for x in (d, h, k, q)]

    fast = outputs()
    monkeypatch.setattr("doublejets.contact.pivot_rows",
                        lambda mats, m, tol=1e-9, names=None: pivot_rows_by_subset(mats, m, tol))
    assert outputs() == fast
