import numpy as np
import pytest

from doublejets.core import Dims
from doublejets.groups import (JetGroupElement, PrincipalJetElement,
                               SecondOrderJetElement, compose_L, compose_P,
                               embed_L, exchange_P, factor_P,
                               factor_semiholonomic, from_second_order,
                               identity_L, identity_P, inverse_L, inverse_P,
                               is_curvature_P, is_holonomic_P,
                               is_semiholonomic_P, lambda_P, mu_P,
                               symmetrize_P, to_second_order)
from doublejets.linalg import close, scaled_error
from doublejets.oracle import PolyMap, compose_second_order
from doublejets.sampling import (principal_element, rng_from,
                                 semiholonomic_element)


def perr(a, b):
    return max(scaled_error(a.Aphi, b.Aphi), scaled_error(a.Asigma, b.Asigma),
               scaled_error(a.B, b.B))


def P1(aphi, asigma, b):
    return PrincipalJetElement(1, [[float(aphi)]], [[float(asigma)]], [[[float(b)]]])


def test_construction_rejects_singular_blocks():
    with pytest.raises(ValueError):
        JetGroupElement(2, [[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(ValueError):
        PrincipalJetElement(1, [[0.0]], [[1.0]], [[[0.0]]])


def test_invertibility_does_not_depend_on_units():
    """Small well-conditioned blocks are invertible (|det| = 1e-15 at
    1e-5 * I); a singular block stays singular at any scale."""
    for c in (1e-5, 1e-8, 1e5, 1e8):
        p = PrincipalJetElement(3, c * np.eye(3), c * np.eye(3), np.zeros((3, 3, 3)))
        assert perr(compose_P(p, inverse_P(p)), identity_P(3)) <= 1e-9
        assert close(inverse_L(JetGroupElement(2, c * np.array([[1.0, 2.0], [3.0, 4.0]]))).A,
                     np.array([[-2.0, 1.0], [1.5, -0.5]]) / c)
        with pytest.raises(ValueError, match="A must be invertible"):
            JetGroupElement(2, c * np.array([[1.0, 2.0], [2.0, 4.0]]))
        with pytest.raises(ValueError, match="Asigma must be invertible"):
            PrincipalJetElement(2, c * np.eye(2), c * np.array([[1.0, 0.0], [0.0, 0.0]]),
                                np.zeros((2, 2, 2)))



def test_principal_element_checks_aphi_first_and_asigma_when_it_differs():
    """Asigma is checked only when its bits differ from those of Aphi, which
    is always checked first, so the message names the block it did before."""
    singular = [[1.0, 2.0], [2.0, 4.0]]
    zero = np.zeros((2, 2, 2))
    with pytest.raises(ValueError, match="Aphi must be invertible"):
        PrincipalJetElement(2, singular, singular, zero)
    with pytest.raises(ValueError, match="Aphi must be invertible"):
        PrincipalJetElement(2, singular, np.eye(2), zero)
    with pytest.raises(ValueError, match="Asigma must be invertible"):
        PrincipalJetElement(2, np.eye(2), singular, zero)

def test_compose_L():
    g = JetGroupElement(2, [[1, 1], [0, 1]])
    assert close(compose_L(g, identity_L(2)).A, g.A)
    assert compose_L(JetGroupElement(1, [[2.0]]), JetGroupElement(1, [[7.0]])).A[0, 0] == 14.0
    h = JetGroupElement(2, [[1, 0], [1, 1]])
    # composition of the two linear maps, evaluated columnwise
    expected = np.stack([g.A @ (h.A @ e) for e in np.eye(2)], axis=1)
    assert close(compose_L(g, h).A, expected)
    assert close(expected, [[2, 1], [1, 1]])


def test_compose_L_dimension_mismatch():
    with pytest.raises(ValueError):
        compose_L(identity_L(1), identity_L(2))


def test_inverse_L():
    assert close(inverse_L(identity_L(3)).A, np.eye(3))
    assert inverse_L(JetGroupElement(1, [[2.0]])).A[0, 0] == 0.5
    rng = rng_from(11)
    for _ in range(50):
        A = rng.integers(-5, 6, size=(3, 3)).astype(float)
        if abs(np.linalg.det(A)) < 1:
            continue
        g = JetGroupElement(3, A)
        assert close(compose_L(g, inverse_L(g)).A, np.eye(3))


def test_compose_P_identity_and_m1_value():
    p1 = P1(2, 3, 5)
    assert perr(compose_P(p1, identity_P(1)), p1) == 0.0
    c = compose_P(p1, P1(7, 11, 13))
    assert c.Aphi[0, 0] == 14.0
    assert c.Asigma[0, 0] == 33.0
    assert c.B[0, 0, 0] == 424.0  # 5*11*7 + 3*13


def test_compose_P_associativity_sampled():
    for t in range(100):
        rng = rng_from(3, t)
        m = int(rng.integers(1, 4))
        p1, p2, p3 = (principal_element(rng, m) for _ in range(3))
        assert perr(compose_P(compose_P(p1, p2), p3),
                    compose_P(p1, compose_P(p2, p3))) <= 1e-9


def test_inverse_P_closed_form_m1():
    p = P1(2, 3, 5)
    q = inverse_P(p)
    assert q.Aphi[0, 0] == 0.5
    assert close(q.Asigma, [[1.0 / 3.0]])
    assert close(q.B, [[[-5.0 / 18.0]]])
    assert perr(compose_P(p, q), identity_P(1)) <= 1e-12
    assert perr(compose_P(q, p), identity_P(1)) <= 1e-12
    assert perr(inverse_P(q), p) <= 1e-12


def test_exchange_P():
    p = P1(2, 3, 5)
    e = exchange_P(p)
    assert (e.Aphi[0, 0], e.Asigma[0, 0], e.B[0, 0, 0]) == (3.0, 2.0, 5.0)
    assert perr(exchange_P(e), p) == 0.0
    for t in range(50):
        rng = rng_from(5, t)
        q = principal_element(rng, 3)
        assert close(lambda_P(exchange_P(q)).A, mu_P(q).A)


def test_exchange_P_homomorphism_on_semiholonomic():
    for t in range(50):
        rng = rng_from(6, t)
        p1 = semiholonomic_element(rng, 2)
        p2 = semiholonomic_element(rng, 2)
        assert perr(exchange_P(compose_P(p1, p2)),
                    compose_P(exchange_P(p1), exchange_P(p2))) <= 1e-9


def test_lambda_mu():
    p = P1(2, 3, 5)
    assert lambda_P(p).A[0, 0] == 2.0
    assert mu_P(p).A[0, 0] == 3.0
    assert close(lambda_P(identity_P(2)).A, np.eye(2))


def test_subgroup_predicates():
    e = identity_P(2)
    assert is_semiholonomic_P(e) and is_holonomic_P(e) and is_curvature_P(e)
    p = P1(2, 2, 5)
    assert is_semiholonomic_P(p) and is_holonomic_P(p) and not is_curvature_P(p)
    B = np.zeros((2, 2, 2))
    B[0, 0, 1], B[0, 1, 0] = 1.0, -1.0
    q = PrincipalJetElement(2, np.eye(2), np.eye(2), B)
    assert is_curvature_P(q) and not is_holonomic_P(q)


def test_symmetrize_P():
    B = np.zeros((2, 2, 2))
    B[0, 0, 1] = 2.0
    p = PrincipalJetElement(2, np.eye(2), np.eye(2), B)
    v = symmetrize_P(p)
    assert v.B[0, 0, 1] == 1.0 and v.B[0, 1, 0] == 1.0
    assert perr(symmetrize_P(v), v) == 0.0
    holo = P1(2, 2, 5)
    assert perr(symmetrize_P(holo), holo) == 0.0
    with pytest.raises(ValueError):
        symmetrize_P(P1(2, 3, 5))
    for t in range(50):
        rng = rng_from(9, t)
        p1 = semiholonomic_element(rng, 2)
        p2 = semiholonomic_element(rng, 2)
        assert perr(symmetrize_P(compose_P(p1, p2)),
                    compose_P(symmetrize_P(p1), symmetrize_P(p2))) <= 1e-9


def test_factor_semiholonomic():
    holo = P1(2, 2, 5)
    h, c = factor_semiholonomic(holo)
    assert perr(h, holo) == 0.0 and perr(c, identity_P(1)) == 0.0
    B = np.zeros((2, 2, 2))
    B[0, 0, 1], B[0, 1, 0] = 1.0, -1.0
    curv = PrincipalJetElement(2, np.eye(2), np.eye(2), B)
    h, c = factor_semiholonomic(curv)
    assert np.max(np.abs(h.B)) == 0.0
    assert perr(c, curv) == 0.0
    for t in range(50):
        rng = rng_from(10, t)
        p = semiholonomic_element(rng, 3)
        h, c = factor_semiholonomic(p)
        assert is_holonomic_P(h) and is_curvature_P(c)
        assert perr(compose_P(h, c), p) <= 1e-9


def test_embed_L():
    assert perr(embed_L(identity_L(2)), identity_P(2)) == 0.0
    p = embed_L(JetGroupElement(1, [[2.0]]))
    assert (p.Aphi[0, 0], p.Asigma[0, 0], p.B[0, 0, 0]) == (2.0, 2.0, 0.0)
    from doublejets.sampling import group_element
    for t in range(50):
        rng = rng_from(12, t)
        g1 = group_element(rng, 2)
        g2 = group_element(rng, 2)
        assert perr(embed_L(compose_L(g1, g2)),
                    compose_P(embed_L(g1), embed_L(g2))) == 0.0


def test_factor_P():
    e = identity_P(2)
    for t in range(50):
        rng = rng_from(13, t)
        p = principal_element(rng, 2)
        tt, ll = factor_P(p)
        assert np.array_equal(tt.Aphi, np.eye(2))
        assert perr(ll, embed_L(lambda_P(p))) == 0.0
        assert perr(compose_P(tt, ll), p) <= 1e-9
    p = PrincipalJetElement(2, np.eye(2), 2.0 * np.eye(2), np.zeros((2, 2, 2)))
    tt, ll = factor_P(p)
    assert perr(tt, p) == 0.0 and perr(ll, e) == 0.0
    g = embed_L(JetGroupElement(2, [[2.0, 0.0], [0.0, 3.0]]))
    tt, ll = factor_P(g)
    assert perr(tt, identity_P(2)) <= 1e-12 and perr(ll, g) == 0.0


def test_second_order_identification():
    assert perr(from_second_order(to_second_order(identity_P(2))), identity_P(2)) == 0.0
    c = compose_P(P1(2, 2, 6), P1(3, 3, 4))
    q = to_second_order(c)
    assert q.A[0, 0] == 6.0
    assert q.S[0, 0, 0] == 62.0  # a1*b2 + b1*a2^2 = 2*4 + 6*9
    with pytest.raises(ValueError):
        to_second_order(P1(2, 3, 5))
    q0 = SecondOrderJetElement(1, [[2.0]], [[[6.0]]])
    assert perr(from_second_order(q0), P1(2, 2, 6)) == 0.0
    back = to_second_order(from_second_order(q0))
    assert close(back.A, q0.A) and close(back.S, q0.S)


def test_second_order_composition_matches_taylor_oracle():
    f1 = PolyMap(Dims(1, 1), [0.0], [[2.0]], [[[6.0]]])
    f2 = PolyMap(Dims(1, 1), [0.0], [[3.0]], [[[4.0]]])
    composed = compose_second_order(f1, f2)
    q = to_second_order(compose_P(from_second_order(SecondOrderJetElement(1, f1.c1, f1.c2)),
                                  from_second_order(SecondOrderJetElement(1, f2.c1, f2.c2))))
    assert close(q.A, composed.c1) and close(q.S, composed.c2)


def test_second_order_requires_symmetric_S():
    S = np.zeros((2, 2, 2))
    S[0, 0, 1] = 1.0
    with pytest.raises(ValueError):
        SecondOrderJetElement(2, np.eye(2), S)


def test_symmetry_checks_are_relative():
    """An S symmetric up to one ulp at scale 1e8 is symmetric; an asymmetry
    of 1e-6 of the entries is not."""
    S = 1e8 * np.array([[[1.0, 3.0], [3.0, 2.0]], [[5.0, 7.0], [7.0, 1.0]]])
    S[1, 0, 1] = np.nextafter(S[1, 0, 1], np.inf)
    assert S[1, 0, 1] - S[1, 1, 0] > 1e-9
    q = SecondOrderJetElement(2, np.eye(2), S)
    assert np.array_equal(q.S, S)
    PolyMap(Dims(2, 2), np.zeros(2), np.eye(2), S)
    S[1, 0, 1] *= 1.0 + 1e-6
    with pytest.raises(ValueError, match="S must be symmetric"):
        SecondOrderJetElement(2, np.eye(2), S)
    with pytest.raises(ValueError, match="c2 must be symmetric"):
        PolyMap(Dims(2, 2), np.zeros(2), np.eye(2), S)
