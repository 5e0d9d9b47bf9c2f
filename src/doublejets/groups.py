"""The first-order jet group and its principal prolongation.

A jet group element is an invertible m x m matrix A.  A principal jet
element is a pair of invertible matrices (Aphi, Asigma) together with an
m x m x m array B, the coordinates of the semidirect product of the jet
group with its velocity group.  The product law is

    Aphi   -> Aphi1 . Aphi2
    Asigma -> Asigma1 . Asigma2
    B[i,j,k] -> sum_{h,l} B1[i,h,l] Asigma2[h,j] Aphi2[l,k]
                + sum_h Asigma1[i,h] B2[h,j,k]

so B's middle index contracts against Asigma and its last index against
Aphi.  Equivalently, an element is the coefficient triple of a unique
normal form chi(s, t) = Asigma.s + Aphi.t + B[s, t], and the exchange map
swaps the two arguments of chi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (DEFAULT_TOL, alt_part, as_float_array, close, freeze,
                     inf_norm, is_invertible, safe_inv, swap_last2, sym_part)


def _check_invertible(A: np.ndarray, name: str) -> None:
    if not is_invertible(A):
        raise ValueError(f"{name} must be invertible")


@dataclass(frozen=True, eq=False)
class JetGroupElement:
    m: int
    A: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", freeze(as_float_array(self.A, (self.m, self.m), "A")))
        _check_invertible(self.A, "A")

    def to_dict(self) -> dict:
        return {"m": self.m, "A": self.A.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "JetGroupElement":
        return cls(int(d["m"]), d["A"])


@dataclass(frozen=True, eq=False)
class PrincipalJetElement:
    m: int
    Aphi: np.ndarray
    Asigma: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        m = self.m
        object.__setattr__(self, "Aphi", freeze(as_float_array(self.Aphi, (m, m), "Aphi")))
        object.__setattr__(self, "Asigma", freeze(as_float_array(self.Asigma, (m, m), "Asigma")))
        object.__setattr__(self, "B", freeze(as_float_array(self.B, (m, m, m), "B")))
        _check_invertible(self.Aphi, "Aphi")
        if self.Asigma.tobytes() != self.Aphi.tobytes():
            _check_invertible(self.Asigma, "Asigma")

    def to_dict(self) -> dict:
        return {"m": self.m, "Aphi": self.Aphi.tolist(),
                "Asigma": self.Asigma.tolist(), "B": self.B.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "PrincipalJetElement":
        return cls(int(d["m"]), d["Aphi"], d["Asigma"], d["B"])


@dataclass(frozen=True, eq=False)
class SecondOrderJetElement:
    """An invertible 2-jet: coefficients of t -> A.t + (1/2) S[t, t]."""

    m: int
    A: np.ndarray
    S: np.ndarray

    def __post_init__(self):
        m = self.m
        object.__setattr__(self, "A", freeze(as_float_array(self.A, (m, m), "A")))
        object.__setattr__(self, "S", freeze(as_float_array(self.S, (m, m, m), "S")))
        _check_invertible(self.A, "A")
        if not close(self.S, swap_last2(self.S)):
            raise ValueError("S must be symmetric in its last two indices")

    def to_dict(self) -> dict:
        return {"m": self.m, "A": self.A.tolist(), "S": self.S.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "SecondOrderJetElement":
        return cls(int(d["m"]), d["A"], d["S"])


def _check_same_m(a, b, op: str) -> None:
    if a.m != b.m:
        raise ValueError(f"{op}: dimension mismatch ({a.m} vs {b.m})")


def identity_L(m: int) -> JetGroupElement:
    return JetGroupElement(m, np.eye(m))


def compose_L(g1: JetGroupElement, g2: JetGroupElement) -> JetGroupElement:
    _check_same_m(g1, g2, "compose_L")
    return JetGroupElement(g1.m, g1.A @ g2.A)


def inverse_L(g: JetGroupElement) -> JetGroupElement:
    return JetGroupElement(g.m, safe_inv(g.A, "A"))


def identity_P(m: int) -> PrincipalJetElement:
    return PrincipalJetElement(m, np.eye(m), np.eye(m), np.zeros((m, m, m)))


def compose_P(p1: PrincipalJetElement, p2: PrincipalJetElement) -> PrincipalJetElement:
    """Semidirect product of two principal jet elements."""
    _check_same_m(p1, p2, "compose_P")
    B = (np.einsum("ihl,hj,lk->ijk", p1.B, p2.Asigma, p2.Aphi)
         + np.einsum("ih,hjk->ijk", p1.Asigma, p2.B))
    return PrincipalJetElement(p1.m, p1.Aphi @ p2.Aphi, p1.Asigma @ p2.Asigma, B)


def inverse_P(p: PrincipalJetElement) -> PrincipalJetElement:
    """Group inverse, solved in closed form from the product law."""
    ap = safe_inv(p.Aphi, "Aphi")
    asg = safe_inv(p.Asigma, "Asigma")
    B = -np.einsum("ih,hpq,pj,qk->ijk", asg, p.B, asg, ap)
    return PrincipalJetElement(p.m, ap, asg, B)


def exchange_P(p: PrincipalJetElement) -> PrincipalJetElement:
    """Swap the two arguments of the normal form chi: an involution that
    trades Aphi with Asigma and transposes B's lower slots."""
    return PrincipalJetElement(p.m, p.Asigma, p.Aphi, swap_last2(p.B))


def lambda_P(p: PrincipalJetElement) -> JetGroupElement:
    """First factor of the semidirect product (the outer linear jet)."""
    return JetGroupElement(p.m, p.Aphi)


def mu_P(p: PrincipalJetElement) -> JetGroupElement:
    """Base point of the second factor; equals lambda after exchange."""
    return JetGroupElement(p.m, p.Asigma)


def is_semiholonomic_P(p: PrincipalJetElement, tol: float = DEFAULT_TOL) -> bool:
    return inf_norm(p.Aphi - p.Asigma) <= tol


def is_holonomic_P(p: PrincipalJetElement, tol: float = DEFAULT_TOL) -> bool:
    return is_semiholonomic_P(p, tol) and inf_norm(p.B - swap_last2(p.B)) <= tol


def is_curvature_P(p: PrincipalJetElement, tol: float = DEFAULT_TOL) -> bool:
    return is_semiholonomic_P(p, tol) and inf_norm(p.B + swap_last2(p.B)) <= tol


def symmetrize_P(p: PrincipalJetElement, tol: float = DEFAULT_TOL) -> PrincipalJetElement:
    """Project a semiholonomic element onto the holonomic subgroup by
    symmetrizing B; idempotent, and a homomorphism on that subgroup."""
    if not is_semiholonomic_P(p, tol):
        raise ValueError("symmetrize_P requires a semiholonomic element")
    return PrincipalJetElement(p.m, p.Aphi, p.Asigma, sym_part(p.B))


def factor_semiholonomic(p: PrincipalJetElement, tol: float = DEFAULT_TOL):
    """Write a semiholonomic element as (holonomic) . (curvature).

    The curvature factor is (I, I, K) with K = Asigma^-1 . alt(B), the
    unique kernel element of the symmetrizing projection that recomposes
    to p.
    """
    if not is_semiholonomic_P(p, tol):
        raise ValueError("factor_semiholonomic requires a semiholonomic element")
    h = symmetrize_P(p, tol)
    K = np.einsum("ih,hjk->ijk", safe_inv(p.Asigma, "Asigma"), alt_part(p.B))
    c = PrincipalJetElement(p.m, np.eye(p.m), np.eye(p.m), K)
    return h, c


def embed_L(g: JetGroupElement) -> PrincipalJetElement:
    """Embed the jet group as the elements (A, A, 0); a homomorphism."""
    return PrincipalJetElement(g.m, g.A, g.A, np.zeros((g.m, g.m, g.m)))


def factor_P(p: PrincipalJetElement):
    """Unique factorization p = t . l with l = embed_L(lambda_P(p)) and
    t carrying an identity Aphi block."""
    ap = safe_inv(p.Aphi, "Aphi")
    t = PrincipalJetElement(p.m, np.eye(p.m), p.Asigma @ ap,
                            np.einsum("ipq,pj,qk->ijk", p.B, ap, ap))
    return t, embed_L(lambda_P(p))


def to_second_order(p: PrincipalJetElement, tol: float = DEFAULT_TOL) -> SecondOrderJetElement:
    """Identify a holonomic element with the 2-jet it represents."""
    if not is_holonomic_P(p, tol):
        raise ValueError("to_second_order requires a holonomic element")
    return SecondOrderJetElement(p.m, p.Asigma, sym_part(p.B))


def from_second_order(q: SecondOrderJetElement) -> PrincipalJetElement:
    return PrincipalJetElement(q.m, q.A, q.A, q.S)
