"""Independent ground truth through genuine polynomial maps.

Jets are represented by polynomial maps that are actually evaluated;
coordinates are then recovered by difference stencils that are exact for
the polynomial degrees occurring here, so these routines never share a
formula with the coordinate implementations they cross-check.

A BiPolyMap keeps only the bidegree-(1,1) coefficients: a (1,1)-double jet
is determined by the first s-derivative, the first t-derivative and the
mixed derivative at the origin, so pure s^2 and t^2 terms are dropped on
purpose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dims, DoubleVelocity, Velocity, is_inner_regular
from .groups import PrincipalJetElement
from .linalg import (DEFAULT_TOL, as_float_array, close, complement, freeze,
                     inf_norm, numerical_rank, pivot_rows, safe_inv,
                     swap_last2)

FD_STEP = 1e-5

# five-point stencils with unit step; exact for polynomials of degree <= 5
_D1_OFFSETS = (-2, -1, 1, 2)
_D1_WEIGHTS = (1.0 / 12.0, -8.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0)
_D2_OFFSETS = (-2, -1, 0, 1, 2)
_D2_WEIGHTS = (-1.0 / 12.0, 16.0 / 12.0, -30.0 / 12.0, 16.0 / 12.0, -1.0 / 12.0)


@dataclass(frozen=True, eq=False)
class PolyMap:
    """x -> c0 + c1.x + (1/2) c2[x, x] with c2 symmetric."""

    dims: Dims
    c0: np.ndarray
    c1: np.ndarray
    c2: np.ndarray

    def __post_init__(self):
        n, m = self.dims.n, self.dims.m
        object.__setattr__(self, "c0", freeze(as_float_array(self.c0, (n,), "c0")))
        object.__setattr__(self, "c1", freeze(as_float_array(self.c1, (n, m), "c1")))
        object.__setattr__(self, "c2", freeze(as_float_array(self.c2, (n, m, m), "c2")))
        if not close(self.c2, swap_last2(self.c2)):
            raise ValueError("c2 must be symmetric in its last two indices")

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.c0 + self.c1 @ x + 0.5 * np.einsum("aij,i,j->a", self.c2, x, x)


@dataclass(frozen=True, eq=False)
class BiPolyMap:
    """(s, t) -> c0 + Ps.s + Pt.t + Pst[s, t]; Pst need not be symmetric."""

    dims: Dims
    c0: np.ndarray
    Ps: np.ndarray
    Pt: np.ndarray
    Pst: np.ndarray

    def __post_init__(self):
        n, m = self.dims.n, self.dims.m
        object.__setattr__(self, "c0", freeze(as_float_array(self.c0, (n,), "c0")))
        object.__setattr__(self, "Ps", freeze(as_float_array(self.Ps, (n, m), "Ps")))
        object.__setattr__(self, "Pt", freeze(as_float_array(self.Pt, (n, m), "Pt")))
        object.__setattr__(self, "Pst", freeze(as_float_array(self.Pst, (n, m, m), "Pst")))

    def __call__(self, s, t) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        return self.c0 + self.Ps @ s + self.Pt @ t + np.einsum("aij,i,j->a", self.Pst, s, t)


def jet_of(f: PolyMap) -> Velocity:
    """Value and Jacobian at the origin."""
    return Velocity(f.dims, f.c0, f.c1)


def double_jet_of(x: BiPolyMap) -> DoubleVelocity:
    """The (1,1)-double jet of a bidegree-(1,1) map is its coefficients."""
    return DoubleVelocity(x.dims, x.c0, x.Ps, x.Pt, x.Pst)


def to_bipoly(dv: DoubleVelocity) -> BiPolyMap:
    return BiPolyMap(dv.dims, dv.u, dv.Ui, dv.Uo, dv.W)


def _extract_bi11(F, m: int, n: int) -> BiPolyMap:
    """Recover bidegree-(1,1) coefficients of F by central differences.

    Exact whenever F is affine in s for fixed t and at most quadratic in t,
    which covers every substitution performed in this module.
    """
    zero = np.zeros(m)
    e = np.eye(m)
    c0 = F(zero, zero)
    Ps = np.empty((n, m))
    Pt = np.empty((n, m))
    Pst = np.empty((n, m, m))
    for i in range(m):
        Ps[:, i] = 0.5 * (F(e[i], zero) - F(-e[i], zero))
        Pt[:, i] = 0.5 * (F(zero, e[i]) - F(zero, -e[i]))
    for i in range(m):
        for j in range(m):
            Pst[:, i, j] = 0.25 * (F(e[i], e[j]) - F(e[i], -e[j])
                                   - F(-e[i], e[j]) + F(-e[i], -e[j]))
    return BiPolyMap(Dims(m, n), c0, Ps, Pt, Pst)


def act_oracle(x: BiPolyMap, p: PrincipalJetElement) -> BiPolyMap:
    """Act by substituting s -> Asigma.s + B[s, t], t -> Aphi.t and
    truncating the evaluated composition back to bidegree (1,1)."""
    if x.dims.m != p.m:
        raise ValueError(f"act_oracle: dimension mismatch ({x.dims.m} vs {p.m})")

    def F(s, t):
        inner = p.Asigma @ s + np.einsum("ijk,j,k->i", p.B, s, t)
        return x(inner, p.Aphi @ t)

    return _extract_bi11(F, x.dims.m, x.dims.n)


def swap_arguments(x: BiPolyMap) -> BiPolyMap:
    """The map (s, t) -> x(t, s), re-extracted from evaluations."""
    return _extract_bi11(lambda s, t: x(t, s), x.dims.m, x.dims.n)


def prolong(g: PolyMap) -> DoubleVelocity:
    """Double jet of chi(s, t) = g(s + t); always holonomic."""
    return double_jet_of(_extract_bi11(lambda s, t: g(s + t), g.dims.m, g.dims.n))


def compose_second_order(f1: PolyMap, f2: PolyMap) -> PolyMap:
    """Degree-2 truncation of f1 after f2, for origin-preserving self-maps.

    The composition is evaluated pointwise and its value, gradient and
    Hessian at the origin are read off with five-point stencils, which are
    exact for the quartic polynomial f1(f2(x)).
    """
    if f1.dims != f2.dims or f1.dims.m != f1.dims.n:
        raise ValueError("compose_second_order requires self-maps of equal dimension")
    if inf_norm(f1.c0) > 1e-12 or inf_norm(f2.c0) > 1e-12:
        raise ValueError("compose_second_order requires f1(0) = f2(0) = 0")
    m = f1.dims.m

    def h(x):
        return f1(f2(x))

    e = np.eye(m)
    c0 = h(np.zeros(m))
    c1 = np.empty((m, m))
    c2 = np.empty((m, m, m))
    for i in range(m):
        c1[:, i] = sum(w * h(a * e[i]) for a, w in zip(_D1_OFFSETS, _D1_WEIGHTS))
        c2[:, i, i] = sum(w * h(a * e[i]) for a, w in zip(_D2_OFFSETS, _D2_WEIGHTS))
    for i in range(m):
        for j in range(i + 1, m):
            mixed = sum(wa * wb * h(a * e[i] + b * e[j])
                        for a, wa in zip(_D1_OFFSETS, _D1_WEIGHTS)
                        for b, wb in zip(_D1_OFFSETS, _D1_WEIGHTS))
            c2[:, i, j] = mixed
            c2[:, j, i] = mixed
    return PolyMap(f1.dims, c0, c1, c2)


def rho_regular_fd(dv: DoubleVelocity, h: float = FD_STEP,
                   tol: float = DEFAULT_TOL) -> bool:
    """Finite-difference twin of the contact-curve immersion test.

    Differentiates the curve t_j -> (u + h.Uo[:, j], chart coordinates of
    Ui + h.W[:, :, j]) in the fixed chart of Ui's pivot rows and rank-tests
    the stacked central difference quotients.
    """
    if not is_inner_regular(dv, tol):
        raise ValueError("rho_regular_fd requires an inner-regular double velocity")
    n, m = dv.dims.n, dv.dims.m
    I = pivot_rows([dv.Ui], m, tol, names=("Ui",))
    rows = list(I)
    comp = list(complement(I, n))

    def chart(M):
        return M[comp, :] @ safe_inv(M[rows, :], "perturbed pivot block")

    cols = []
    for j in range(m):
        step = h * dv.W[:, :, j]
        quotient = (chart(dv.Ui + step) - chart(dv.Ui - step)) / (2.0 * h)
        cols.append(quotient.ravel())
    jac = np.vstack([dv.Uo, np.stack(cols, axis=1)]) if comp else dv.Uo
    return numerical_rank(jac, tol, scale_floor=1.0) == m
