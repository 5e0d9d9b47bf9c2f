"""Velocities and double velocities on E = R^n, in one global chart.

A velocity is a base point u in R^n together with an n x m linear part U.
A double velocity is the (1,1)-jet of a map chi(s, t) of two m-dimensional
arguments and carries four coordinate blocks.  Index conventions, stated
once and used everywhere in the package:

    u[a]        base point
    U[a, i]     linear part of a velocity
    Ui[a, i]    inner linear part (s-derivatives)
    Uo[a, j]    outer linear part (t-derivatives)
    W[a, i, j]  mixed part; i is the inner (s) slot, j the outer (t) slot,
                and the exchange map transposes (i, j)

All values are immutable after construction and every operation is a pure
function, so values can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (DEFAULT_TOL, alt_part, as_float_array, close, freeze,
                     inf_norm, numerical_rank, swap_last2, sym_part)

VERTICAL_KINDS = ("general", "sym", "alt")


@dataclass(frozen=True)
class Dims:
    """Source dimension m and target dimension n."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError(f"dimensions must be positive, got m={self.m}, n={self.n}")


@dataclass(frozen=True, eq=False)
class Velocity:
    dims: Dims
    u: np.ndarray
    U: np.ndarray

    def __post_init__(self):
        n, m = self.dims.n, self.dims.m
        object.__setattr__(self, "u", freeze(as_float_array(self.u, (n,), "u")))
        object.__setattr__(self, "U", freeze(as_float_array(self.U, (n, m), "U")))

    def to_dict(self) -> dict:
        return {"m": self.dims.m, "n": self.dims.n,
                "u": self.u.tolist(), "U": self.U.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "Velocity":
        return cls(Dims(int(d["m"]), int(d["n"])), d["u"], d["U"])


@dataclass(frozen=True, eq=False)
class DoubleVelocity:
    dims: Dims
    u: np.ndarray
    Ui: np.ndarray
    Uo: np.ndarray
    W: np.ndarray

    def __post_init__(self):
        n, m = self.dims.n, self.dims.m
        object.__setattr__(self, "u", freeze(as_float_array(self.u, (n,), "u")))
        object.__setattr__(self, "Ui", freeze(as_float_array(self.Ui, (n, m), "Ui")))
        object.__setattr__(self, "Uo", freeze(as_float_array(self.Uo, (n, m), "Uo")))
        object.__setattr__(self, "W", freeze(as_float_array(self.W, (n, m, m), "W")))

    def to_dict(self) -> dict:
        return {"m": self.dims.m, "n": self.dims.n, "u": self.u.tolist(),
                "Ui": self.Ui.tolist(), "Uo": self.Uo.tolist(),
                "W": self.W.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "DoubleVelocity":
        return cls(Dims(int(d["m"]), int(d["n"])), d["u"], d["Ui"], d["Uo"], d["W"])


@dataclass(frozen=True, eq=False)
class VerticalVector:
    """A fibre element of the vertical bundle over a velocity.

    K[a, i, j] follows the same slot convention as W.  kind marks the
    symmetric/skew subtypes, which are checked at construction.
    """

    base: Velocity
    K: np.ndarray
    kind: str = "general"

    def __post_init__(self):
        n, m = self.base.dims.n, self.base.dims.m
        object.__setattr__(self, "K", freeze(as_float_array(self.K, (n, m, m), "K")))
        if self.kind not in VERTICAL_KINDS:
            raise ValueError(f"kind must be one of {VERTICAL_KINDS}, got {self.kind!r}")
        if self.kind == "sym" and not close(self.K, swap_last2(self.K)):
            raise ValueError("kind 'sym' requires K symmetric in its last two slots")
        if self.kind == "alt" and not close(self.K, -swap_last2(self.K)):
            raise ValueError("kind 'alt' requires K skew in its last two slots")

    @property
    def dims(self) -> Dims:
        return self.base.dims

    def to_dict(self) -> dict:
        return {"base": self.base.to_dict(), "K": self.K.tolist(), "kind": self.kind}

    @classmethod
    def from_dict(cls, d: dict) -> "VerticalVector":
        return cls(Velocity.from_dict(d["base"]), d["K"], d.get("kind", "general"))


def velocity_equal(v1: Velocity, v2: Velocity, tol: float = DEFAULT_TOL) -> bool:
    return (v1.dims == v2.dims and close(v1.u, v2.u, tol) and close(v1.U, v2.U, tol))


def double_equal(d1: DoubleVelocity, d2: DoubleVelocity, tol: float = DEFAULT_TOL) -> bool:
    return (d1.dims == d2.dims and close(d1.u, d2.u, tol)
            and close(d1.Ui, d2.Ui, tol) and close(d1.Uo, d2.Uo, tol)
            and close(d1.W, d2.W, tol))


def inner_projection(dv: DoubleVelocity) -> Velocity:
    """Projection onto the base velocity of the inner bundle structure."""
    return Velocity(dv.dims, dv.u, dv.Ui)


def outer_projection(dv: DoubleVelocity) -> Velocity:
    """Projection along the prolonged bundle map (outer structure)."""
    return Velocity(dv.dims, dv.u, dv.Uo)


def exchange(dv: DoubleVelocity) -> DoubleVelocity:
    """Swap the two arguments of the underlying map chi(s, t).

    An involution: Ui and Uo trade places and W is transposed in its two
    lower slots.  It intertwines the two projections.
    """
    return DoubleVelocity(dv.dims, dv.u, dv.Uo, dv.Ui, swap_last2(dv.W))


def is_regular(v: Velocity, tol: float = DEFAULT_TOL) -> bool:
    """True when the linear part has full rank m (an immersion)."""
    return numerical_rank(v.U, tol) == v.dims.m


def is_tau_regular(dv: DoubleVelocity, tol: float = DEFAULT_TOL) -> bool:
    """True when the projected outer curve is an immersion: rank(Uo) = m."""
    return numerical_rank(dv.Uo, tol) == dv.dims.m


def is_inner_regular(dv: DoubleVelocity, tol: float = DEFAULT_TOL) -> bool:
    """True when the base velocity is regular: rank(Ui) = m."""
    return numerical_rank(dv.Ui, tol) == dv.dims.m


def is_semiholonomic(dv: DoubleVelocity, tol: float = DEFAULT_TOL) -> bool:
    """True when the two projections agree: Ui = Uo within tol."""
    return inf_norm(dv.Ui - dv.Uo) <= tol


def is_holonomic(dv: DoubleVelocity, tol: float = DEFAULT_TOL) -> bool:
    """True on fixed points of the exchange map: semiholonomic with W
    symmetric in its two lower slots."""
    return is_semiholonomic(dv, tol) and inf_norm(dv.W - swap_last2(dv.W)) <= tol


def is_vertical(dv: DoubleVelocity, tol: float = DEFAULT_TOL) -> bool:
    """True when the outer linear part vanishes."""
    return inf_norm(dv.Uo) <= tol


def make_holonomic(u, U, S, tol: float = DEFAULT_TOL) -> DoubleVelocity:
    """Build the exchange-fixed double velocity with Ui = Uo = U and W = S.

    S must be symmetric in its last two slots; this is the coordinate form
    of a genuine second-order velocity.
    """
    U = np.asarray(U, dtype=float)
    if U.ndim != 2:
        raise ValueError("U must be an n x m matrix")
    n, m = U.shape
    S = as_float_array(S, (n, m, m), "S")
    if not close(S, swap_last2(S), tol):
        raise ValueError("S must be symmetric in its last two slots")
    return DoubleVelocity(Dims(m, n), u, U, U, S)


def split_semiholonomic(dv: DoubleVelocity, tol: float = DEFAULT_TOL):
    """Unique decomposition of a semiholonomic double velocity into a
    holonomic part and a skew vertical vector over its base velocity."""
    if not is_semiholonomic(dv, tol):
        raise ValueError("split_semiholonomic requires a semiholonomic input")
    h = make_holonomic(dv.u, dv.Ui, sym_part(dv.W), tol)
    k = VerticalVector(inner_projection(dv), alt_part(dv.W), kind="alt")
    return h, k


def affine_add_vertical(dv: DoubleVelocity, k: VerticalVector,
                        tol: float = DEFAULT_TOL) -> DoubleVelocity:
    """Translate dv by a vertical vector attached to its base velocity."""
    if k.dims != dv.dims:
        raise ValueError("dimension mismatch between double velocity and vertical vector")
    if not (close(k.base.u, dv.u, tol) and close(k.base.U, dv.Ui, tol)):
        raise ValueError("vertical vector base does not match inner projection")
    return DoubleVelocity(dv.dims, dv.u, dv.Ui, dv.Uo, dv.W + k.K)


def as_vertical_double(k: VerticalVector) -> DoubleVelocity:
    """Embed a vertical vector as the vertical double velocity over its base."""
    n, m = k.dims.n, k.dims.m
    return DoubleVelocity(k.dims, k.base.u, k.base.U, np.zeros((n, m)), k.K)
