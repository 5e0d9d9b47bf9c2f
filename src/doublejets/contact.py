"""Canonical forms for contact elements and double contact elements.

A contact element is a point with an m-plane, stored as the unique reduced
column-echelon basis.  A double contact element is an orbit of the
principal-group action, stored in chart-normalized coordinates: pivot rows
of Ui and Uo reduced to the identity, pivot rows of W reduced to zero.

Pivot rule, used by every canonicalization in this module: I is the
lexicographically smallest m-subset of row indices whose square block is
invertible in each matrix that must be normalized (Ui alone for planes and
vertical elements, Ui and Uo jointly for double contact elements).
Admissibility of a subset is preserved by the group action, so the rule is
orbit-invariant on well-conditioned data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import actions
from .core import (Dims, DoubleVelocity, Velocity, inner_projection,
                   is_inner_regular, is_tau_regular, is_vertical)
from .groups import PrincipalJetElement, embed_L, JetGroupElement
from .linalg import (DEFAULT_TOL, alt_part, as_float_array, close, complement,
                     freeze, inf_norm, numerical_rank, pivot_rows, safe_inv,
                     swap_last2, sym_part)

QUOTIENT_KINDS = ("general", "sym", "alt")


def _require_codim(dims: Dims) -> None:
    if dims.m >= dims.n:
        raise ValueError(f"contact elements require m < n, got m={dims.m}, n={dims.n}")


@dataclass(frozen=True, eq=False)
class ContactElement:
    """A point of R^n with an m-plane in reduced column-echelon form."""

    dims: Dims
    u: np.ndarray
    P: np.ndarray

    def __post_init__(self):
        _require_codim(self.dims)
        n, m = self.dims.n, self.dims.m
        object.__setattr__(self, "u", freeze(as_float_array(self.u, (n,), "u")))
        object.__setattr__(self, "P", freeze(as_float_array(self.P, (n, m), "P")))
        # The first m live rows hold exactly the identity: pivot_rows would
        # choose them, since every earlier subset has a zero row.
        first = np.flatnonzero(self.P.any(axis=1))[:m]
        if len(first) == m and np.array_equal(self.P[first], np.eye(m)):
            return
        I = pivot_rows([self.P], m, names=("P",))
        if not close(self.P[list(I), :], np.eye(m)):
            raise ValueError("P is not in reduced column-echelon form")

    def to_dict(self) -> dict:
        return {"m": self.dims.m, "n": self.dims.n,
                "u": self.u.tolist(), "P": self.P.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "ContactElement":
        return cls(Dims(int(d["m"]), int(d["n"])), d["u"], d["P"])


@dataclass(frozen=True, eq=False)
class DoubleContactElement:
    """Chart-normalized coordinates of a principal-group orbit.

    I is the pivot row set (zero-based); X, Y and Z hold the non-pivot rows
    of the normalized Ui, Uo and W.
    """

    dims: Dims
    I: tuple
    u: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    Z: np.ndarray

    def __post_init__(self):
        _require_codim(self.dims)
        n, m = self.dims.n, self.dims.m
        I = tuple(int(i) for i in self.I)
        if len(I) != m or sorted(set(I)) != list(I) or I[0] < 0 or I[-1] >= n:
            raise ValueError(f"I must be m strictly increasing row indices in [0, n), got {I}")
        object.__setattr__(self, "I", I)
        object.__setattr__(self, "u", freeze(as_float_array(self.u, (n,), "u")))
        object.__setattr__(self, "X", freeze(as_float_array(self.X, (n - m, m), "X")))
        object.__setattr__(self, "Y", freeze(as_float_array(self.Y, (n - m, m), "Y")))
        object.__setattr__(self, "Z", freeze(as_float_array(self.Z, (n - m, m, m), "Z")))

    def to_dict(self) -> dict:
        return {"m": self.dims.m, "n": self.dims.n, "I": list(self.I),
                "u": self.u.tolist(), "X": self.X.tolist(),
                "Y": self.Y.tolist(), "Z": self.Z.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "DoubleContactElement":
        return cls(Dims(int(d["m"]), int(d["n"])), tuple(d["I"]),
                   d["u"], d["X"], d["Y"], d["Z"])


@dataclass(frozen=True, eq=False)
class QuotientVerticalVector:
    """A fibre element of the quotient vertical bundle over a contact
    element, with coordinates V in the chart with pivot rows I."""

    base: ContactElement
    I: tuple
    V: np.ndarray
    kind: str = "general"

    def __post_init__(self):
        n, m = self.base.dims.n, self.base.dims.m
        I = tuple(int(i) for i in self.I)
        if len(I) != m or sorted(set(I)) != list(I) or I[0] < 0 or I[-1] >= n:
            raise ValueError(f"I must be m strictly increasing row indices in [0, n), got {I}")
        object.__setattr__(self, "I", I)
        object.__setattr__(self, "V", freeze(as_float_array(self.V, (n - m, m, m), "V")))
        if self.kind not in QUOTIENT_KINDS:
            raise ValueError(f"kind must be one of {QUOTIENT_KINDS}, got {self.kind!r}")
        if self.kind == "sym" and not close(self.V, swap_last2(self.V)):
            raise ValueError("kind 'sym' requires V symmetric in (i, j)")
        if self.kind == "alt" and not close(self.V, -swap_last2(self.V)):
            raise ValueError("kind 'alt' requires V skew in (i, j)")

    @property
    def dims(self) -> Dims:
        return self.base.dims

    def to_dict(self) -> dict:
        return {"base": self.base.to_dict(), "I": list(self.I),
                "V": self.V.tolist(), "kind": self.kind}

    @classmethod
    def from_dict(cls, d: dict) -> "QuotientVerticalVector":
        return cls(ContactElement.from_dict(d["base"]), tuple(d["I"]),
                   d["V"], d.get("kind", "general"))


def contact_of(v: Velocity, tol: float = DEFAULT_TOL) -> ContactElement:
    """Canonical contact element of a regular velocity.

    The plane basis is reduced to column-echelon form, which is invariant
    under the right jet-group action because the column space is.
    """
    return _contact_from(v.dims, v.u, v.U, tol)


def _contact_from(dims: Dims, u, U: np.ndarray, tol: float, chart=None) -> ContactElement:
    """contact_of on base point u and linear part U.  When U is exactly the
    identity at the rows `chart`, and those are the pivot rows, the inverse
    pivot block is the identity too (np.linalg.inv returns it bit for bit)."""
    _require_codim(dims)
    if numerical_rank(U, tol) != dims.m:
        raise ValueError("contact_of requires a regular velocity (rank m linear part)")
    rows = list(pivot_rows([U], dims.m, tol, names=("U",)))
    r = np.eye(dims.m) if tuple(rows) == chart else safe_inv(U[rows, :], "U pivot block")
    return _echelon_contact(dims, u, U, rows, r)


def _echelon_contact(dims: Dims, u, U: np.ndarray, rows: list, r: np.ndarray) -> ContactElement:
    """The contact element spanned by U, given its pivot rows and the
    inverse r of its pivot block: basis U @ r."""
    P = U @ r
    P[rows, :] = np.eye(dims.m)  # pivot rows are the identity by construction
    return ContactElement(dims, u, P)


def contact_equal(c1: ContactElement, c2: ContactElement, tol: float = DEFAULT_TOL) -> bool:
    return (c1.dims == c2.dims and close(c1.u, c2.u, tol) and close(c1.P, c2.P, tol))


def double_contact_of(dv: DoubleVelocity, tol: float = DEFAULT_TOL) -> DoubleContactElement:
    """Canonicalize a double velocity to its orbit's chart normal form.

    The normalizing transporter has Asigma and Aphi inverse to the pivot
    blocks of Ui and Uo, and B chosen to clear the pivot rows of W; the
    non-pivot rows of the transported blocks are the coordinates.
    """
    _require_codim(dv.dims)
    # When Uo is Ui bit for bit, each decision on Uo is the one on Ui.
    same = dv.Uo.tobytes() == dv.Ui.tobytes()
    if not is_tau_regular(dv, tol):
        raise ValueError("double_contact_of requires rank(Uo) = m")
    if not same and not is_inner_regular(dv, tol):
        raise ValueError("double_contact_of requires rank(Ui) = m")
    n, m = dv.dims.n, dv.dims.m
    I = pivot_rows([dv.Ui] if same else [dv.Ui, dv.Uo], m, tol, names=("Ui", "Uo"))
    rows = list(I)
    Asigma = safe_inv(dv.Ui[rows, :], "Ui pivot block")
    Aphi = Asigma if same else safe_inv(dv.Uo[rows, :], "Uo pivot block")
    W1 = np.einsum("ahk,hi,kj->aij", dv.W, Asigma, Aphi)
    B = -np.einsum("ih,hjk->ijk", Asigma, W1[rows, :, :])
    moved = actions.act_P_double(dv, PrincipalJetElement(m, Aphi, Asigma, B))
    comp = list(complement(I, n))
    return DoubleContactElement(dv.dims, I, dv.u, moved.Ui[comp, :],
                                moved.Uo[comp, :], moved.W[comp, :, :])


def representative(d: DoubleContactElement) -> DoubleVelocity:
    """The normalized orbit representative: identity pivot blocks in Ui and
    Uo, zero pivot rows in W."""
    n, m = d.dims.n, d.dims.m
    rows = list(d.I)
    comp = list(complement(d.I, n))
    Ui = np.zeros((n, m))
    Uo = np.zeros((n, m))
    W = np.zeros((n, m, m))
    Ui[rows, :] = np.eye(m)
    Uo[rows, :] = np.eye(m)
    Ui[comp, :] = d.X
    Uo[comp, :] = d.Y
    W[comp, :, :] = d.Z
    return DoubleVelocity(d.dims, d.u, Ui, Uo, W)


def contact_plane_of(d: DoubleContactElement, tol: float = DEFAULT_TOL) -> ContactElement:
    """The underlying first-order contact element (plane X over u): the
    contact element of inner_projection(representative(d)), whose linear
    part is the identity at I and X elsewhere."""
    n, m = d.dims.n, d.dims.m
    U = np.zeros((n, m))
    U[list(d.I), :] = np.eye(m)
    U[list(complement(d.I, n)), :] = d.X
    return _contact_from(d.dims, d.u, U, tol, d.I)


def double_contact_equal(d1: DoubleContactElement, d2: DoubleContactElement,
                         tol: float = DEFAULT_TOL) -> bool:
    """Equality of orbits; elements in different charts are re-canonicalized
    through their representatives before comparing."""
    if d1.dims != d2.dims:
        return False
    if d1.I != d2.I:
        d1 = double_contact_of(representative(d1), tol)
        d2 = double_contact_of(representative(d2), tol)
        if d1.I != d2.I:
            return False
    return (close(d1.u, d2.u, tol) and close(d1.X, d2.X, tol)
            and close(d1.Y, d2.Y, tol) and close(d1.Z, d2.Z, tol))


def _quotient_kind(V: np.ndarray, tol: float) -> str:
    if close(V, swap_last2(V), tol):
        return "sym"
    if close(V, -swap_last2(V), tol):
        return "alt"
    return "general"


def _check_vertical_preconditions(dv: DoubleVelocity, tol: float, op: str) -> None:
    if not is_vertical(dv, tol):
        raise ValueError(f"{op} requires a vertical double velocity (Uo = 0)")
    if not is_inner_regular(dv, tol):
        raise ValueError(f"{op} requires rank(Ui) = m")


def vertical_quotient(dv: DoubleVelocity, tol: float = DEFAULT_TOL) -> QuotientVerticalVector:
    """Quotient coordinates of a vertical double velocity.

    With r the inverse pivot block of Ui, the fibre coordinates are

        V[a,i,j] = sum W[a,h,k] r[h,i] r[k,j]
                   - sum Ui[a,h] r[h,k] W[I_k,p,q] r[p,i] r[q,j]

    over the non-pivot rows a; they are invariant under the semiholonomic
    subgroup's action.
    """
    _require_codim(dv.dims)
    _check_vertical_preconditions(dv, tol, "vertical_quotient")
    n, m = dv.dims.n, dv.dims.m
    I = pivot_rows([dv.Ui], m, tol, names=("Ui",))
    rows = list(I)
    comp = list(complement(I, n))
    r = safe_inv(dv.Ui[rows, :], "Ui pivot block")
    term1 = np.einsum("ahk,hi,kj->aij", dv.W, r, r)
    term2 = np.einsum("ah,hk,kij->aij", dv.Ui, r, term1[rows, :, :])
    V = (term1 - term2)[comp, :, :]
    base = _echelon_contact(dv.dims, dv.u, dv.Ui, rows, r)
    return QuotientVerticalVector(base, I, V, _quotient_kind(V, tol))


def vertical_quotient_by_action(dv: DoubleVelocity, tol: float = DEFAULT_TOL) -> QuotientVerticalVector:
    """Same quotient computed by normalizing with explicit group actions, as
    an independent cross-check of the coordinate formula: first reduce the
    Ui pivot block to the identity with an embedded linear element, then
    clear the pivot rows of W with a kernel element."""
    _require_codim(dv.dims)
    _check_vertical_preconditions(dv, tol, "vertical_quotient_by_action")
    n, m = dv.dims.n, dv.dims.m
    I = pivot_rows([dv.Ui], m, tol, names=("Ui",))
    rows = list(I)
    comp = list(complement(I, n))
    r = safe_inv(dv.Ui[rows, :], "Ui pivot block")
    step1 = actions.act_P_double(dv, embed_L(JetGroupElement(m, r)))
    clear = PrincipalJetElement(m, np.eye(m), np.eye(m), -step1.W[rows, :, :])
    step2 = actions.act_P_double(step1, clear)
    V = step2.W[comp, :, :]
    base = contact_of(inner_projection(dv), tol)
    return QuotientVerticalVector(base, I, V, _quotient_kind(V, tol))


def split_quotient(q: QuotientVerticalVector):
    """Split a general quotient vector into symmetric and skew parts."""
    if q.kind != "general":
        raise ValueError("split_quotient applies to kind 'general'")
    return (QuotientVerticalVector(q.base, q.I, sym_part(q.V), "sym"),
            QuotientVerticalVector(q.base, q.I, alt_part(q.V), "alt"))


def is_semiholonomic_contact(d: DoubleContactElement, tol: float = DEFAULT_TOL) -> bool:
    """The orbit contains a semiholonomic representative iff Y = X."""
    return inf_norm(d.Y - d.X) <= tol


def is_holonomic_contact(d: DoubleContactElement, tol: float = DEFAULT_TOL) -> bool:
    return is_semiholonomic_contact(d, tol) and inf_norm(d.Z - swap_last2(d.Z)) <= tol


def decompose_contact(d: DoubleContactElement, tol: float = DEFAULT_TOL):
    """Split a semiholonomic double contact element into its holonomic part
    and its curvature (skew quotient) part; independent of the chosen orbit
    representative."""
    if not is_semiholonomic_contact(d, tol):
        raise ValueError("decompose_contact requires a semiholonomic element")
    h = DoubleContactElement(d.dims, d.I, d.u, d.X, d.X, sym_part(d.Z))
    k = QuotientVerticalVector(contact_plane_of(d, tol), d.I, alt_part(d.Z), "alt")
    return h, k


def affine_add_contact(d: DoubleContactElement, q: QuotientVerticalVector,
                       tol: float = DEFAULT_TOL) -> DoubleContactElement:
    """Translate a semiholonomic double contact element by a quotient
    vertical vector over the same plane and chart."""
    if not is_semiholonomic_contact(d, tol):
        raise ValueError("affine_add_contact requires a semiholonomic element")
    if q.I != d.I:
        raise ValueError("affine_add_contact: pivot set mismatch")
    if not contact_equal(q.base, contact_plane_of(d, tol), tol):
        raise ValueError("affine_add_contact: base contact element mismatch")
    return DoubleContactElement(d.dims, d.I, d.u, d.X, d.Y, d.Z + q.V)
