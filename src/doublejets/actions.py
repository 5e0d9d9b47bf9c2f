"""Right actions of the jet groups on velocities and double velocities.

The principal group acts on a double velocity by

    Ui -> Ui . Asigma
    Uo -> Uo . Aphi
    W[a,i,j] -> sum_{h,k} W[a,h,k] Asigma[h,i] Aphi[k,j]
                + sum_h Ui[a,h] B[h,i,j]

which is the coordinate form of substituting s -> Asigma.s + B[s, t] and
t -> Aphi.t into the underlying map chi.  The module also provides the
domain predicate for freeness of the full action and the transporter
solver that underlies canonicalization.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .core import DoubleVelocity, Velocity, is_inner_regular
from .groups import JetGroupElement, PrincipalJetElement
from .linalg import (DEFAULT_TOL, close, complement, is_invertible,
                     numerical_rank, pivot_rows, safe_inv)


def act_L_velocity(v: Velocity, g: JetGroupElement) -> Velocity:
    """Right action on velocities: reparametrize the source."""
    if v.dims.m != g.m:
        raise ValueError(f"act_L_velocity: dimension mismatch ({v.dims.m} vs {g.m})")
    return Velocity(v.dims, v.u, v.U @ g.A)


def act_P_double(dv: DoubleVelocity, p: PrincipalJetElement) -> DoubleVelocity:
    """Right action of the principal jet group on double velocities."""
    if dv.dims.m != p.m:
        raise ValueError(f"act_P_double: dimension mismatch ({dv.dims.m} vs {p.m})")
    W = (np.einsum("ahk,hi,kj->aij", dv.W, p.Asigma, p.Aphi)
         + np.einsum("ah,hij->aij", dv.Ui, p.B))
    return DoubleVelocity(dv.dims, dv.u, dv.Ui @ p.Asigma, dv.Uo @ p.Aphi, W)


def is_rho_regular(dv: DoubleVelocity, tol: float = DEFAULT_TOL) -> bool:
    """Immersion test for the projected curve into the contact manifold.

    In the chart with pivot rows I of Ui (r the inverse pivot block), the
    non-pivot plane coordinates move with velocity

        N_j = (W[comp, :, j] - Ui[comp] . r . W[I, :, j]) . r

    and the curve is an immersion exactly when the matrix whose j-th column
    stacks Uo[:, j] on the flattened N_j has rank m.
    """
    if not is_inner_regular(dv, tol):
        raise ValueError("is_rho_regular requires an inner-regular double velocity")
    n, m = dv.dims.n, dv.dims.m
    I = pivot_rows([dv.Ui], m, tol, names=("Ui",))
    comp = complement(I, n)
    r = safe_inv(dv.Ui[list(I), :], "Ui pivot block")
    upper = dv.Ui[list(comp), :] @ r
    cols = []
    for j in range(m):
        Wj = dv.W[:, :, j]
        Nj = (Wj[list(comp), :] - upper @ Wj[list(I), :]) @ r
        cols.append(Nj.ravel())
    jac = np.vstack([dv.Uo, np.stack(cols, axis=1)]) if comp else dv.Uo
    return numerical_rank(jac, tol, scale_floor=1.0) == m


def solve_transporter(dv1: DoubleVelocity, dv2: DoubleVelocity, I,
                      tol: float = DEFAULT_TOL) -> Optional[PrincipalJetElement]:
    """Solve for the unique group element carrying dv1 to dv2.

    Asigma and Aphi are read off the pivot blocks of Ui and Uo, and B from
    the pivot rows of W; the candidate is then checked against all n rows
    and None is returned when dv2 is not on the orbit slice.
    """
    if dv1.dims != dv2.dims:
        raise ValueError("solve_transporter: dimension mismatch")
    m = dv1.dims.m
    I = tuple(int(i) for i in I)
    rows = list(I)
    blocks = {"Ui of dv1": dv1.Ui[rows, :], "Uo of dv1": dv1.Uo[rows, :],
              "Ui of dv2": dv2.Ui[rows, :], "Uo of dv2": dv2.Uo[rows, :]}
    for name, blk in blocks.items():
        if not is_invertible(blk):
            raise ValueError(f"solve_transporter: singular pivot block in {name}")
    if not close(dv1.u, dv2.u, tol):
        return None
    Asigma = np.linalg.solve(blocks["Ui of dv1"], blocks["Ui of dv2"])
    Aphi = np.linalg.solve(blocks["Uo of dv1"], blocks["Uo of dv2"])
    W1 = np.einsum("ahk,hi,kj->aij", dv1.W, Asigma, Aphi)
    diff = (dv2.W - W1)[rows, :, :]
    B = np.linalg.solve(blocks["Ui of dv1"], diff.reshape(m, m * m)).reshape(m, m, m)
    p = PrincipalJetElement(m, Aphi, Asigma, B)
    moved = act_P_double(dv1, p)
    if (close(moved.Ui, dv2.Ui, tol) and close(moved.Uo, dv2.Uo, tol)
            and close(moved.W, dv2.W, tol)):
        return p
    return None
