"""Dense linear-algebra helpers shared by every module.

Comparisons use a combined absolute/relative tolerance,
|x - y| <= tol * max(1, |x|, |y|), entrywise.  Numerical rank goes through
singular values with an exact fraction-elimination fallback for
integer-valued matrices, so that regularity predicates stay stable on the
integer-sampled data used throughout the test harness.
"""

from __future__ import annotations

import itertools

import numpy as np

DEFAULT_TOL = 1e-9
DET_FLOOR = 1e-12
PIVOT_CHUNK = 256  # subsets per stacked determinant in pivot_rows


class ChartError(ValueError):
    """No admissible pivot rows: the element lies outside the chart."""


def as_float_array(x, shape=None, name: str = "array") -> np.ndarray:
    a = np.array(x, dtype=float)
    if shape is not None and a.shape != tuple(shape):
        raise ValueError(f"{name}: expected shape {tuple(shape)}, got {a.shape}")
    return a


def freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def inf_norm(x) -> float:
    x = np.asarray(x, dtype=float)
    return float(np.max(np.abs(x))) if x.size else 0.0


def close(x, y, tol: float = DEFAULT_TOL) -> bool:
    """Entrywise |x - y| <= tol * max(1, |x|, |y|)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        return False
    scale = np.maximum(1.0, np.maximum(np.abs(x), np.abs(y)))
    return bool(np.all(np.abs(x - y) <= tol * scale))


def scaled_error(x, y) -> float:
    """Largest entrywise |x - y| / max(1, |x|, |y|)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size == 0:
        return 0.0
    scale = np.maximum(1.0, np.maximum(np.abs(x), np.abs(y)))
    return float(np.max(np.abs(x - y) / scale))


def swap_last2(T: np.ndarray) -> np.ndarray:
    return np.swapaxes(T, -1, -2)


def sym_part(T: np.ndarray) -> np.ndarray:
    """Symmetric part in the last two axes."""
    return 0.5 * (T + swap_last2(T))


def alt_part(T: np.ndarray) -> np.ndarray:
    """Skew part in the last two axes."""
    return 0.5 * (T - swap_last2(T))


def is_integer_valued(M) -> bool:
    M = np.asarray(M, dtype=float)
    return bool(np.all(np.isfinite(M)) and np.all(M == np.round(M)))


def exact_integer_rank(M) -> int:
    """Rank of an integer-valued matrix by exact integer elimination.

    Entries are rounded as Python floats, and all-zero rows, which never
    hold a pivot, are dropped before the elimination.
    """
    A = [[round(v) for v in row]
         for row in np.atleast_2d(np.asarray(M, dtype=float)).tolist() if any(row)]
    nrows = len(A)
    ncols = len(A[0]) if nrows else 0
    rank = 0
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if A[r][col] != 0), None)
        if piv is None:
            continue
        A[row], A[piv] = A[piv], A[row]
        lead = A[row][col]
        for r in range(row + 1, nrows):
            if A[r][col] != 0:
                f = A[r][col]
                A[r] = [lead * a - f * b for a, b in zip(A[r], A[row])]
        row += 1
        rank += 1
        if row == nrows:
            break
    return rank


def numerical_rank(M, tol: float = DEFAULT_TOL, scale_floor: float = 0.0) -> int:
    """Rank from singular values above tol * max(sigma_max, scale_floor).

    Integer-valued matrices (up to 2**40 in magnitude) are ranked exactly
    instead, so rank decisions on sampled data never sit on a threshold.
    A positive scale_floor keeps matrices that are pure roundoff from
    counting as full rank relative to their own noise; derived-Jacobian
    tests pass 1.0, the natural scale of integer desk data.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.size == 0:
        return 0
    if is_integer_valued(M) and inf_norm(M) < 2.0**40:
        return exact_integer_rank(M)
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * max(s[0], scale_floor)))


def safe_inv(A: np.ndarray, what: str = "matrix") -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if abs(np.linalg.det(A)) <= DET_FLOOR:
        raise ValueError(f"{what} is numerically singular")
    return np.linalg.inv(A)


def complement(I, n: int) -> tuple:
    picked = set(I)
    return tuple(i for i in range(n) if i not in picked)


def _row_products(floors: np.ndarray) -> np.ndarray:
    """Product over the last axis, multiplied left to right like a running
    product from 1, so each threshold is the one a scalar scan computes."""
    s = floors[..., 0]
    for j in range(1, floors.shape[-1]):
        s = s * floors[..., j]
    return s


def pivot_rows(mats, m: int, tol: float = DEFAULT_TOL, names=None) -> tuple:
    """Lexicographically smallest m-subset of row indices whose square block
    is invertible in every given matrix.

    A block M[I] counts as invertible when
    |det M[I]| > tol * prod_{i in I} max(1, |M[i]|_inf), so the rule is
    reproducible and, because a right action multiplies determinants by a
    fixed nonzero factor, orbit-invariant on well-conditioned data.

    The leading subset range(m) is tested first.  On a miss only the live
    rows, nonzero in every matrix, are searched: a block with an exactly
    zero row has a zero LU pivot, so its determinant is 0 (or NaN after
    overflow) and, for tol >= 0, it is never admissible.  Dropping those
    subsets keeps the lexicographic order of the rest.  The live subsets
    are evaluated in lexicographic chunks of PIVOT_CHUNK, with one stacked
    determinant per matrix per chunk; the stacked determinant runs the same
    LU per block and the thresholds multiply the row floors in the same
    order, so the decision is the one a subset-by-subset scan makes.  The
    cost grows with the position of the answer among the live subsets:
    dependent nonzero rows are still enumerated, up to C(live, m)
    determinants when no subset qualifies.
    """
    mats = [np.asarray(M, dtype=float) for M in mats]
    n = mats[0].shape[0]
    if n >= m:
        floors = [np.fmax(1.0, np.max(np.abs(M), axis=1)) for M in mats]
        if all(abs(np.linalg.det(M[:m])) > tol * _row_products(f[:m])
               for M, f in zip(mats, floors)):
            return tuple(range(m))
        live = (list(range(n)) if tol < 0 else
                np.flatnonzero(np.logical_and.reduce([M.any(axis=1) for M in mats])).tolist())
        subsets = itertools.combinations(live, m)
        size = 1  # the leading live subset alone, then whole chunks
        if live[:m] == list(range(m)):
            next(subsets)  # the leading subset, tested above
            size = PIVOT_CHUNK
        while True:
            chunk = itertools.chain.from_iterable(itertools.islice(subsets, size))
            idx = np.fromiter(chunk, dtype=np.intp).reshape(-1, m)
            if not len(idx):
                break
            for M, f in zip(mats, floors):  # keep the subsets every matrix admits
                idx = idx[np.abs(np.linalg.det(M[idx])) > tol * _row_products(f[idx])]
            if len(idx):
                return tuple(int(i) for i in idx[0])
            size = PIVOT_CHUNK
    labels = ", ".join(names) if names else f"{len(mats)} matrix(es)"
    raise ChartError(
        f"no admissible pivot rows: every {m}-subset of rows has a "
        f"singular block in at least one of {labels}")
