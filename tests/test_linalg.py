import itertools

import numpy as np
import pytest

from doublejets.linalg import DEFAULT_TOL, PIVOT_CHUNK, ChartError, inf_norm, pivot_rows
from doublejets.sampling import rng_from


def pivot_rows_by_subset(mats, m, tol=DEFAULT_TOL):
    """Reference twin of pivot_rows: one determinant per subset per matrix,
    scanned in lexicographic order, with the threshold
    tol * prod_{i in I} max(1, |M[i]|_inf) multiplied row by row."""
    mats = [np.asarray(M, dtype=float) for M in mats]
    n = mats[0].shape[0]
    for I in itertools.combinations(range(n), m):
        rows = list(I)

        def admissible(M):
            scale = 1.0
            for i in rows:
                scale *= max(1.0, inf_norm(M[i]))
            return abs(np.linalg.det(M[rows, :])) > tol * scale

        if all(admissible(M) for M in mats):
            return I
    raise ChartError("no admissible pivot rows")


def decision(fn, mats, m):
    try:
        return fn(mats, m)
    except ChartError:
        return "ChartError"


def sample_matrix(rng, kind, n, m):
    M = rng.integers(-5, 6, size=(n, m)).astype(float)
    if kind == "scaled":
        M *= 10.0 ** rng.choice([-7, 7])
    elif kind == "perturbed":
        M *= 10.0 ** int(rng.integers(-7, 8)) * (1.0 + 1e-3 * rng.standard_normal((n, m)))
    elif kind == "rank-deficient":
        r = int(rng.integers(0, m))
        M = (rng.integers(-3, 4, size=(n, r)) @ rng.integers(-3, 4, size=(r, m))).astype(float)
    elif kind == "zero-rows":
        M[rng.random(n) < 0.5] = 0.0
    elif kind == "near-singular":
        M[:, -1] = M[:, 0] + 10.0 ** int(rng.integers(-12, -6)) * rng.standard_normal(n)
    return M


KINDS = ("integer", "scaled", "perturbed", "rank-deficient", "zero-rows", "near-singular")


@pytest.mark.parametrize("kind", KINDS)
def test_pivot_rows_matches_subset_scan(kind):
    outcomes = set()
    for t in range(300):
        rng = rng_from(61, KINDS.index(kind), t)
        m = int(rng.integers(1, 5))
        n = int(rng.integers(m, m + 6))  # includes n = m
        mats = [sample_matrix(rng, kind, n, m) for _ in range(int(rng.integers(1, 3)))]
        expected = decision(pivot_rows_by_subset, mats, m)
        assert decision(pivot_rows, mats, m) == expected
        outcomes.add("ChartError" if expected == "ChartError" else expected == tuple(range(m)))
    assert {"rank-deficient": "ChartError", "zero-rows": False}.get(kind, True) in outcomes


@pytest.mark.parametrize("n, m, dead", [(12, 4, 8), (12, 4, 5), (11, 3, 7), (10, 3, 0)])
def test_pivot_rows_deep_positions(n, m, dead):
    """Answers past the first chunk, and the lexicographically last subset."""
    answers = []
    for t in range(20):
        rng = rng_from(62, n, dead, t)
        mats = []
        for _ in range(1 + t % 2):
            M = sample_matrix(rng, ("integer", "perturbed")[t % 2], n, m)
            M[:dead] = 0.0
            mats.append(M)
        expected = decision(pivot_rows_by_subset, mats, m)
        assert decision(pivot_rows, mats, m) == expected
        answers.append(expected)
    if dead == n - m:
        assert tuple(range(dead, n)) in answers
    if dead == 5:
        order = list(itertools.combinations(range(n), m))
        assert any(order.index(I) > PIVOT_CHUNK for I in answers if I in order)


def test_pivot_rows_all_singular_message():
    M = np.zeros((5, 2))
    M[:, 0] = 1.0
    with pytest.raises(ChartError, match=r"every 2-subset of rows has a singular "
                                         r"block in at least one of Ui, Uo"):
        pivot_rows([np.eye(5, 2), M], 2, names=("Ui", "Uo"))
    with pytest.raises(ChartError, match=r"at least one of 1 matrix\(es\)$"):
        pivot_rows([M], 2)
