import itertools
from fractions import Fraction

import numpy as np
import pytest

from doublejets.linalg import (DEFAULT_TOL, PIVOT_CHUNK, ChartError, exact_integer_rank,
                               inf_norm, numerical_rank, pivot_rows)
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


def sample_mats(rng, kind, n, m):
    """One or two matrices of a kind; the dead-row kinds post-process
    integer samples so that some rows are exactly zero (or NaN, or huge)."""
    base = {"zero-in-Uo": "integer", "negative-zero": "integer",
            "few-live": "integer", "nan-rows": "zero-rows",
            "huge-rows": "zero-rows"}.get(kind, kind)
    mats = [sample_matrix(rng, base, n, m) for _ in range(int(rng.integers(1, 3)))]
    if kind == "zero-in-Uo":  # the joint search: a row dead in Uo only
        mats = [mats[0], sample_matrix(rng, "integer", n, m)]
        mats[1][rng.random(n) < 0.4] = 0.0
    elif kind == "negative-zero":
        for M in mats:
            M[rng.random(n) < 0.5] = -0.0
            M[rng.random((n, m)) < 0.1] = -0.0
    elif kind == "few-live":  # fewer than m live rows, or exactly m
        live = rng.permutation(n)[:int(rng.integers(0, m + 1))]
        for M in mats:
            M[np.setdiff1d(np.arange(n), live)] = 0.0
    elif kind == "nan-rows":
        for M in mats:
            M[rng.random(n) < 0.2] = np.nan
    elif kind == "huge-rows":
        for M in mats:
            M[rng.random(n) < 0.5] *= 1e300
    return mats


KINDS = ("integer", "scaled", "perturbed", "rank-deficient", "zero-rows", "near-singular",
         "zero-in-Uo", "negative-zero", "few-live", "nan-rows", "huge-rows")


@pytest.mark.filterwarnings("ignore:.* encountered in:RuntimeWarning")  # NaN and 1e300 rows
@pytest.mark.parametrize("kind", KINDS)
def test_pivot_rows_matches_subset_scan(kind):
    outcomes = set()
    for t in range(300):
        rng = rng_from(61, KINDS.index(kind), t)
        m = int(rng.integers(1, 5))
        n = int(rng.integers(m, m + 6))  # includes n = m
        mats = sample_mats(rng, kind, n, m)
        expected = decision(pivot_rows_by_subset, mats, m)
        got = decision(pivot_rows, mats, m)
        assert got == expected
        if got != "ChartError":
            assert all(type(i) is int for i in got)  # json.dumps rejects np.int64
        outcomes.add("ChartError" if expected == "ChartError" else expected == tuple(range(m)))
    assert {"rank-deficient": "ChartError", "zero-rows": False, "zero-in-Uo": False,
            "negative-zero": False, "few-live": "ChartError", "nan-rows": False,
            "huge-rows": False}.get(kind, True) in outcomes


@pytest.mark.filterwarnings("ignore:.* encountered in:RuntimeWarning")
def test_pivot_rows_negative_tol_matches_subset_scan():
    """With tol < 0 a zero determinant passes, so dead rows stay in the search."""
    for t in range(100):
        rng = rng_from(64, t)
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m, m + 5))
        mats = sample_mats(rng, "nan-rows", n, m)
        assert decision(lambda M, k: pivot_rows(M, k, -1.0), mats, m) == \
            decision(lambda M, k: pivot_rows_by_subset(M, k, -1.0), mats, m)


def test_pivot_rows_dead_and_dependent_rows_reach_a_later_chunk():
    """Zero rows among nonzero rows that are all parallel: an admissible set
    needs one of them and the whole tail, past the first chunk of live subsets."""
    m = 4
    positions = []
    for t in range(12):
        rng = rng_from(65, t)
        n = 15 + t % 2
        v = rng.integers(1, 6, size=m).astype(float)
        head = rng.integers(1, 4, size=(n - m + 1, 1)) * v
        head[rng.permutation(len(head))[:1 + t % 2]] = 0.0
        mats = [np.vstack([head, sample_matrix(rng, "integer", m - 1, m)])]
        if t % 3 == 0:
            mats.append(mats[0] * rng.integers(1, 4, size=(n, 1)))
        expected = decision(pivot_rows_by_subset, mats, m)
        assert pivot_rows(mats, m) == expected
        live = [i for i in range(n) if all(M[i].any() for M in mats)]
        positions.append(list(itertools.combinations(live, m)).index(expected))
    assert max(positions) > PIVOT_CHUNK


def test_pivot_rows_fewer_live_rows_than_m():
    """Same message as any other chart failure, and exactly m live rows are
    found wherever they sit."""
    M = np.zeros((9, 3))
    M[[2, 5]] = [[1.0, 2.0, 3.0], [0.0, 1.0, 5.0]]
    with pytest.raises(ChartError, match=r"^no admissible pivot rows: every 3-subset of "
                                         r"rows has a singular block in at least one of "
                                         r"Ui, Uo$"):
        pivot_rows([M, M], 3, names=("Ui", "Uo"))
    M[7] = [4.0, 0.0, 1.0]
    assert pivot_rows([M, M], 3) == (2, 5, 7)
    Uo = M.copy()
    Uo[5] = 0.0
    with pytest.raises(ChartError):
        pivot_rows([M, Uo], 3)


def test_det_of_a_block_with_a_zero_row_is_zero_or_nan():
    """The invariant behind skipping dead rows, single and stacked, at
    scales from subnormal to near overflow, with inf and NaN elsewhere."""
    rng = rng_from(66)
    for t in range(2000):
        k = int(rng.integers(1, 6))
        with np.errstate(over="ignore"):
            blocks = rng.standard_normal((8, k, k)) * 10.0 ** rng.integers(-320, 309, size=(8, k, 1))
        blocks[rng.random((8, k, k)) < 0.05] = rng.choice([np.inf, -np.inf, np.nan])
        rows = rng.integers(0, k, size=8)
        blocks[np.arange(8), rows] = rng.choice([0.0, -0.0])
        with np.errstate(all="ignore"):
            d = np.concatenate([np.linalg.det(blocks), [np.linalg.det(B) for B in blocks]])
        assert np.all((d == 0.0) | np.isnan(d)), (t, d)


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


def fraction_rank(M):
    """Reference rank: Gauss-Jordan elimination over the rationals."""
    A = [[Fraction(int(v)) for v in row] for row in np.atleast_2d(M)]
    rank = 0
    for col in range(len(A[0]) if A else 0):
        piv = next((r for r in range(rank, len(A)) if A[r][col] != 0), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        for r in range(len(A)):
            if r != rank and A[r][col] != 0:
                f = A[r][col] / A[rank][col]
                A[r] = [a - f * b for a, b in zip(A[r], A[rank])]
        rank += 1
    return rank


def test_exact_integer_rank_matches_fraction_elimination():
    big = 2**40 - 1  # numerical_rank takes the exact path below 2**40
    shapes = [(1, 1), (1, 5), (5, 1), (7, 3), (3, 7), (6, 6), (9, 4)]
    ranks = set()
    for t in range(400):
        rng = rng_from(67, t)
        n, k = shapes[t % len(shapes)]
        style = t // len(shapes) % 4
        if style == 0:
            M = rng.integers(-big, big + 1, size=(n, k))
        elif style == 1:  # low rank, entries below 2**40
            r = int(rng.integers(0, min(n, k) + 1))
            M = rng.integers(-2**18, 2**18, size=(n, r)) @ rng.integers(-2**18, 2**18, size=(r, k))
        elif style == 2:  # small entries with zero rows
            M = rng.integers(-2, 3, size=(n, k))
            M[rng.random(n) < 0.5] = 0
        else:  # all zero but for a few huge entries
            M = np.zeros((n, k), dtype=np.int64)
            M[rng.random((n, k)) < 0.2] = big * rng.choice([-1, 1])
        F = M.astype(float)
        assert np.array_equal(F, M) and inf_norm(F) < 2.0**40
        expected = fraction_rank(M)
        assert exact_integer_rank(F) == numerical_rank(F) == expected, (t, M)
        ranks.add(expected)
    assert exact_integer_rank(np.zeros((4, 3))) == exact_integer_rank(-np.zeros((1, 2))) == 0
    assert exact_integer_rank([3.0, 0.0]) == 1  # one row
    assert ranks == set(range(7))
