import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from doublejets.core import (Dims, DoubleVelocity, Velocity, VerticalVector,
                             affine_add_vertical, as_vertical_double,
                             double_equal, exchange, inner_projection,
                             is_holonomic, is_inner_regular, is_regular,
                             is_semiholonomic, is_tau_regular, is_vertical,
                             make_holonomic, outer_projection,
                             split_semiholonomic)
from doublejets.linalg import close
from doublejets.oracle import PolyMap, prolong

coords = st.integers(min_value=-5, max_value=5)


def dv_strategy(m, n):
    def build(flat):
        flat = [float(v) for v in flat]
        u, rest = flat[:n], flat[n:]
        Ui = np.array(rest[: n * m]).reshape(n, m)
        Uo = np.array(rest[n * m: 2 * n * m]).reshape(n, m)
        W = np.array(rest[2 * n * m:]).reshape(n, m, m)
        return DoubleVelocity(Dims(m, n), u, Ui, Uo, W)

    total = n + 2 * n * m + n * m * m
    return st.lists(coords, min_size=total, max_size=total).map(build)


def test_dims_validation():
    with pytest.raises(ValueError):
        Dims(0, 3)
    with pytest.raises(ValueError):
        Dims(2, 0)


def test_velocity_shape_validation():
    with pytest.raises(ValueError):
        Velocity(Dims(1, 2), [0.0, 0.0], [[1.0, 2.0]])
    with pytest.raises(ValueError):
        Velocity(Dims(1, 2), [0.0], [[1.0], [2.0]])


def test_projections_read_off_coordinates():
    dv = DoubleVelocity(Dims(1, 2), [0, 0], [[1], [2]], [[3], [4]], [[[9]], [[9]]])
    inner = inner_projection(dv)
    outer = outer_projection(dv)
    assert np.array_equal(inner.U, [[1], [2]])
    assert np.array_equal(outer.U, [[3], [4]])
    assert np.array_equal(inner.u, dv.u)


def test_projections_agree_on_semiholonomic():
    dv = DoubleVelocity(Dims(1, 2), [1, 2], [[1], [2]], [[1], [2]], [[[3]], [[4]]])
    assert np.array_equal(inner_projection(dv).U, outer_projection(dv).U)


@given(dv_strategy(2, 3))
def test_exchange_involution(dv):
    back = exchange(exchange(dv))
    assert np.array_equal(back.Ui, dv.Ui)
    assert np.array_equal(back.Uo, dv.Uo)
    assert np.array_equal(back.W, dv.W)


@given(dv_strategy(2, 3))
def test_projection_intertwining(dv):
    assert np.array_equal(inner_projection(exchange(dv)).U, outer_projection(dv).U)
    assert np.array_equal(outer_projection(exchange(dv)).U, inner_projection(dv).U)


def test_exchange_m1_swaps_linear_parts():
    dv = DoubleVelocity(Dims(1, 2), [0, 0], [[1], [2]], [[3], [4]], [[[5]], [[6]]])
    out = exchange(dv)
    assert np.array_equal(out.Ui, [[3], [4]])
    assert np.array_equal(out.Uo, [[1], [2]])
    assert np.array_equal(out.W, dv.W)  # 1x1 transpose is the identity


def test_exchange_fixes_holonomic():
    S = np.zeros((2, 2, 2))
    S[0, 0, 1] = S[0, 1, 0] = 3.0
    dv = make_holonomic([0, 0], [[1, 0], [0, 1]], S)
    assert double_equal(exchange(dv), dv)
    assert is_holonomic(dv)


def test_is_regular():
    assert is_regular(Velocity(Dims(1, 2), [0, 0], [[1], [2]]))
    assert not is_regular(Velocity(Dims(1, 2), [0, 0], [[0], [0]]))
    v = Velocity(Dims(2, 3), [0, 0, 0], [[1, 1], [2, 2], [3, 3]])
    assert not is_regular(v)


def test_is_tau_regular():
    vertical = DoubleVelocity(Dims(1, 2), [0, 0], [[1], [2]], [[0], [0]],
                              np.zeros((2, 1, 1)))
    assert not is_tau_regular(vertical)
    dv = DoubleVelocity(Dims(1, 2), [0, 0], [[1], [2]], [[4], [6]],
                        np.zeros((2, 1, 1)))
    assert is_tau_regular(dv)
    semi = DoubleVelocity(Dims(1, 2), [0, 0], [[1], [2]], [[1], [2]],
                          np.zeros((2, 1, 1)))
    assert is_tau_regular(semi)


def test_is_inner_regular_and_duality():
    dv = DoubleVelocity(Dims(1, 2), [0, 0], [[1], [0]], [[0], [0]],
                        np.zeros((2, 1, 1)))
    assert is_inner_regular(dv)
    zero = DoubleVelocity(Dims(1, 2), [0, 0], [[0], [0]], [[1], [2]],
                          np.zeros((2, 1, 1)))
    assert not is_inner_regular(zero)


@given(dv_strategy(2, 3))
def test_regularity_duality(dv):
    assert is_inner_regular(dv) == is_tau_regular(exchange(dv))


def test_semiholonomic_and_holonomic_predicates():
    dims = Dims(2, 3)
    U = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 3.0]])
    W = np.zeros((3, 2, 2))
    W[0, 0, 1] = 1.0
    semi = DoubleVelocity(dims, np.zeros(3), U, U, W)
    assert is_semiholonomic(semi)
    assert not is_holonomic(semi)  # W asymmetric in (i, j)
    other = DoubleVelocity(dims, np.zeros(3), U, U + 1.0, W)
    assert not is_semiholonomic(other)


def test_make_holonomic_rejects_asymmetric():
    S = np.zeros((2, 2, 2))
    S[0, 0, 1] = 1.0
    with pytest.raises(ValueError):
        make_holonomic([0, 0], [[1, 0], [0, 1]], S)


def test_make_holonomic_symmetry_check_is_relative():
    S = 1e8 * np.array([[[1.0, 3.0], [3.0, 2.0]], [[5.0, 7.0], [7.0, 1.0]]])
    S[0, 0, 1] = np.nextafter(S[0, 0, 1], np.inf)  # one ulp, about 6e-8
    assert np.array_equal(make_holonomic([0, 0], [[1, 0], [0, 1]], S).W, S)
    S[0, 0, 1] *= 1.0 + 1e-6
    with pytest.raises(ValueError, match="S must be symmetric"):
        make_holonomic([0, 0], [[1, 0], [0, 1]], S)


def test_make_holonomic_matches_prolongation():
    # gamma(s) = (s, s^2): value 0, derivative (1, 0), second derivative (0, 2)
    g = PolyMap(Dims(1, 2), [0.0, 0.0], [[1.0], [0.0]], [[[0.0]], [[2.0]]])
    S = np.zeros((2, 1, 1))
    S[1, 0, 0] = 2.0
    built = make_holonomic([0.0, 0.0], [[1.0], [0.0]], S)
    assert double_equal(built, prolong(g))


def test_split_semiholonomic_symmetric_input():
    S = np.zeros((2, 2, 2))
    S[1, 0, 1] = S[1, 1, 0] = 2.0
    dv = make_holonomic([0, 0], [[1, 0], [0, 1]], S)
    h, k = split_semiholonomic(dv)
    assert np.max(np.abs(k.K)) == 0.0
    assert double_equal(h, dv)


def test_split_semiholonomic_mixed_split():
    dims = Dims(2, 3)
    U = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    W = np.zeros((3, 2, 2))
    W[0, 0, 1] = 1.0  # W[a][1][2] = 1, W[a][2][1] = 0
    dv = DoubleVelocity(dims, np.zeros(3), U, U, W)
    h, k = split_semiholonomic(dv)
    assert h.W[0, 0, 1] == 0.5 and h.W[0, 1, 0] == 0.5
    assert k.K[0, 0, 1] == 0.5 and k.K[0, 1, 0] == -0.5
    assert double_equal(affine_add_vertical(h, k), dv)


def test_split_semiholonomic_m1_has_no_skew():
    dv = DoubleVelocity(Dims(1, 2), [0, 0], [[1], [2]], [[1], [2]], [[[7]], [[8]]])
    _, k = split_semiholonomic(dv)
    assert np.max(np.abs(k.K)) == 0.0


def test_split_semiholonomic_rejects_nonsemiholonomic():
    dv = DoubleVelocity(Dims(1, 2), [0, 0], [[1], [2]], [[3], [4]], [[[0]], [[0]]])
    with pytest.raises(ValueError):
        split_semiholonomic(dv)


def test_affine_add_vertical_laws():
    dv = DoubleVelocity(Dims(1, 2), [0, 0], [[1], [2]], [[3], [4]], [[[5]], [[6]]])
    base = inner_projection(dv)
    zero = VerticalVector(base, np.zeros((2, 1, 1)))
    assert double_equal(affine_add_vertical(dv, zero), dv)
    k1 = VerticalVector(base, [[[1.0]], [[2.0]]])
    k2 = VerticalVector(base, [[[3.0]], [[-1.0]]])
    two = affine_add_vertical(affine_add_vertical(dv, k1), k2)
    one = affine_add_vertical(dv, VerticalVector(base, k1.K + k2.K))
    assert double_equal(two, one)


def test_affine_add_vertical_base_mismatch():
    dv = DoubleVelocity(Dims(1, 2), [0, 0], [[1], [2]], [[3], [4]], [[[5]], [[6]]])
    wrong = Velocity(Dims(1, 2), [0, 0], [[9], [9]])
    with pytest.raises(ValueError):
        affine_add_vertical(dv, VerticalVector(wrong, np.zeros((2, 1, 1))))


def test_is_vertical():
    dv = DoubleVelocity(Dims(1, 2), [0, 0], [[1], [2]], [[0], [0]], [[[5]], [[6]]])
    assert is_vertical(dv)
    assert not is_vertical(DoubleVelocity(Dims(1, 2), [0, 0], [[1], [2]],
                                          [[3], [4]], [[[5]], [[6]]]))
    assert np.max(np.abs(exchange(dv).Ui)) == 0.0


def test_vertical_vector_kinds():
    base = Velocity(Dims(2, 3), np.zeros(3), [[1, 0], [0, 1], [0, 0]])
    K = np.zeros((3, 2, 2))
    K[0, 0, 1] = 1.0
    K[0, 1, 0] = -1.0
    VerticalVector(base, K, kind="alt")
    with pytest.raises(ValueError):
        VerticalVector(base, K, kind="sym")
    with pytest.raises(ValueError):
        VerticalVector(base, K, kind="weird")


def test_as_vertical_double():
    base = Velocity(Dims(1, 2), [1, 2], [[1], [2]])
    k = VerticalVector(base, [[[3.0]], [[4.0]]])
    dv = as_vertical_double(k)
    assert is_vertical(dv)
    assert close(dv.W, k.K)
    assert close(dv.Ui, base.U)
