import math

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.interpolate import BSpline

from rfpca import (
    InvalidDomainError,
    InvalidInputError,
    OutOfDomainError,
    SplineBasis,
    UnsupportedOrderError,
    DimensionMismatchError,
    build_basis,
)
from oracles import (
    bspline_basis,
    bspline_basis_derivative,
    greville_abscissae,
    reference_design_matrix,
)


def test_dimension_examples():
    assert build_basis(4, 5, (0, 1)).dimension == 9
    assert build_basis(1, 0, (0, 1)).dimension == 1
    assert build_basis(4, 10, (0, 1)).dimension == 14


def test_dimension_matches_support_count(rng):
    # count basis functions with nonzero support on a fine grid
    basis = build_basis(4, 10, (0, 1))
    grid = np.linspace(0, 1, 801)
    B = reference_design_matrix(basis, grid)
    assert int((np.abs(B).max(axis=0) > 0).sum()) == 14


def test_invalid_construction():
    with pytest.raises(InvalidDomainError):
        build_basis(4, 5, (1.0, 1.0))
    with pytest.raises(InvalidDomainError):
        build_basis(4, 5, (2.0, -1.0))
    with pytest.raises(ValueError):
        build_basis(0, 5, (0, 1))
    with pytest.raises(ValueError):
        build_basis(4, -1, (0, 1))


# settings of the wrong kind; each was coerced: order 4.7 built a cubic
# basis, "4" and the domain ("0", "1") were parsed, 2.9 knots became 2
@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: SplineBasis(4.7, [0.5], (0, 1)), InvalidInputError,
                     "order must be an integer", id="order-fraction"),
        pytest.param(lambda: SplineBasis("4", [0.5], (0, 1)), InvalidInputError,
                     "order must be an integer", id="order-text"),
        pytest.param(lambda: build_basis(True, 2, (0, 1)), InvalidInputError,
                     "order must be an integer", id="order-bool"),
        pytest.param(lambda: build_basis(4, 2.9, (0, 1)), InvalidInputError,
                     "num_interior_knots must be an integer", id="knots-fraction"),
        pytest.param(lambda: build_basis(4, 2, ("0", "1")), InvalidDomainError,
                     "domain must be two finite real numbers", id="domain-text"),
        pytest.param(lambda: SplineBasis(4, [0.5], ("0", "1")), InvalidDomainError,
                     "domain must be two finite real numbers", id="basis-domain-text"),
        pytest.param(lambda: build_basis(4, 2, (0, math.inf)), InvalidDomainError,
                     "domain must be two finite real numbers", id="domain-inf"),
        pytest.param(lambda: build_basis(4, 2, (0, 0.5, 1)), InvalidDomainError,
                     "domain must be two finite real numbers", id="domain-three"),
        pytest.param(lambda: SplineBasis(4, [0.6, 0.3], (0, 1)), InvalidInputError,
                     "interior knots must be strictly increasing", id="knots-unsorted"),
        pytest.param(lambda: SplineBasis(4, [0.5, 1.5], (0, 1)), InvalidInputError,
                     "interior knots must lie strictly inside the domain", id="knots-outside"),
        pytest.param(lambda: build_basis(4, 2, (0, 1)).design_matrix([[0.1, 0.2]]),
                     DimensionMismatchError, "times must be a 1-d array", id="times-2d"),
    ],
)
def test_settings_of_the_wrong_kind_raise_typed_errors(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_settings_take_numpy_scalars():
    basis = build_basis(np.int64(4), np.int64(2), (np.float64(0.0), np.int64(1)))
    assert basis == build_basis(4, 2, (0.0, 1.0))
    assert type(basis.order) is int and all(type(v) is float for v in basis.domain)


def test_design_matrix_endpoints():
    basis = build_basis(4, 5, (0, 1))
    row_a = basis.design_matrix([0.0])[0]
    row_b = basis.design_matrix([1.0])[0]
    expected_a = np.zeros(9)
    expected_a[0] = 1.0
    expected_b = np.zeros(9)
    expected_b[-1] = 1.0
    np.testing.assert_allclose(row_a, expected_a, atol=1e-14)
    np.testing.assert_allclose(row_b, expected_b, atol=1e-14)


def test_partition_of_unity(rng):
    for order, knots in [(4, 5), (1, 0), (2, 3), (6, 8)]:
        basis = build_basis(order, knots, (-1.5, 2.0))
        times = rng.uniform(-1.5, 2.0, 200)
        B = basis.design_matrix(times)
        np.testing.assert_allclose(B.sum(axis=1), 1.0, atol=1e-12)
        assert (np.count_nonzero(B, axis=1) <= order).all()


def test_design_matrix_matches_recursion_oracle(rng):
    basis = build_basis(4, 5, (0, 1))
    times = np.sort(rng.uniform(0, 1, 40))
    B = basis.design_matrix(times)
    B_ref = reference_design_matrix(basis, times)
    np.testing.assert_allclose(B, B_ref, atol=1e-12)


def test_design_matrix_out_of_range():
    basis = build_basis(4, 5, (0, 1))
    with pytest.raises(OutOfDomainError):
        basis.design_matrix([0.5, 1.0001])
    with pytest.raises(OutOfDomainError):
        basis.design_matrix([-0.2])


def test_gram_matrix_partition_integral():
    basis = build_basis(4, 5, (0.0, 2.5))
    assert abs(basis.gram_matrix.sum() - 2.5) < 1e-12


def test_gram_matrix_band_structure():
    basis = build_basis(4, 5, (0, 1))
    J = basis.gram_matrix
    p = basis.dimension
    for i in range(p):
        for j in range(p):
            if abs(i - j) >= basis.order:
                assert J[i, j] == 0.0


def test_gram_matrix_against_simpson():
    basis = build_basis(4, 5, (0, 1))
    grid = np.linspace(0, 1, 4001)
    B = reference_design_matrix(basis, grid)
    J_ref = np.empty((9, 9))
    for i in range(9):
        for j in range(9):
            J_ref[i, j] = simpson(B[:, i] * B[:, j], x=grid)
    np.testing.assert_allclose(basis.gram_matrix, J_ref, atol=1e-9)


def test_gram_matrix_positive_definite_and_deterministic():
    b1 = build_basis(4, 5, (0, 1))
    b2 = build_basis(4, 5, (0, 1))
    assert np.linalg.eigvalsh(b1.gram_matrix).min() > 0
    assert np.array_equal(b1.gram_matrix, b2.gram_matrix)
    assert np.array_equal(b1.penalty_matrix, b2.penalty_matrix)


def test_penalty_annihilates_linear_functions():
    basis = build_basis(4, 5, (0, 1))
    coef = 1.0 + 2.0 * greville_abscissae(basis)  # coefficients of f(t) = 1 + 2t
    times = np.linspace(0, 1, 11)
    np.testing.assert_allclose(basis.eval_function(coef, times), 1 + 2 * times, atol=1e-12)
    assert coef @ basis.penalty_matrix @ coef < 1e-10


def test_penalty_psd_and_simpson_oracle(rng):
    basis = build_basis(4, 5, (0, 1))
    P = basis.penalty_matrix
    assert np.linalg.eigvalsh(0.5 * (P + P.T)).min() >= -1e-10
    grid = np.linspace(0, 1, 4001)
    D2 = np.empty((grid.size, 9))
    for i in range(9):
        D2[:, i] = [bspline_basis_derivative(basis.knots, 3, i, t, order=2) for t in grid]
    for _ in range(3):
        v = rng.normal(size=9)
        quad = simpson((D2 @ v) ** 2, x=grid)
        assert abs(v @ P @ v - quad) < 1e-7 * max(quad, 1.0)


def test_penalty_low_order_error():
    with pytest.raises(UnsupportedOrderError):
        build_basis(2, 4, (0, 1)).penalty_matrix


def test_eval_function(rng):
    basis = build_basis(4, 5, (0, 1))
    times = rng.uniform(0, 1, 25)
    assert np.all(basis.eval_function(np.zeros(9), times) == 0.0)
    np.testing.assert_allclose(basis.eval_function(np.ones(9), times), 1.0, atol=1e-12)
    coef = rng.normal(size=9)
    ref = reference_design_matrix(basis, times) @ coef
    np.testing.assert_allclose(basis.eval_function(coef, times), ref, atol=1e-12)
    with pytest.raises(DimensionMismatchError):
        basis.eval_function(np.zeros(8), times)


# ---------------------------------------------------------------------------
# scipy's B-spline evaluation as an exact oracle: the de Boor evaluator runs
# FITPACK's operation order, so every value is bitwise scipy's
# ---------------------------------------------------------------------------

def _oracle_times(rng, basis):
    a, b = basis.domain
    return np.concatenate([rng.uniform(a, b, 500), basis.knots, [a, b]])


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("knots, domain", [(5, (0, 1)), (0, (0, 1)), (12, (-1.5, 2.0))])
def test_design_matrix_equals_scipy(rng, order, knots, domain):
    basis = build_basis(order, knots, domain)
    times = _oracle_times(rng, basis)
    ref = BSpline.design_matrix(times, basis.knots, basis.degree).toarray()
    assert np.array_equal(basis.design_matrix(times), ref)


@pytest.mark.parametrize("order", [3, 4, 5, 6])
@pytest.mark.parametrize("der", [1, 2])
def test_derivatives_equal_scipy(rng, order, der):
    basis = build_basis(order, 7, (-1.5, 2.0))
    times = _oracle_times(rng, basis)
    spline = BSpline(basis.knots, np.eye(basis.dimension), basis.degree)
    assert np.array_equal(basis._eval(times, der), spline(times, nu=der))


@pytest.mark.parametrize("order", [3, 4, 6])
def test_gram_and_penalty_equal_scipy_assembly(order):
    basis = build_basis(order, 5, (0.0, 2.5))
    nodes, weights = basis._quadrature_nodes()
    B = BSpline.design_matrix(nodes, basis.knots, basis.degree).toarray()
    D2 = BSpline(basis.knots, np.eye(basis.dimension), basis.degree)(nodes, nu=2)
    assert np.array_equal(basis.gram_matrix, (B * weights[:, None]).T @ B)
    assert np.array_equal(basis.penalty_matrix, (D2 * weights[:, None]).T @ D2)


@pytest.mark.parametrize(
    "times, bad",
    [([np.nan], "nan"), ([0.5, np.nan], "nan"), ([0.2, np.inf, np.nan], "inf"),
     ([-np.inf], "-inf")],
)
def test_non_finite_times_are_out_of_domain(times, bad):
    basis = build_basis(4, 5, (0, 1))
    for call in (basis.design_matrix, lambda t: basis.eval_function(np.ones(9), t)):
        with pytest.raises(OutOfDomainError, match=rf"^time {bad} outside"):
            call(times)


def test_empty_times_give_empty_rows():
    basis = build_basis(4, 5, (0, 1))
    assert basis.design_matrix([]).shape == (0, 9)
    assert basis.eval_function(np.ones(9), np.array([])).shape == (0,)
