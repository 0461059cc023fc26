"""Clamped B-spline function spaces on a closed interval.

Provides basis evaluation (design matrices), the Gram matrix of pairwise
L2 inner products, and the second-derivative roughness penalty matrix.
Both matrices are assembled by per-knot-interval Gauss-Legendre quadrature,
which is exact because the integrands are piecewise polynomials.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy.interpolate import BSpline

from .errors import (
    DimensionMismatchError,
    InvalidDomainError,
    OutOfDomainError,
    UnsupportedOrderError,
)


class SplineBasis:
    """A clamped (open uniform) B-spline basis of a given order.

    The knot vector repeats each domain endpoint ``order`` times around the
    interior knots, so the basis spans all constants, evaluation at the
    endpoints is exact, and the dimension is ``len(interior_knots) + order``.
    Instances are immutable after construction and safe for concurrent reads.

    Parameters
    ----------
    order : int
        Spline order (polynomial degree + 1); 4 gives cubic splines.
    interior_knots : array_like
        Strictly increasing knots strictly inside the open domain.
    domain : (float, float)
        Closed interval [a, b] with a < b.
    """

    def __init__(self, order: int, interior_knots, domain) -> None:
        order = int(order)
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        a, b = (float(domain[0]), float(domain[1]))
        if not (np.isfinite(a) and np.isfinite(b)) or a >= b:
            raise InvalidDomainError(f"domain must satisfy a < b, got [{a}, {b}]")
        interior = np.asarray(interior_knots, dtype=float)
        if interior.ndim != 1:
            raise ValueError("interior_knots must be a 1-d sequence")
        if interior.size:
            if np.any(np.diff(interior) <= 0):
                raise ValueError("interior knots must be strictly increasing")
            if interior[0] <= a or interior[-1] >= b:
                raise ValueError("interior knots must lie strictly inside the domain")
        self.order = order
        self.interior_knots = interior
        self.domain = (a, b)
        self.knots = np.concatenate([np.full(order, a), interior, np.full(order, b)])

    @property
    def degree(self) -> int:
        return self.order - 1

    @property
    def dimension(self) -> int:
        return self.interior_knots.size + self.order

    def __repr__(self) -> str:
        return (
            f"SplineBasis(order={self.order}, interior_knots={self.interior_knots.tolist()}, "
            f"domain={self.domain})"
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SplineBasis)
            and self.order == other.order
            and self.domain == other.domain
            and np.array_equal(self.interior_knots, other.interior_knots)
        )

    def _check_times(self, times: np.ndarray) -> None:
        a, b = self.domain
        if times.size and (times.min() < a or times.max() > b):
            bad = times[(times < a) | (times > b)][0]
            raise OutOfDomainError(f"time {bad} outside basis domain [{a}, {b}]")

    def design_matrix(self, times) -> np.ndarray:
        """Evaluate all basis functions at ``times``; row j is b(t_j)^T."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        if times.ndim != 1:
            raise ValueError("times must be a 1-d array")
        self._check_times(times)
        return self._eval(times, der=0)

    def _eval(self, times: np.ndarray, der: int) -> np.ndarray:
        # One call evaluates every basis function: the sparse design matrix for
        # values, a spline with identity coefficients for derivatives.
        if der == 0:
            return BSpline.design_matrix(times, self.knots, self.degree).toarray()
        return BSpline(self.knots, np.eye(self.dimension), self.degree)(times, nu=der)

    def eval_function(self, coef, times) -> np.ndarray:
        """Evaluate the spline with coefficient vector ``coef`` at ``times``."""
        coef = np.asarray(coef, dtype=float)
        if coef.shape != (self.dimension,):
            raise DimensionMismatchError(
                f"coef has shape {coef.shape}, expected ({self.dimension},)"
            )
        return self.design_matrix(times) @ coef

    def _quadrature_nodes(self):
        # Gauss-Legendre with `order` nodes per knot span: exact for products of
        # two basis functions (degree <= 2*(order-1) <= 2*order-1).
        breaks = np.concatenate([[self.domain[0]], self.interior_knots, [self.domain[1]]])
        g, w = np.polynomial.legendre.leggauss(self.order)
        half = 0.5 * np.diff(breaks)
        mid = 0.5 * (breaks[:-1] + breaks[1:])
        nodes = (mid[:, None] + half[:, None] * g[None, :]).ravel()
        weights = (half[:, None] * w[None, :]).ravel()
        return nodes, weights

    @cached_property
    def gram_matrix(self) -> np.ndarray:
        """Matrix J of pairwise L2 inner products of the basis functions."""
        nodes, weights = self._quadrature_nodes()
        B = self._eval(nodes, der=0)
        J = (B * weights[:, None]).T @ B
        J.setflags(write=False)
        return J

    @cached_property
    def penalty_matrix(self) -> np.ndarray:
        """Roughness penalty P with v^T P v = integral of the squared second
        derivative of the spline with coefficients v."""
        if self.order < 3:
            raise UnsupportedOrderError(
                f"second-derivative penalty needs order >= 3, got {self.order}"
            )
        nodes, weights = self._quadrature_nodes()
        D2 = self._eval(nodes, der=2)
        P = (D2 * weights[:, None]).T @ D2
        P.setflags(write=False)
        return P

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "interior_knots": self.interior_knots.tolist(),
            "domain": list(self.domain),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SplineBasis":
        return cls(doc["order"], doc["interior_knots"], doc["domain"])


def build_basis(order: int, num_interior_knots: int, domain) -> SplineBasis:
    """Construct a clamped basis with equidistant interior knots.

    ``num_interior_knots`` counts knots strictly inside the domain, so the
    dimension is ``num_interior_knots + order``.
    """
    if int(num_interior_knots) < 0:
        raise ValueError(f"num_interior_knots must be >= 0, got {num_interior_knots}")
    a, b = (float(domain[0]), float(domain[1]))
    if not (np.isfinite(a) and np.isfinite(b)) or a >= b:
        raise InvalidDomainError(f"domain must satisfy a < b, got [{a}, {b}]")
    interior = np.linspace(a, b, int(num_interior_knots) + 2)[1:-1]
    return SplineBasis(order, interior, (a, b))


def design_matrix(basis: SplineBasis, times) -> np.ndarray:
    return basis.design_matrix(times)


def gram_matrix(basis: SplineBasis) -> np.ndarray:
    return basis.gram_matrix


def penalty_matrix(basis: SplineBasis) -> np.ndarray:
    return basis.penalty_matrix


def eval_function(basis: SplineBasis, coef, times) -> np.ndarray:
    return basis.eval_function(coef, times)
