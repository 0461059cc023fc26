"""Clamped B-spline function spaces on a closed interval.

Provides basis evaluation (design matrices), the Gram matrix of pairwise
L2 inner products, and the second-derivative roughness penalty matrix.
Both matrices are assembled by per-knot-interval Gauss-Legendre quadrature,
which is exact because the integrands are piecewise polynomials.

Basis functions and their derivatives come from de Boor's recursion
(de Boor 1972, J. Approx. Theory 6:50), vectorised over times and run in
the operation order of FITPACK's ``fpbspl``, so every value is bitwise the
one ``scipy.interpolate.BSpline`` computes.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidDomainError,
    InvalidInputError,
    OutOfDomainError,
    UnsupportedOrderError,
    check_integer,
    is_real,
)


def _domain(domain) -> tuple[float, float]:
    """``domain`` as floats (a, b); ``InvalidDomainError`` unless it is two
    finite real numbers a < b."""
    if not (np.ndim(domain) == 1 and len(domain) == 2 and all(map(is_real, domain))
            and -math.inf < domain[0] < domain[1] < math.inf):
        raise InvalidDomainError(f"domain must be two finite real numbers a < b, got {domain!r}")
    return float(domain[0]), float(domain[1])


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
        check_integer("order", order)
        if order < 1:
            raise UnsupportedOrderError(f"order must be >= 1, got {order}")
        order = int(order)
        a, b = _domain(domain)
        interior = np.asarray(interior_knots, dtype=float)
        if interior.ndim != 1:
            raise InvalidInputError("interior_knots must be a 1-d sequence")
        if interior.size:
            if np.any(np.diff(interior) <= 0):
                raise InvalidInputError("interior knots must be strictly increasing")
            if interior[0] <= a or interior[-1] >= b:
                raise InvalidInputError("interior knots must lie strictly inside the domain")
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
        outside = ~((times >= a) & (times <= b))  # NaN fails both comparisons
        if outside.any():
            bad = times[outside][0]
            raise OutOfDomainError(f"time {bad} outside basis domain [{a}, {b}]")

    def design_matrix(self, times) -> np.ndarray:
        """Evaluate all basis functions at ``times``; row j is b(t_j)^T."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        if times.ndim != 1:
            raise DimensionMismatchError("times must be a 1-d array")
        self._check_times(times)
        return self._eval(times, der=0)

    def _eval(self, times: np.ndarray, der: int) -> np.ndarray:
        """Derivative ``der`` of every basis function at ``times`` (in the domain).

        Each time x lies in the knot span ``knots[l] <= x < knots[l+1]``, the
        right endpoint in the last one, where only basis functions l-k..l are
        nonzero (k the degree). The recursion builds those k+1 values for all
        times at once, entry by entry as FITPACK's ``fpbspl`` does for one
        time: k-der value steps, then der derivative steps as in scipy's
        ``_deBoor_D``.
        """
        t, k, p = self.knots, self.degree, self.dimension
        span = np.clip(np.searchsorted(t, times, "right") - 1, k, p - 1)
        h = [np.ones_like(times)]
        for j in range(1, k + 1):
            hh, h = h, [0.0] * (j + 1)
            for n in range(1, j + 1):
                # right > left always: spans k..p-1 are nonempty, so
                # FITPACK's branch for coincident knots never runs
                right, left = t.take(span + n), t.take(span + (n - j))
                if j <= k - der:
                    w = hh[n - 1] / (right - left)
                    h[n - 1] = h[n - 1] + w * (right - times)
                    h[n] = w * (times - left)
                else:
                    w = (j * hh[n - 1]) / (right - left)
                    h[n - 1] = h[n - 1] - w
                    h[n] = w
        out = np.zeros((times.size, p))
        rows = np.arange(times.size)
        for a, column in enumerate(h):
            out[rows, span - k + a] = column
        return out

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
    def gram_cholesky(self) -> np.ndarray:
        """Lower-triangular Cholesky factor L of the Gram matrix, J = L L^T."""
        L = np.linalg.cholesky(self.gram_matrix)
        L.setflags(write=False)
        return L

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
    check_integer("num_interior_knots", num_interior_knots)
    if num_interior_knots < 0:
        raise InvalidInputError(f"num_interior_knots must be >= 0, got {num_interior_knots}")
    a, b = _domain(domain)
    interior = np.linspace(a, b, num_interior_knots + 2)[1:-1]
    return SplineBasis(order, interior, (a, b))

