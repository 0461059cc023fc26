"""The three special functions the t model needs, on numpy and ``math`` alone.

Every argument the package passes has structure: degrees of freedom are
integers m_i, so Gamma-function arguments are half-integers m_i / 2, and the
normal quantile is needed once per band. That structure gives closed forms
that need no general-purpose special-function library:

- ``ndtri``: the cephes normal quantile, operation for operation;
- ``chi2_quantile``: Newton steps on the closed-form upper incomplete gamma
  function Q(m/2, x) at integer and half-integer shape;
- ``log_gamma_ratio``: log Gamma(a + m/2) - log Gamma(a) - (m/2) log a by
  recurrence in m, free of the cancellation between two large log Gammas.
"""

from __future__ import annotations

import math

import numpy as np

# cephes ndtri: a rational approximation in y - 1/2 on the centre, and two in
# 1/sqrt(-2 log y) on the tails. The denominators Q are monic: cephes
# evaluates them with p1evl, which _polevl over the stored leading 1.0 matches
# bitwise, since 1.0 * x == x
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXPM2 = 0.13533528323661269189  # exp(-2)
_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_Q0 = (
    1.0,
    1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_Q1 = (
    1.0,
    1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_Q2 = (
    1.0,
    6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


def _polevl(x: float, coef) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def ndtri(y0: float) -> float:
    """The standard normal quantile at ``y0`` in [0, 1]; cephes ``ndtri``'s
    operation order, so its value is bitwise ``scipy.special.ndtri``'s."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if not 0.0 < y0 < 1.0:
        return math.nan
    negate = True
    y = y0
    if y > 1.0 - _EXPM2:
        y = 1.0 - y
        negate = False
    if y > _EXPM2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:  # y > exp(-32)
        x1 = z * _polevl(z, _P1) / _polevl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _polevl(z, _Q2)
    x = x0 - x1
    return -x if negate else x


# Stirling's series: log Gamma(a + 1) = log(sqrt(2 pi a) (a/e)^a) + mu(a),
# with mu(a) = 1/(12a) - 1/(360a^3) + 1/(1260a^5) - ...; three terms leave
# less than 1e-22 at the shapes that use it
_STIRLING = (1.0 / 1260.0, -1.0 / 360.0, 1.0 / 12.0)
# above this shape, x^(a-1) e^(-x) / Gamma(a) is evaluated in Stirling's
# scaled form, where e^(-x) cannot underflow; below it as a product from
# Gamma(1) or Gamma(1/2), which rounds twice per factor
_SCALED_SHAPE = 500.0


def _u_minus_log1p(u: float) -> float:
    """u - log(1 + u) for u > -1, as u w - 2 sum_k w^(2k+3) / (2k+3) with
    w = u / (2 + u): the subtraction cancels at most a third of the first
    term, where ``u - math.log1p(u)`` cancels all but u^2 / 2 of u."""
    w = u / (2.0 + u)
    y = w * w
    total, power, k = 0.0, y, 3
    while power > 1e-17:
        total += power / k
        power *= y
        k += 2
    return u * w - 2.0 * w * total


def _gamma_density(a: float, x: float) -> float:
    """x^(a-1) e^(-x) / Gamma(a) for half-integer a >= 1/2 and x > 0."""
    if a > _SCALED_SHAPE:
        # (x/a)^a e^(a-x) e^(-mu(a)) sqrt(a / 2 pi) / x
        t = 1.0 / a
        exponent = a * _u_minus_log1p((x - a) / a) + t * _polevl(t * t, _STIRLING)
        return math.exp(-exponent) * math.sqrt(a / (2.0 * math.pi)) / x
    if a == int(a):
        density, shape = math.exp(-x), 1.0
    else:
        density, shape = math.exp(-x) / math.sqrt(math.pi * x), 0.5
    while shape < a:
        density *= x / shape
        shape += 1.0
    return density


def _upper_gamma(a: float, x: float) -> tuple[float, float]:
    """Q(a, x) and -dQ/dx = x^(a-1) e^(-x) / Gamma(a), for half-integer
    a >= 1/2 and x > 0.

    Q is the Poisson sum of the densities at shapes a, a - 1, ... down to 1
    (integer a) or 3/2, plus erfc(sqrt(x)) at half-integer a. The sum is
    taken in units of its last term, smallest terms first.
    """
    density = _gamma_density(a, x)
    upper = 0.0 if a == int(a) else math.erfc(math.sqrt(x))
    if a >= 1.0:
        # Horner's rule in the ratios (a - i) / x of consecutive terms,
        # innermost (smallest shape) first
        units, shape = 1.0, a - math.floor(a) + 1.0
        while shape < a:
            units = 1.0 + units * (shape / x)
            shape += 1.0
        upper += density * units
    return upper, density


def chi2_quantile(m: int, p: float) -> float:
    """The p quantile of the chi-square distribution with m >= 1 degrees of
    freedom, for p in [1/2, 1).

    Newton steps on Q(m/2, x) = 1 - p from the Wilson-Hilferty
    approximation. Q is convex and decreasing beyond its mode, so the steps
    approach the root from below after the first; they stop once a step
    moves x by less than 1e-12 relative, when the next would be far below
    one ulp. For m = 1..400 and m = 1000, 2000, 5000 at p = 0.99 the
    result is faithfully rounded (within one ulp of the exact quantile).
    """
    a = 0.5 * m
    target = 1.0 - p
    x = a * (1.0 - 1.0 / (9.0 * a) + ndtri(p) / (3.0 * math.sqrt(a))) ** 3
    for _ in range(100):
        upper, density = _upper_gamma(a, x)
        step = (upper - target) / density
        x += step
        if abs(step) <= 1e-12 * x:
            break
    return 2.0 * x


# log Gamma(a + 1/2) - log Gamma(a) - log(a) / 2 ~ sum_n c_n a^(1 - 2n), with
# c_n = -(2 - 2^(1 - 2n)) B_2n / (2n (2n - 1)) from the Bernoulli numbers;
# seven terms leave less than 6e-17 from a = 10 on
_HALF_RATIO = (
    -5461.0 / 425984.0, 691.0 / 180224.0, -31.0 / 18432.0, 17.0 / 14336.0,
    -1.0 / 640.0, 1.0 / 192.0, -1.0 / 8.0,
)
_HALF_RATIO_SHAPE = 10.0


def _half_ratio(a: float) -> float:
    """log Gamma(a + 1/2) - log Gamma(a) - log(a) / 2 for a > 0."""
    if a < _HALF_RATIO_SHAPE:
        return math.lgamma(a + 0.5) - math.lgamma(a) - 0.5 * math.log(a)
    t = 1.0 / a
    return t * _polevl(t * t, _HALF_RATIO)


def log_gamma_ratio(m: np.ndarray, a: float) -> np.ndarray:
    """log Gamma(a + m/2) - log Gamma(a) - (m/2) log a, elementwise over the
    integers m >= 1, for finite a > 0.

    By recurrence in m: sum_{j < m/2} log1p(j / a) at even m, and
    R(a) + sum_{j < (m-1)/2} log1p((j + 1/2) / a) at odd m, where R is
    ``_half_ratio``. One table over 0..max(m) serves every curve. No two
    large terms are subtracted, so the value keeps its digits at any finite
    a and tends to 0 as a grows.
    """
    top = int(m.max())
    steps = np.zeros(2 * (top // 2 + 1))
    steps[1] = _half_ratio(a)
    steps[2 : top + 1] = np.log1p(np.arange(top - 1) / (2.0 * a))
    return np.cumsum(steps.reshape(-1, 2), axis=0).ravel()[m]
