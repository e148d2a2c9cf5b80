"""Per-order polynomial corrections for the flat-plate boundary-layer system
on a truncated domain.

The coupled similarity equations

    f'''(eta) + (1/2) f(eta) f''(eta) = 0
    eps theta''(eta) + (1/2) f(eta) theta'(eta) = 0

are embedded in a one-parameter family whose linear part is the highest
derivative (d^3/deta^3 for f, eps d^2/deta^2 for theta).  Expanding f and
theta in powers of the embedding parameter p and matching orders gives, for
every j >= 1,

    f_j'''      = -(1/2) sum_{k=0}^{j-1} f_k f''_{j-1-k}
    eps theta_j'' = -(1/2) sum_{k=0}^{j-1} f_k theta'_{j-1-k}

Each right-hand side is a polynomial, so each order is solved exactly:
antidifferentiate with zero constants, then add the one homogeneous term
left free by the conditions at 0 and fit it at eta = L.  The far boundary
is imposed at the finite length L (the "shrunk infinity"), not at infinity:

    f_j(0) = 0,  f_j'(0) = 0,  f_j'(L) = delta_j0
    theta_j(0) = delta_j0,     theta_j(L) = 0

Setting p = 1 turns the correction lists into the usable approximations;
``HpmSeries.partial_sum`` does exactly that.  All arithmetic is exact, so
the boundary and per-order residual identities hold as polynomial
identities, not merely to some tolerance.

``HpmConfig`` and ``HpmSeries`` are frozen records (see ``_record``): the
dataclasses API works on them, but building a series never loads
``dataclasses``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from ._record import _Record
from .exact import RationalPolynomial, as_rational


# Highest accepted order.  Build time grows about as the fourth power of the
# order, all of it in the convolution (on a 2-vCPU host 0.055 s at order 40,
# 0.34 s at order 60 and L = 5 or 10^20, 1.4 s at L = 10^300), so an
# unchecked order is an unbounded computation.
MAX_ORDER = 60


class HpmConfig(_Record):
    """Series parameters: highest retained order, domain length L, and eps."""

    __slots__ = ("order", "L", "epsilon")

    def __init__(self, order: int, L: Fraction = Fraction(5), epsilon: Fraction = Fraction(1)):
        L = as_rational(L, flag="L")
        epsilon = as_rational(epsilon, flag="epsilon")
        if type(order) is not int or order < 0:  # no bool: the document writes a JSON integer
            raise ValueError(f"order must be a non-negative integer, got {order!r}")
        if order > MAX_ORDER:
            raise ValueError(f"order must be at most {MAX_ORDER}, got {order}")
        if L <= 0:
            raise ValueError(f"domain length must satisfy L > 0, got {L}")
        if epsilon <= 0:
            raise ValueError(f"epsilon must satisfy epsilon > 0, got {epsilon}")
        super().__init__(order, L, epsilon)


class HpmSeries(_Record):
    """Correction lists f_j / theta_j (index = power of the embedding parameter)."""

    __slots__ = ("f_corrections", "theta_corrections", "config")

    def __init__(
        self,
        f_corrections: tuple[RationalPolynomial, ...],
        theta_corrections: tuple[RationalPolynomial, ...],
        config: HpmConfig,
    ):
        super().__init__(f_corrections, theta_corrections, config)

    @property
    def order(self) -> int:
        return self.config.order

    def partial_sum(self, which: str, up_to: int | None = None) -> RationalPolynomial:
        """Exact sum of corrections 0..up_to (embedding parameter set to 1).

        ``which`` selects "f" or "theta"; ``up_to`` defaults to the full order.
        """
        if which == "f":
            corrections = self.f_corrections
        elif which == "theta":
            corrections = self.theta_corrections
        else:
            raise ValueError(f"which must be 'f' or 'theta', got {which!r}")
        if up_to is None:
            up_to = self.order
        if not 0 <= up_to <= self.order:
            raise ValueError(f"up_to must be in 0..{self.order}, got {up_to}")
        by_power: dict[int, list[Fraction]] = {}
        for correction in corrections[: up_to + 1]:
            for power, coeff in correction.terms():
                by_power.setdefault(power, []).append(coeff)
        # one Fraction (and one gcd) per power, not one per addition
        sums = {}
        for power, coeffs in by_power.items():
            den = math.lcm(*(c.denominator for c in coeffs))
            sums[power] = Fraction(sum(c.numerator * (den // c.denominator) for c in coeffs), den)
        return RationalPolynomial(sums)


# The engine works at L = 1, on a dense integer form of each correction:
# numerators n[0..j] of the powers eta^(3m+offset) over one positive
# denominator, with offset 2 for f_j and 1 for theta_j (the constant 1 of
# theta_0 is left out, since only theta' enters the recurrence).  No term
# falls outside these powers: f_k f''_i and f_k theta'_i live on the powers
# 3p+2, the antiderivatives move them to 3p+3+offset, and the fitted
# homogeneous term is eta^offset.  Integers with one gcd per correction
# replace a Fraction (and its gcd) per operation.  L is a length scale only,
# f_j(eta) = L^(2j+1) f_j^(L=1)(eta/L) and theta_j(eta) = L^(2j)
# theta_j^(L=1)(eta/L), so it enters once, in _coefficients, and the
# integers of the recurrence do not grow with the digits of L.
DenseCorrection = tuple[list[int], int]


def _convolve(left: Sequence[DenseCorrection], right: Sequence[DenseCorrection]) -> DenseCorrection:
    """sum_{k<j} left[k] * right[j-1-k], j = len(left), over the lcm of the
    products' denominators."""
    j = len(left)
    dens = [left[k][1] * right[j - 1 - k][1] for k in range(j)]
    den = math.lcm(*dens)
    acc = [0] * j
    for k in range(j):
        b = right[j - 1 - k][0]
        scale = den // dens[k]
        for m, x in enumerate(left[k][0]):
            if x:
                x *= scale
                for i, y in enumerate(b, m):
                    acc[i] += x * y
    return acc, den


def _derivative(correction: DenseCorrection, offset: int) -> DenseCorrection:
    """The dense u^(offset) of u: slot m, eta^(3m+offset) -> eta^(3m), times (3m+offset)!/(3m)!."""
    nums, den = correction
    return [math.perm(3 * m + offset, offset) * n for m, n in enumerate(nums)], den


def _step(j: int, prior_f: Sequence[DenseCorrection], derivative: Sequence[DenseCorrection],
          offset: int, factor: Fraction) -> DenseCorrection:
    """Order-j correction u_j of u^(offset+1) = factor * sum_{k<j} f_k u^(offset)_{j-1-k}
    at L = 1, u being f (offset 2) or theta (offset 1); ``prior_f`` holds
    f_0..f_{j-1} and ``derivative`` u^(offset)_0..u^(offset)_{j-1}.

    The antiderivative divides slot p by (3p+3)...(3p+3+offset) and moves it
    to slot p+1; slot 0 (eta^offset) is then fitted so that u^(offset-1)(1) = 0.
    Divisors and fit weights are falling factorials of the offset.
    """
    nums, den = _convolve(prior_f, derivative)
    divisors = [math.perm(3 * p + 3 + offset, offset + 1) for p in range(j)]
    fit_weights = [math.perm(3 * m + offset, offset - 1) for m in range(j + 1)]
    M = math.lcm(*divisors)
    nums = [0] + [n * factor.numerator * (M // t) for n, t in zip(nums, divisors)]
    den *= M * factor.denominator
    nums[0] = -sum(w * n for w, n in zip(fit_weights[1:], nums[1:]))
    scale = fit_weights[0]
    nums[1:] = [n * scale for n in nums[1:]]
    den *= scale
    g = math.gcd(den, *nums)
    return [n // g for n in nums], den // g


def recurrence_step_f(j: int, prior_f: Sequence[DenseCorrection],
                      prior_fpp: Sequence[DenseCorrection]) -> DenseCorrection:
    """Order-j momentum correction at L = 1 from f_0..f_{j-1} and f''_0..f''_{j-1}.

    Solves f_j''' = -(1/2) sum_{k<j} f_k f''_{j-1-k} exactly: triple
    antiderivative (zero constants) kills nothing at 0, the conditions
    f_j(0)=0 and f_j'(0)=0 exclude the 1 and eta homogeneous terms, and the
    remaining c*eta^2 term is fixed by f_j'(1) = 0.
    """
    return _step(j, prior_f, prior_fpp, 2, Fraction(-1, 2))


def recurrence_step_theta(
    j: int,
    prior_f: Sequence[DenseCorrection],
    prior_theta_p: Sequence[DenseCorrection],
    epsilon: Fraction,
) -> DenseCorrection:
    """Order-j temperature correction at L = 1 from f_0..f_{j-1} and theta'_0..theta'_{j-1}.

    Solves eps theta_j'' = -(1/2) sum_{k<j} f_k theta'_{j-1-k}: double
    antiderivative, theta_j(0)=0 excludes the constant, and the b*eta term
    is fixed by theta_j(1) = 0.  Division by eps happens here, which is why
    eps = 0 is rejected at config construction.
    """
    return _step(j, prior_f, prior_theta_p, 1, Fraction(-1, 2) / epsilon)


def _coefficients(
    j: int, correction: DenseCorrection, offset: int, L: Fraction
) -> dict[int, Fraction]:
    """Place the dense order-j correction at L: the coefficient of
    eta^(3m+offset) scales by L^(2j-1-3m), for f and theta alike.  One
    Fraction (and one gcd) per coefficient."""
    nums, den = correction
    p, q = L.numerator, L.denominator
    coeffs = {}
    for m, n in enumerate(nums):
        k = 2 * j - 1 - 3 * m
        if k >= 0:
            coeffs[3 * m + offset] = Fraction(n * p**k, den * q**k)
        else:
            coeffs[3 * m + offset] = Fraction(n * q**-k, den * p**-k)
    return coeffs


def _unit_corrections(
    order: int, epsilon: Fraction
) -> tuple[list[DenseCorrection], list[DenseCorrection]]:
    """The dense f and theta corrections 0..order at L = 1: the L-free half of a build.

    The order-0 pair solves f_0''' = 0 with f_0(0)=0, f_0'(0)=0, f_0'(1)=1
    and theta_0'' = 0 with theta_0(0)=1, theta_0(1)=0: f_0 = eta^2/2 and
    theta_0 = 1 - eta.  theta_j needs only f_0..f_{j-1}, so it comes first.
    """
    f_list, fpp_list = [([1], 2)], [([2], 2)]
    theta_list, theta_p_list = [([-1], 1)], [([-1], 1)]
    for j in range(1, order + 1):
        theta_list.append(recurrence_step_theta(j, f_list, theta_p_list, epsilon))
        theta_p_list.append(_derivative(theta_list[-1], 1))
        f_list.append(recurrence_step_f(j, f_list, fpp_list))
        fpp_list.append(_derivative(f_list[-1], 2))
    return f_list, theta_list


def build_series(config: HpmConfig) -> HpmSeries:
    """Construct all corrections 0..config.order at L = 1, then place each at L
    as a RationalPolynomial by the scaling law.  Deterministic and exact."""
    f_list, theta_list = _unit_corrections(config.order, config.epsilon)
    L = config.L
    theta_coeffs = [_coefficients(j, c, 1, L) for j, c in enumerate(theta_list)]
    theta_coeffs[0][0] = Fraction(1)  # the constant the dense form leaves out
    return HpmSeries(
        tuple(RationalPolynomial(_coefficients(j, c, 2, L)) for j, c in enumerate(f_list)),
        tuple(RationalPolynomial(c) for c in theta_coeffs),
        config,
    )


# -- series document (exact JSON round trip) ----------------------------------


def series_to_document(series: HpmSeries) -> dict:
    """JSON-able document: order and powers as JSON integers, every rational
    as decimal strings {"num": "-4867", "den": "10752000"}, terms ascending."""
    L, epsilon = series.config.L, series.config.epsilon

    def terms(poly: RationalPolynomial) -> list[dict]:
        return [{"power": p, "num": str(c.numerator), "den": str(c.denominator)}
                for p, c in poly.terms()]

    return {
        "order": series.order,
        "L": {"num": str(L.numerator), "den": str(L.denominator)},
        "epsilon": {"num": str(epsilon.numerator), "den": str(epsilon.denominator)},
        "f": [terms(poly) for poly in series.f_corrections],
        "theta": [terms(poly) for poly in series.theta_corrections],
    }


def _integer(obj: dict, key: str) -> int:
    """``obj[key]`` as :func:`series_to_document` writes it, else a ValueError
    naming ``key``: order and power are JSON integers (no bool or float), num
    and den the ``str`` of an int (no "+", "_", space, leading zero or
    non-ASCII digit)."""
    value = obj[key]
    if key in ("order", "power"):
        if type(value) is int:
            return value
        raise ValueError(f"{key!r} must be a JSON integer, got {value!r}")
    try:
        if str(number := int(value)) == value:
            return number
    except (TypeError, ValueError):
        pass
    raise ValueError(f"{key!r} must be the decimal string of an integer, got {value!r}")


def _rational(obj: dict) -> Fraction:
    """``obj`` as the writer spells a rational: a positive ``den``, and
    ``num`` and ``den`` in lowest terms."""
    if (den := _integer(obj, "den")) <= 0:
        raise ValueError(f"'den' must be positive, got {obj['den']!r}")
    rational = Fraction(num := _integer(obj, "num"), den)
    if rational.denominator != den:  # Fraction reduced it
        raise ValueError(f"{num}/{den} is not in lowest terms")
    return rational


def _polynomial(terms: list[dict]) -> RationalPolynomial:
    """A term list as the writer writes it: powers ascending, no zero coefficient."""
    coeffs: dict[int, Fraction] = {}
    last = 0
    for term in terms:
        try:
            power, coeff = _integer(term, "power"), _rational(term)
        except ValueError as exc:
            raise ValueError(f"not a serialized polynomial term: {exc}") from None
        if power in coeffs:
            raise ValueError(f"serialized polynomial repeats power {power}")
        if coeffs and power < last:
            raise ValueError(f"serialized polynomial powers not ascending: {power} after {last}")
        if not coeff:
            raise ValueError(f"serialized polynomial has a zero coefficient at power {power}")
        coeffs[power] = coeff
        last = power
    return RationalPolynomial(coeffs)


def series_from_document(doc: dict) -> HpmSeries:
    """Inverse of :func:`series_to_document`; round-trips bit-exactly, and
    reads only what the writer writes: each integer as the writer spells it
    (see ``_integer``), each rational in lowest terms, each term list
    ascending with no zero coefficient.  So one series has one document."""
    try:
        config = HpmConfig(_integer(doc, "order"), _rational(doc["L"]), _rational(doc["epsilon"]))
        f_list = tuple(_polynomial(terms) for terms in doc["f"])
        theta_list = tuple(_polynomial(terms) for terms in doc["theta"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"not a series document: missing or bad field ({exc})") from None
    if len(f_list) != config.order + 1 or len(theta_list) != config.order + 1:
        raise ValueError("series document correction lists do not match the stated order")
    return HpmSeries(f_list, theta_list, config)
