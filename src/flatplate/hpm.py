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
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .exact import (
    RationalPolynomial,
    as_rational,
    rational_from_obj,
    rational_to_obj,
)


# Highest accepted order.  Build time grows about as the fourth power of the
# order (0.25 s at order 60 and L = 5 on a 2-vCPU host, 0.05 s at order 40;
# 0.36 s at order 60 and L = 10^20, 1.0 s at L = 10^300), so an unchecked
# order is an unbounded computation.
MAX_ORDER = 60


class _Record:
    """A frozen record whose fields are its class's ``__slots__``, in order.

    ``__init__`` sets each field once with ``object.__setattr__``; after that
    assignment raises AttributeError.  Equality, hash and repr go by the field
    values in order, as a frozen dataclass's do, without importing
    ``dataclasses``; ``__reduce__`` lets copy and pickle rebuild a record
    through ``__init__``.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class HpmConfig(_Record):
    """Series parameters: highest retained order, domain length L, and eps."""

    __slots__ = ("order", "L", "epsilon")

    def __init__(self, order: int, L: Fraction = Fraction(5), epsilon: Fraction = Fraction(1)):
        L = as_rational(L, flag="L")
        epsilon = as_rational(epsilon, flag="epsilon")
        if not isinstance(order, int) or order < 0:
            raise ValueError(f"order must be a non-negative integer, got {order!r}")
        if order > MAX_ORDER:
            raise ValueError(f"order must be at most {MAX_ORDER}, got {order}")
        if L <= 0:
            raise ValueError(f"domain length must satisfy L > 0, got {L}")
        if epsilon <= 0:
            raise ValueError(f"epsilon must satisfy epsilon > 0, got {epsilon}")
        set_field = object.__setattr__
        set_field(self, "order", order)
        set_field(self, "L", L)
        set_field(self, "epsilon", epsilon)


class HpmSeries(_Record):
    """Correction lists f_j / theta_j (index = power of the embedding parameter)."""

    __slots__ = ("f_corrections", "theta_corrections", "config")

    def __init__(
        self,
        f_corrections: tuple[RationalPolynomial, ...],
        theta_corrections: tuple[RationalPolynomial, ...],
        config: HpmConfig,
    ):
        set_field = object.__setattr__
        set_field(self, "f_corrections", f_corrections)
        set_field(self, "theta_corrections", theta_corrections)
        set_field(self, "config", config)

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


def _step(j: int, prior_f: Sequence[DenseCorrection], prior: Sequence[DenseCorrection],
          offset: int, factor: Fraction) -> DenseCorrection:
    """Order-j correction u_j of u^(offset+1) = factor * sum_{k<j} f_k u^(offset)_{j-1-k}
    at L = 1, u being f (offset 2) or theta (offset 1); ``prior_f`` holds
    f_0..f_{j-1} and ``prior`` u_0..u_{j-1}.

    The antiderivative divides slot p by (3p+3)...(3p+3+offset) and moves it
    to slot p+1; slot 0 (eta^offset) is then fitted so that u^(offset-1)(1) = 0.
    Derivative weights, divisors and fit weights are falling factorials of the offset.
    """
    weights = [math.perm(3 * m + offset, offset) for m in range(j)]
    derivative = [([w * n for w, n in zip(weights, nums)], den) for nums, den in prior]
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


def recurrence_step_f(j: int, prior_f: Sequence[DenseCorrection]) -> DenseCorrection:
    """Order-j momentum correction at L = 1 from corrections 0..j-1.

    Solves f_j''' = -(1/2) sum_{k<j} f_k f''_{j-1-k} exactly: triple
    antiderivative (zero constants) kills nothing at 0, the conditions
    f_j(0)=0 and f_j'(0)=0 exclude the 1 and eta homogeneous terms, and the
    remaining c*eta^2 term is fixed by f_j'(1) = 0.
    """
    return _step(j, prior_f, prior_f, 2, Fraction(-1, 2))


def recurrence_step_theta(
    j: int,
    prior_f: Sequence[DenseCorrection],
    prior_theta: Sequence[DenseCorrection],
    epsilon: Fraction,
) -> DenseCorrection:
    """Order-j temperature correction at L = 1 from f and theta corrections 0..j-1.

    Solves eps theta_j'' = -(1/2) sum_{k<j} f_k theta'_{j-1-k}: double
    antiderivative, theta_j(0)=0 excludes the constant, and the b*eta term
    is fixed by theta_j(1) = 0.  Division by eps happens here, which is why
    eps = 0 is rejected at config construction.
    """
    return _step(j, prior_f, prior_theta, 1, Fraction(-1, 2) / epsilon)


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
    f_list = [([1], 2)]
    theta_list = [([-1], 1)]
    for j in range(1, order + 1):
        theta_list.append(recurrence_step_theta(j, f_list, theta_list, epsilon))
        f_list.append(recurrence_step_f(j, f_list))
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
    """JSON-able document with every coefficient as decimal strings."""
    return {
        "order": series.order,
        "L": rational_to_obj(series.config.L),
        "epsilon": rational_to_obj(series.config.epsilon),
        "f": [poly.to_obj() for poly in series.f_corrections],
        "theta": [poly.to_obj() for poly in series.theta_corrections],
    }


def series_from_document(doc: dict) -> HpmSeries:
    """Inverse of :func:`series_to_document`; round-trips bit-exactly."""
    try:
        config = HpmConfig(
            order=int(doc["order"]),
            L=rational_from_obj(doc["L"]),
            epsilon=rational_from_obj(doc["epsilon"]),
        )
        f_list = tuple(RationalPolynomial.from_obj(entry) for entry in doc["f"])
        theta_list = tuple(RationalPolynomial.from_obj(entry) for entry in doc["theta"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"not a series document: missing or bad field ({exc})") from None
    if len(f_list) != config.order + 1 or len(theta_list) != config.order + 1:
        raise ValueError("series document correction lists do not match the stated order")
    return HpmSeries(f_list, theta_list, config)

