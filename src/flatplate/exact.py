"""Exact rational arithmetic and sparse univariate polynomials in eta.

Coefficients are ``fractions.Fraction`` values, which stay in canonical form
by construction: positive denominator, gcd(numerator, denominator) = 1, and
zero represented uniquely as 0/1.  A polynomial is a sparse map from
non-negative powers of the similarity variable eta to nonzero coefficients;
the zero polynomial stores no terms.

Every public constructor checks its input: ``as_rational`` and
``RationalPolynomial(...)`` accept any rational literal and canonicalize it.
Only values the engine has just made skip those checks.  ``_reduced`` makes
a Fraction from a pair that is already coprime with a positive denominator,
and ``RationalPolynomial._of`` adopts a dict of nonzero canonical Fractions
keyed by int powers; ``derivative``, ``_summed`` and the series engine of
``flatplate.hpm`` call them, on numbers they have just reduced.  ``_summed``
is the one exact sum of terms: ``+``, the product of two polynomials and
``HpmSeries.partial_sum`` all call it.  ``_float_of`` is the one converter
from an exact value to a float: ``eval_float`` and ``flatplate.report`` call
it, and its OverflowError names what overflowed.

Every value here is immutable, so values may be shared freely across
threads.  A polynomial caches one derived value, the Horner plan that float
evaluation reads; it is a function of the immutable coefficients, so two
threads that fill it at once write equal tuples.  Float evaluation, at a
point, over a list of floats or over a whole float64 grid, is provided for
plotting and comparison only; the rational path is the source of truth.
The module holds arithmetic, evaluation and display only: the exact JSON
form of the coefficients is the series document of ``flatplate.hpm``.

This module never imports numpy: ``eval_float`` looks for an array only
once ``flatplate._format.loaded_numpy``, the one switch of the report
kernels, finds numpy loaded, and the list form serves the stdlib kernels,
which run in a process that has not loaded numpy.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Union

from ._format import CHUNK_ROWS, loaded_numpy

if TYPE_CHECKING:
    import numpy as np

RationalLike = Union[Fraction, int, str]
# (lead, runs of (gap, coefficients), last power): see RationalPolynomial._plan
HornerPlan = tuple[object, tuple[tuple[int, tuple], ...], int]


def _reduced(num: int, den: int) -> Fraction:
    """The Fraction num/den of a pair the caller has reduced: gcd(num, den)
    is 1 and den > 0.  It skips the gcd and the sign check of
    ``Fraction(num, den)``, so it is for engine-made pairs only; it is the one
    place that sets Fraction's slots."""
    value = object.__new__(Fraction)
    value._numerator = num
    value._denominator = den
    return value


def _summed(terms: Iterable[tuple[int, Fraction]]) -> RationalPolynomial:
    """The polynomial sum of (power, coefficient) terms, each coefficient a
    nonzero canonical Fraction and powers repeating freely: each power is
    summed over the lcm of its denominators, with one gcd, not one per
    addition, and a zero sum is dropped."""
    by_power: dict[int, list[Fraction]] = {}
    for power, coeff in terms:
        by_power.setdefault(power, []).append(coeff)
    sums = {}
    for power, coeffs in by_power.items():
        den = math.lcm(*(c.denominator for c in coeffs))
        num = sum(c.numerator * (den // c.denominator) for c in coeffs)
        if num:
            g = math.gcd(num, den)
            sums[power] = _reduced(num // g, den // g)
    return RationalPolynomial._of(sums)


def _float_of(value: Fraction, what: str) -> float:
    """float(value), or an OverflowError that names ``what`` and its power of
    ten, from bit lengths: str() of these ints is the slow way."""
    try:
        return float(value)
    except OverflowError:
        num, den = abs(value.numerator), value.denominator
        bits = num.bit_length() - den.bit_length()
        tens = math.floor(bits * math.log10(2) + math.log10(num / (den << bits)))
        raise OverflowError(f"{what} is about 10^{tens} in magnitude") from None


def as_rational(value: RationalLike, flag: str | None = None) -> Fraction:
    """Coerce ``value`` to an exact Fraction.

    Accepts Fraction, int, or a string literal such as ``"5"``, ``"11/2"``
    or ``"2.5"`` (decimal digits convert exactly).  Raises ValueError for
    anything else, a bool included; ``flag`` names the offending option in
    the message.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):  # True is a flag, not 1
        return Fraction(value)
    where = f" for {flag}" if flag else ""
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise ValueError(
                f"malformed rational literal {value!r}{where} (use forms like '5' or '11/2')"
            ) from None
    raise ValueError(f"cannot interpret {value!r}{where} as a rational number")


class RationalPolynomial:
    """Sparse univariate polynomial in eta over the rationals.

    Terms with coefficient zero are never stored, so equality is plain
    dict equality and the zero polynomial is the empty map.  ``_float_terms``
    caches the float Horner plan of ``eval_float`` (see ``_plan``); it takes
    no part in equality, hashing, display or the series document.
    """

    __slots__ = ("_coeffs", "_float_terms")

    def __init__(self, coeffs: Mapping[int, RationalLike] | None = None):
        """``coeffs`` maps powers to coefficients; zero coefficients are dropped."""
        store: dict[int, Fraction] = {}
        for power, coeff in (coeffs or {}).items():
            if type(power) is not int or power < 0:  # no bool
                raise ValueError(f"polynomial power must be a non-negative integer, got {power!r}")
            c = as_rational(coeff)
            if c:
                store[power] = c
        self._coeffs = store
        self._float_terms: HornerPlan | None = None

    @classmethod
    def _of(cls, store: dict[int, Fraction]) -> "RationalPolynomial":
        """Adopt ``store`` unchecked: int powers >= 0 to nonzero Fractions in
        canonical form, made by the caller and not shared with anyone."""
        poly = object.__new__(cls)
        poly._coeffs = store
        poly._float_terms = None
        return poly

    # -- structure -----------------------------------------------------------

    def coefficient(self, power: int) -> Fraction:
        return self._coeffs.get(power, Fraction(0))

    def terms(self) -> Iterator[tuple[int, Fraction]]:
        """Yield (power, coefficient) pairs in ascending power order."""
        return iter(sorted(self._coeffs.items()))

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return _summed(itertools.chain(self._coeffs.items(), other._coeffs.items()))

    def __mul__(self, other) -> "RationalPolynomial":
        """Product with a polynomial, or with a Fraction or int scalar."""
        if isinstance(other, RationalPolynomial):
            return _summed((p + q, a * b) for p, a in self._coeffs.items()
                           for q, b in other._coeffs.items())
        if isinstance(other, (Fraction, int)):
            return RationalPolynomial({p: c * other for p, c in self._coeffs.items()})
        return NotImplemented

    # -- calculus ------------------------------------------------------------

    def derivative(self, order: int = 1) -> "RationalPolynomial":
        """Exact term-wise derivative, applied ``order`` times.  Each c = n/d
        is in lowest terms, so gcd(p, d) alone reduces c * p."""
        coeffs = dict(self._coeffs)
        for _ in range(order):
            derived = {}
            for p, c in coeffs.items():
                if p >= 1:
                    n, d = c.as_integer_ratio()
                    g = math.gcd(p, d)
                    derived[p - 1] = _reduced(n * (p // g), d // g)
            coeffs = derived
        return RationalPolynomial._of(coeffs)

    def antiderivative(self, order: int = 1) -> "RationalPolynomial":
        """Term-wise antiderivative with zero constant of integration.

        Integration constants are the caller's business (the series engine
        fits them against boundary conditions in a separate step).
        """
        coeffs = self._coeffs
        for _ in range(order):
            coeffs = {p + 1: c / (p + 1) for p, c in coeffs.items()}
        return RationalPolynomial(coeffs)

    # -- evaluation ----------------------------------------------------------

    @staticmethod
    def _plan(descending: list[tuple[int, object]]) -> HornerPlan:
        """The sparse Horner plan of nonempty (power, coeff) pairs in
        descending power order: the leading coefficient, the runs of the
        later coefficients that share one gap to the power before them, each
        as (gap, coefficients), and the last power."""
        pairs = iter(descending)
        last, lead = next(pairs)
        runs: list[tuple[int, list]] = []
        gap = None
        for power, coeff in pairs:
            if last - power != gap:
                gap = last - power
                runs.append((gap, []))
            runs[-1][1].append(coeff)
            last = power
        return lead, tuple((gap, tuple(coeffs)) for gap, coeffs in runs), last

    @staticmethod
    def _horner(plan: HornerPlan, x):
        """Run a plan at ``x``, each coefficient already of the type of ``x``
        (float for a ``_GridPowers``).  ``x ** gap`` is made once per run,
        and only the latest power is kept: it is dropped before the next one
        and before ``x ** last``, so a grid holds at most three arrays."""
        acc, runs, last = plan
        for gap, coeffs in runs:
            step = None  # free the previous power first
            step = x**gap
            for coeff in coeffs:
                acc = acc * step + coeff
        step = None
        return acc * x**last

    def eval_exact(self, x: RationalLike) -> Fraction:
        """Exact Horner evaluation at a rational point."""
        terms = sorted(self._coeffs.items(), reverse=True) or [(0, Fraction(0))]
        return self._horner(self._plan(terms), as_rational(x))

    def eval_float(self, x: float | list | np.ndarray) -> float | list | np.ndarray:
        """Horner evaluation in float64.  Approximate: coefficients round
        to the nearest double before any arithmetic happens.

        A numpy array ``x`` gives a float64 array of its shape, bit-equal
        point by point to the scalar evaluation (see ``_GridPowers``); a
        list, the grid of the stdlib kernels, gives the list of scalar
        evaluations; any other ``x`` gives a float.  A call raises ``x`` to a
        new power only where the gap between powers changes (see ``_plan``);
        the plan, with the rounded coefficients, is made on the first call
        and reused.  A power of a point that overflows raises OverflowError
        naming the degree and the largest |x| of the call.
        """
        plan = self._float_terms
        if plan is None:
            descending = [(power, _float_of(c, f"the coefficient of eta^{power}"))
                          for power, c in sorted(self._coeffs.items(), reverse=True)]
            plan = self._float_terms = self._plan(descending or [(0, 0.0)])
        # no ndarray exists before numpy is imported, so a scalar needs no import
        np = loaded_numpy()
        try:
            if np is not None and isinstance(x, np.ndarray):
                # inf and nan arise silently in the scalar path too
                with np.errstate(over="ignore", invalid="ignore"):
                    return self._horner(plan, _GridPowers(x))
            if isinstance(x, list):
                return [self._horner(plan, float(v)) for v in x]
            return self._horner(plan, float(x))
        except OverflowError:  # float ** int names neither the power nor the point
            points = x if isinstance(x, list) else [x] if np is None else np.ravel(x).tolist()
            top = max(abs(float(v)) for v in points if v == v)
            raise OverflowError(
                f"eta^{max(self._coeffs)} overflows at |eta| up to {top:g}") from None

    # -- comparisons / display -----------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __repr__(self) -> str:
        return f"RationalPolynomial({dict(sorted(self._coeffs.items()))!r})"

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts: list[str] = []
        for power, coeff in self.terms():
            body = _format_term(power, abs(coeff))
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"{'+' if coeff > 0 else '-'} {body}")
        return " ".join(parts)


class _GridPowers:
    """A float64 grid that ``_horner`` can raise to integer powers.

    Each power is computed point by point with Python's ``float ** int``,
    the operation of the scalar path: ``np.power`` rounds differently in the
    last bit, and returns inf where ``**`` raises OverflowError.  The
    recurrence ``acc * x**gap + c`` then runs on whole arrays, where ``*``
    and ``+`` round exactly as they do on floats.  ``float ** 1`` is the
    float itself and ``float ** 0`` is 1.0 (nan, inf and -0.0 included), so
    those two powers need no pass over the points.  The points pass through
    Python floats CHUNK_ROWS at a time, the chunk of the report writers.
    """

    __slots__ = ("points",)

    def __init__(self, points: np.ndarray):
        import numpy as np

        self.points = np.asarray(points, dtype=np.float64)

    def __pow__(self, exponent: int) -> np.ndarray:
        import numpy as np

        if exponent == 1:
            return self.points
        if exponent == 0:
            return np.ones_like(self.points)
        flat, gap = self.points.ravel(), itertools.repeat(exponent)
        values = itertools.chain.from_iterable(
            map(pow, flat[start : start + CHUNK_ROWS].tolist(), gap)
            for start in range(0, flat.size, CHUNK_ROWS)
        )
        return np.fromiter(values, np.float64, flat.size).reshape(self.points.shape)


def _format_term(power: int, coeff: Fraction) -> str:
    if power == 0:
        return str(coeff)
    var = "eta" if power == 1 else f"eta^{power}"
    if coeff == 1:
        return var
    if coeff.denominator == 1:
        return f"{coeff}*{var}"
    return f"({coeff})*{var}"
