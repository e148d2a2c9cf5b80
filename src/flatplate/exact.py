"""Exact rational arithmetic and sparse univariate polynomials in eta.

Coefficients are ``fractions.Fraction`` values, which stay in canonical form
by construction: positive denominator, gcd(numerator, denominator) = 1, and
zero represented uniquely as 0/1.  A polynomial is a sparse map from
non-negative powers of the similarity variable eta to nonzero coefficients;
the zero polynomial stores no terms.

Every value here is immutable, so values may be shared freely across
threads.  A polynomial caches one derived value, the float table that float
evaluation reads; it is a function of the immutable coefficients, so two
threads that fill it at once write equal tuples.  Float evaluation, at a
point, over a list of floats or over a whole float64 grid, is provided for
plotting and comparison only; the rational path is the source of truth.
The module holds arithmetic, evaluation and display only: the exact JSON
form of the coefficients is the series document of ``flatplate.hpm``.

This module never imports numpy: ``eval_float`` finds it in ``sys.modules``
when it is given an array, and the list form serves the stdlib kernels,
which run in a process that has not loaded numpy (the one switch of the
report kernels is ``flatplate._format.loaded_numpy``).
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence, Union

from ._format import CHUNK_ROWS

if TYPE_CHECKING:
    import numpy as np

RationalLike = Union[Fraction, int, str]


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
    caches the descending (power, float(coeff)) table of ``eval_float``;
    it takes no part in equality, hashing, display or the series document.
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
        self._float_terms: tuple[tuple[int, float], ...] | None = None

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
        out = dict(self._coeffs)
        for p, c in other._coeffs.items():
            out[p] = out[p] + c if p in out else c
        return RationalPolynomial(out)

    def __mul__(self, other) -> "RationalPolynomial":
        """Product with a polynomial, or with a Fraction or int scalar."""
        if isinstance(other, RationalPolynomial):
            out: dict[int, Fraction] = {}
            for p, a in self._coeffs.items():
                for q, b in other._coeffs.items():
                    k = p + q
                    out[k] = out[k] + a * b if k in out else a * b
            return RationalPolynomial(out)
        if isinstance(other, (Fraction, int)):
            return RationalPolynomial({p: c * other for p, c in self._coeffs.items()})
        return NotImplemented

    # -- calculus ------------------------------------------------------------

    def derivative(self, order: int = 1) -> "RationalPolynomial":
        """Exact term-wise derivative, applied ``order`` times."""
        coeffs = self._coeffs
        for _ in range(order):
            coeffs = {p - 1: c * p for p, c in coeffs.items() if p >= 1}
        return RationalPolynomial(coeffs)

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
    def _horner(terms: Sequence[tuple[int, Fraction | float]], x):
        """Sparse Horner over nonempty (power, coeff) pairs in descending
        power order, each coefficient already of the type of ``x`` (float
        for a ``_GridPowers``).  ``x ** gap`` is made only when the gap changes
        (a partial sum steps down by 3), and only the latest power is kept: it
        is dropped before ``x ** last``, so a grid holds at most three arrays."""
        terms = iter(terms)
        last, acc = next(terms)
        gap = step = None
        for power, coeff in terms:
            if last - power != gap:
                gap, step = last - power, None  # free the previous power first
                step = x**gap
            acc = acc * step + coeff
            last = power
        step = None
        return acc * x**last

    def eval_exact(self, x: RationalLike) -> Fraction:
        """Exact Horner evaluation at a rational point."""
        terms = sorted(self._coeffs.items(), reverse=True) or [(0, Fraction(0))]
        return self._horner(terms, as_rational(x))

    def eval_float(self, x: float | list | np.ndarray) -> float | list | np.ndarray:
        """Horner evaluation in float64.  Approximate: coefficients round
        to the nearest double before any arithmetic happens.

        A numpy array ``x`` gives a float64 array of its shape, bit-equal
        point by point to the scalar evaluation (see ``_GridPowers``); a
        list, the grid of the stdlib kernels, gives the list of scalar
        evaluations; any other ``x`` gives a float.  A call raises ``x`` to a
        new power only where the gap between powers changes (see ``_horner``);
        the rounded coefficients are made on the first call and reused.
        """
        terms = self._float_terms
        if terms is None:
            descending = sorted(self._coeffs.items(), reverse=True)
            terms = tuple((p, float(c)) for p, c in descending) or ((0, 0.0),)
            self._float_terms = terms
        # no ndarray exists before numpy is imported, so a scalar needs no import
        np = sys.modules.get("numpy")
        if np is not None and isinstance(x, np.ndarray):
            # inf and nan arise silently in the scalar path too
            with np.errstate(over="ignore", invalid="ignore"):
                return self._horner(terms, _GridPowers(x))
        if isinstance(x, list):
            return [self._horner(terms, float(v)) for v in x]
        return self._horner(terms, float(x))

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
