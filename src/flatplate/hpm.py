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

with the far boundary imposed at the finite length L (the "shrunk
infinity"), not at infinity:

    f_j(0) = 0,  f_j'(0) = 0,  f_j'(L) = delta_j0
    theta_j(0) = delta_j0,     theta_j(L) = 0

Setting p = 1 turns the correction lists into the usable approximations;
``HpmSeries.partial_sum`` does exactly that.  All arithmetic is exact, so
the boundary and per-order residual identities hold as polynomial
identities, not merely to some tolerance.

The corrections in closed form.  Put u = eta/L, lambda = L^2 and
phi(u) = f(Lu)/L.  Then phi''' + (lambda/2) phi phi'' = 0 with
phi(0) = phi'(0) = 0 and phi'(1) = 1, and expanding phi in powers of lambda
gives the recurrence above with lambda in place of p; theta follows in the
same way from eps theta'' + (lambda/2) phi theta' = 0.  So the corrections
at L = 1 are the lambda-Taylor coefficients of the problem truncated at L,
and the corrections at L are those at L = 1 rescaled:
f_j(eta) = L^(2j+1) f_j^(L=1)(eta/L), theta_j(eta) = L^(2j) theta_j^(L=1)(eta/L).

Toepfer's scaling (1912) solves the truncated problem through Blasius's
series (1908) for the solution of F''' + F F''/2 = 0 with F(0) = F'(0) = 0
and F''(0) = 1:

    F(xi) = sum_k c_k xi^(3k+2),   c_k = (-1/2)^k A_k / (3k+2)!,
    A_0 = 1,   A_k = sum_{a<k} C(3k-1, 3a+2) A_a A_(k-1-a).

Write F'(xi) = xi G(xi^3), so G(x) = sum_k (3k+2) c_k x^k, and let z(lambda)
solve z G(z) = lambda; its powers are Taylor series in lambda by Lagrange
inversion (Flajolet and Sedgewick 2009, Theorem A.2).  With Phi the integral
of F from 0, exp(-Phi(t)/(2 eps)) = sum_k e_k t^(3k), d_k = e_k/(3k+1) and
J(w) = sum_k d_k w^k, the corrections at L = 1 are, for k = 0..j,

    f_j:      coefficient of eta^(3k+2) = c_k [lambda^(j+1)] z^(k+1)
    theta_j:  coefficient of eta^(3k+1) = -d_k [lambda^j] z^k / J(z)

and theta_0 has the constant 1 besides.  Every build reads its corrections
from one table of [lambda^n] z^m, 1 <= m <= n, shared by the process.  The
table depends on neither L nor eps; it grows on demand to the rows an order
needs, n <= order + 1, so to at most MAX_ORDER + 2 rows (about 230 KiB),
at about n^3/6 integer multiply-adds for n rows, once per process.  The
corrections at L = 1 are kept too: the f_j, which depend on neither L nor
eps, and one table of theta weights and theta_j per eps for a few eps.
So the theta sums, about order^3/6 multiply-adds, run once per (eps,
order) in a process, and a build at a known eps does only the work of L.

``HpmConfig`` and ``HpmSeries`` are frozen records (see ``_record``): the
dataclasses API works on them, but building a series never loads
``dataclasses``.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from operator import mul
from typing import Sequence

from ._record import _Record
from .exact import RationalPolynomial, _reduced, as_rational


# Highest accepted order.  Build time grows about as the cube of the order
# (on a 2-vCPU host 0.03 s at order 40 and 0.1-0.15 s at order 60 for L = 5
# and eps = 1; at order 60, 0.6-0.8 s at L = 10^300, most of it placing the
# corrections at L, and 3 s at eps = 10^-300), so an unchecked order is an
# unbounded computation.  Those are first builds at an eps; a later build
# at that eps reads the kept corrections and places them at L (0.02 s at
# order 60 and L = 7/2).
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
        if type(up_to) is not int or not 0 <= up_to <= self.order:  # no bool, no float
            raise ValueError(f"up_to must be in 0..{self.order}, got {up_to!r}")
        by_power: dict[int, list[Fraction]] = {}
        for correction in corrections[: up_to + 1]:
            for power, coeff in correction.terms():
                by_power.setdefault(power, []).append(coeff)
        # one gcd per power, not one per addition; a zero sum is dropped
        sums = {}
        for power, coeffs in by_power.items():
            den = math.lcm(*(c.denominator for c in coeffs))
            num = sum(c.numerator * (den // c.denominator) for c in coeffs)
            if num:
                g = math.gcd(num, den)
                sums[power] = _reduced(num // g, den // g)
        return RationalPolynomial._of(sums)


# The engine works at L = 1, on a dense integer form of each correction:
# numerators n[0..j] of the powers eta^(3m+offset) over one positive
# denominator, in lowest terms, with offset 2 for f_j and 1 for theta_j (the
# constant 1 of theta_0 is left out).  A row of the table of powers of z is
# held the same way, the numerators of [lambda^n] z^m, m = 0..n, over one
# denominator, so a row or a correction costs one gcd, not one per
# operation.  L enters once, in _coefficients, by the scaling law, so the
# integers of the engine do not grow with the digits of L.
#
# The theta weights are integers too.  With eps = p/q, e_k = E_k / ((3k)! (2p)^k)
# where E_0 = 1 and E_n = -q sum_{k<n} C(3n-1, 3k+2) (-p)^k A_k E_(n-1-k), from
# E' = -F E / (2 eps) for E = exp(-Phi/(2 eps)).  So d_k = E_k / ((3k+1)! (2p)^k),
# and 1/J has the coefficients r_i = R_i / (2p)^i, where R_i are those of the
# reciprocal of sum_k E_k w^k / (3k+1)!.
DenseCorrection = tuple[tuple[int, ...], int]
PowerRow = tuple[tuple[int, ...], int]
Table = tuple[tuple[int, ...], tuple[PowerRow, ...]]  # (-1)^k A_k, rows of powers of z
# E, R over their denominators, the lcm of the denominators of R_0..R_j for each j, 2p
ThetaWeights = tuple[tuple[int, ...], tuple[tuple[int, int], ...], tuple[int, ...], int]
ThetaTable = tuple[ThetaWeights, tuple[DenseCorrection, ...]]  # weights, theta_0..theta_n

# The L-free half of the engine, shared by every build in the process.
# Nothing in it depends on which builds grew it, and a published entry is
# never changed.  Each part grows under _growing and is published by
# rebinding its global to a new tuple, so a build reads it without the lock
# and sees a complete part, the old one or the new.
#
# _table: rows 0..n of the table of powers of z and the signed integers
# (-1)^k A_k, k < n, that they need; row n depends only on the rows below
# it.  Neither L nor eps enters.  At most MAX_ORDER + 2 rows, about 230 KiB.
_table: Table = ((1,), (((1,), 1), ((0, 1), 1)))
# _unit_f: f_0..f_n at L = 1, eps-free; f_j is read from row j+1 of _table.
# At most MAX_ORDER + 1 entries, about 200 KiB.
_unit_f: tuple[DenseCorrection, ...] = (((1,), 2),)
# _theta_tables: (eps, table) pairs, most recently used first, at most
# _THETA_TABLES of them; an evicted eps builds its table anew.  A table
# holds the weights E, R and their running lcm through order n and
# theta_0..theta_n at L = 1.  The weights of order n are those of every
# higher order cut at n, so a table grows from n to m by appending and
# keeps rows 0..n.  Its size grows with the order and with the digits of
# eps (E_n carries q^n, R_n carries p^n): at order 25 about 30 KiB for an
# eps of one or two digits, at MAX_ORDER about 0.25 MiB for such an eps,
# 1.6 MiB for an eps of 40 digits and 10 MiB at eps = 10^-300, so the
# tables hold at most _THETA_TABLES times as much.
_THETA_TABLES = 4
_theta_tables: tuple[tuple[Fraction, ThetaTable], ...] = ()
_growing = threading.Lock()


def _lowest(nums: list[int], den: int) -> DenseCorrection:
    g = math.gcd(den, *nums)
    return tuple(n // g for n in nums), den // g


def _falling(j: int, offset: int) -> list[int]:
    """(3j+offset)! / (3k+offset)! for k = 0..j."""
    weights = [1]
    for k in range(j, 0, -1):
        weights.append(weights[-1] * (3 * k + offset) * (3 * k + offset - 1) * (3 * k + offset - 2))
    weights.reverse()
    return weights


def _shared_table(top: int) -> Table:
    """The shared table with at least rows 0..top, grown first if it is shorter."""
    global _table
    table = _table
    if len(table[1]) <= top:
        with _growing:
            table = _table
            if len(table[1]) <= top:
                table = _table = _grown(table, top)
    return table


def _grown(table: Table, top: int) -> Table:
    """``table`` extended to rows 0..top.  Row n holds [lambda^n] z^m for
    m = 0..n over one denominator, where z(lambda) solves z G(z) = lambda
    and G has the coefficients g_k = signed[k] / (2^k (3k+1)!), with
    signed[k] = (-1)^k A_k.

    Blasius's integers come first: signed[k] = -sum_(a<k) C(3k-1, 3a+2)
    signed[a] signed[k-1-a].  Degree n is then built after the degrees
    below it: for m >= 2, [lambda^n] z^m = sum_a [lambda^a] z^(m-1)
    z_(n-a), and then z_n = -sum_(k>=1) g_k [lambda^n] z^(k+1), the
    lambda^n coefficient of z G(z) = lambda.  The denominator of degree n
    is the lcm of that of z_n and of each product of the denominators of
    degrees a and n-a, so each product pair is rescaled once, on its factor
    z_(n-a).
    """
    signed, rows = list(table[0]), list(table[1])
    columns = [[nums[m] for nums, _ in rows[m:]] for m in range(len(rows))]  # [m][n-m]
    for n in range(len(rows), top + 1):
        k = n - 1  # row n is the first to need signed[n-1]
        signed.append(-sum(math.comb(3 * k - 1, 3 * a + 2) * signed[a] * signed[k - 1 - a]
                           for a in range(k)))
        pairs = [rows[a][1] * rows[n - a][1] for a in range(1, n)]
        den = math.lcm(*pairs)
        z_scaled = [columns[1][n - a - 1] * (den // d) for a, d in enumerate(pairs, 1)]
        nums = [0, 0] + [sum(map(mul, columns[m - 1], z_scaled[m - 2:])) for m in range(2, n + 1)]
        # z_n over 2^(n-1) (3n-2)! den, by Horner's rule in k
        z_num, z_den = 0, den
        for k in range(1, n):
            step = 2 * (3 * k - 1) * (3 * k) * (3 * k + 1)
            z_num = z_num * step - signed[k] * nums[k + 1]
            z_den *= step
        g = math.gcd(z_num, z_den)
        z_num, z_den = z_num // g, z_den // g
        degree_den = math.lcm(den, z_den)
        if degree_den != den:
            scale = degree_den // den
            nums = [x * scale for x in nums]
        nums[1] = z_num * (degree_den // z_den)
        rows.append((tuple(nums), degree_den))
        columns.append([])
        for m in range(n + 1):
            columns[m].append(nums[m])
    return tuple(signed), tuple(rows)


def _shared_f(top: int) -> tuple[DenseCorrection, ...]:
    """The shared f_0..f_top at L = 1 (at least), derived first if missing."""
    global _unit_f
    unit_f = _unit_f
    if len(unit_f) <= top:
        signed, rows = _shared_table(top + 1)
        with _growing:
            unit_f = _unit_f
            if len(unit_f) <= top:
                unit_f = _unit_f = unit_f + tuple(
                    _f_correction(j, rows[j + 1], signed) for j in range(len(unit_f), top + 1))
    return unit_f


def _shared_theta(top: int, epsilon: Fraction) -> tuple[DenseCorrection, ...]:
    """The shared theta_0..theta_top at L = 1 (at least) for ``epsilon``,
    derived first if missing.  The table of ``epsilon`` moves to the front
    of _theta_tables; the least recently used one beyond _THETA_TABLES is
    dropped."""
    global _theta_tables
    tables = _theta_tables
    if tables and tables[0][0] == epsilon and len(tables[0][1][1]) > top:
        return tables[0][1][1]
    signed, rows = _shared_table(top)
    with _growing:
        tables = _theta_tables
        table = next((table for eps, table in tables if eps == epsilon), None)
        if table is None:  # the weights E_0, R_0, their lcm and 2p, and theta_0
            table = ((1,), ((1, 1),), (1,), 2 * epsilon.numerator), (((-1,), 1),)
        if len(table[1]) <= top:
            table = _grown_theta(table, top, epsilon, signed, rows)
        others = tuple(entry for entry in tables if entry[0] != epsilon)
        _theta_tables = ((epsilon, table),) + others[: _THETA_TABLES - 1]
    return table[1]


def _grown_theta(
    table: ThetaTable, top: int, epsilon: Fraction, signed: Sequence[int], rows: Sequence[PowerRow]
) -> ThetaTable:
    """``table`` extended to theta_0..theta_top: the weights E, R and their
    running lcm through order top, as the comment above defines them, then
    each new theta_j from row j of the table of powers of z."""
    (E, reciprocal, commons, two_p), thetas = table
    E, reciprocal, commons = list(E), list(reciprocal), list(commons)
    p, q = epsilon.numerator, epsilon.denominator
    signed_p = [s * p**k for k, s in enumerate(signed[:top])]  # (-p)^k A_k
    for n in range(len(E), top + 1):
        E.append(-q * sum(math.comb(3 * n - 1, 3 * k + 2) * signed_p[k] * E[n - 1 - k]
                          for k in range(n)))
    factorial = [math.factorial(3 * k + 1) for k in range(top + 1)]  # (3k+1)!
    for i in range(len(reciprocal), top + 1):
        dens = [factorial[k] * reciprocal[i - k][1] for k in range(1, i + 1)]
        den = math.lcm(*dens)
        num = -sum(E[k] * reciprocal[i - k][0] * (den // d) for k, d in enumerate(dens, 1))
        g = math.gcd(num, den)
        reciprocal.append((num // g, den // g))
        commons.append(math.lcm(commons[-1], den // g))
    weights = tuple(E), tuple(reciprocal), tuple(commons), two_p
    return weights, thetas + tuple(
        _theta_correction(j, rows[j], weights) for j in range(len(thetas), top + 1))


def _f_correction(j: int, powers: PowerRow, signed: Sequence[int]) -> DenseCorrection:
    """Order-j momentum correction at L = 1 from ``powers``, row j+1 of the
    table of powers of z: slot k is c_k [lambda^(j+1)] z^(k+1), with
    c_k = signed[k] / (2^k (3k+2)!)."""
    nums, den = powers
    falling = _falling(j, 2)
    return _lowest([signed[k] * w * nums[k + 1] << (j - k) for k, w in enumerate(falling)],
                   2 * falling[0] * den << j)


def _theta_correction(j: int, powers: PowerRow, weights: ThetaWeights) -> DenseCorrection:
    """Order-j temperature correction at L = 1 from ``powers``, row j of
    the table of powers of z: slot k is -d_k sum_i r_i [lambda^j] z^(k+i).

    With ``weights`` as ``_grown_theta`` makes them, slot k is
    -E_k / ((3k+1)! (2p)^j) times sum_i R_i (2p)^(j-k-i) [lambda^j] z^(k+i),
    so each entry of the row is scaled once by its power of 2p.
    """
    nums, den = powers
    E, reciprocal, commons, two_p = weights
    common = commons[j]
    rho = [n * (common // d) for n, d in reciprocal[: j + 1]]
    scaled, power = list(nums), 1
    for m in range(j, 0, -1):
        scaled[m] *= power
        power *= two_p
    falling = _falling(j, 1)
    return _lowest([-E[k] * w * sum(map(mul, rho, scaled[k:])) for k, w in enumerate(falling)],
                   falling[0] * power * common * den)


def recurrence_step_f(j: int, unit_f: Sequence[DenseCorrection]) -> DenseCorrection:
    """Order-j momentum correction at L = 1, read from ``unit_f``, the
    shared f tuple (see ``_f_correction`` for how it is derived).

    The name is that of the convolution recurrence step this reader
    replaced: bench/tracer.py times it by name (span hpm.recurrence_f), and
    a traced run needs the same counts in every round, so every build calls
    it once per order j >= 1, however warm the shared tuple is.
    """
    return unit_f[j]


def recurrence_step_theta(j: int, thetas: Sequence[DenseCorrection]) -> DenseCorrection:
    """Order-j temperature correction at L = 1, read from ``thetas``, the
    shared theta table of one eps (see ``_theta_correction``).  The name is
    kept, and called once per order, for the same reason as that of
    ``recurrence_step_f`` (span hpm.recurrence_theta).
    """
    return thetas[j]


def _coefficients(
    j: int, correction: DenseCorrection, offset: int, p_powers: list[int], q_powers: list[int]
) -> dict[int, Fraction]:
    """Place the dense order-j correction at L = p/q: the coefficient of
    eta^(3m+offset) scales by L^(2j-1-3m), for f and theta alike.  The
    powers of p and q are read from ``p_powers`` and ``q_powers``.  One gcd
    per nonzero coefficient; a zero one is left out."""
    nums, den = correction
    coeffs = {}
    for m, n in enumerate(nums):
        if not n:
            continue
        k = 2 * j - 1 - 3 * m
        if k >= 0:
            num, d = n * p_powers[k], den * q_powers[k]
        else:
            num, d = n * q_powers[-k], den * p_powers[-k]
        g = math.gcd(num, d)
        coeffs[3 * m + offset] = _reduced(num // g, d // g)
    return coeffs


def _powers(base: int, top: int) -> list[int]:
    """base^0..base^top."""
    powers = [1]
    for _ in range(top):
        powers.append(powers[-1] * base)
    return powers


def _unit_corrections(
    order: int, epsilon: Fraction
) -> tuple[list[tuple[list[int], int]], list[tuple[list[int], int]]]:
    """The dense f and theta corrections 0..order at L = 1: the L-free half
    of a build, as fresh lists the caller may change.

    Order 0 is f_0 = eta^2/2 and theta_0 = 1 - eta.  Every later order is
    read from the shared f tuple and the shared theta table of ``epsilon``,
    each derived first up to this order if it is shorter, through its
    ``recurrence_step_*`` reader, once per order.
    """
    unit_f, thetas = _shared_f(order), _shared_theta(order, epsilon)
    f_list, theta_list = [([1], 2)], [([-1], 1)]
    for j in range(1, order + 1):
        nums, den = recurrence_step_theta(j, thetas)
        theta_list.append((list(nums), den))
        nums, den = recurrence_step_f(j, unit_f)
        f_list.append((list(nums), den))
    return f_list, theta_list


def build_series(config: HpmConfig) -> HpmSeries:
    """Read corrections 0..config.order at L = 1 (see ``_unit_corrections``),
    then place each at L as a RationalPolynomial by the scaling law.
    Deterministic and exact, whatever builds came before."""
    f_list, theta_list = _unit_corrections(config.order, config.epsilon)
    top = 2 * config.order + 1  # bounds |2j-1-3m| over every coefficient
    powers = _powers(config.L.numerator, top), _powers(config.L.denominator, top)
    f_coeffs = [_coefficients(j, c, 2, *powers) for j, c in enumerate(f_list)]
    theta_coeffs = [_coefficients(j, c, 1, *powers) for j, c in enumerate(theta_list)]
    theta_coeffs[0][0] = Fraction(1)  # the constant the dense form leaves out
    return HpmSeries(
        tuple(map(RationalPolynomial._of, f_coeffs)),
        tuple(map(RationalPolynomial._of, theta_coeffs)),
        config,
    )


# -- series document (exact JSON round trip) ----------------------------------


def series_to_document(series: HpmSeries) -> dict:
    """JSON-able document: order and powers as JSON integers, every rational
    as decimal strings {"num": "-4867", "den": "10752000"}, terms ascending."""
    L, epsilon = series.config.L, series.config.epsilon

    def terms(poly: RationalPolynomial) -> list[dict]:
        out = []
        for p, c in poly.terms():
            num, den = c.as_integer_ratio()
            out.append({"power": p, "num": str(num), "den": str(den)})
        return out

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
