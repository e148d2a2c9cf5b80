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

and theta_0 has the constant 1 besides.  The process keeps the L-free half
of every build, in the two parts the comment above ``_table`` describes, so
a build at a known eps does only the work of L.

``HpmConfig`` and ``HpmSeries`` are frozen records (see ``_record``): the
dataclasses API works on them, but building a series never loads
``dataclasses``.

``series_to_document`` writes a series as an exact JSON document, and its
spelling is the only one: ``series_from_document`` reads a document, writes
the series back and accepts it only if the two are equal.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from operator import mul
from typing import Sequence

from ._record import _Record
from .exact import RationalPolynomial, _reduced, _summed, as_rational


# Highest accepted order.  Build time grows about as the cube of the order
# (README.md, under flatplate.hpm, gives measured times), so an unchecked
# order is an unbounded computation.
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
        return _summed(term for correction in corrections[: up_to + 1]
                       for term in correction.terms())


# The engine works at L = 1.  The table of powers of z is dense: row n holds
# the numerators of [lambda^n] z^m, m = 0..n, over one positive denominator,
# so a row costs one gcd, not one per operation.  A correction is derived
# the same way, numerators n[0..j] of the powers eta^(3m+offset) over one
# denominator, with offset 2 for f_j and 1 for theta_j (the constant 1 of
# theta_0 is left out), and then kept slot by slot in lowest terms: a
# tuple of coprime pairs (a_m, b_m), b_m > 0, with (0, 1) for a zero slot.
# L enters once, in _coefficients, by the scaling law, so the integers of
# the engine do not grow with the digits of L; and since gcd(a_m, b_m) = 1
# and L = p/q is in lowest terms, placing a slot at L takes two gcds of a
# small power of p or q against a_m or b_m, never one of the two products.
#
# The theta weights are integers too.  With eps = p/q, e_k = E_k / ((3k)! (2p)^k)
# where E_0 = 1 and E_n = -q sum_{k<n} C(3n-1, 3k+2) (-p)^k A_k E_(n-1-k), from
# E' = -F E / (2 eps) for E = exp(-Phi/(2 eps)).  So d_k = E_k / ((3k+1)! (2p)^k),
# and 1/J has the coefficients r_i = R_i / (2p)^i, where R_i are those of the
# reciprocal of sum_k E_k w^k / (3k+1)!.
Correction = tuple[tuple[int, int], ...]  # (a_m, b_m) in lowest terms, slot m = 0..j
Corrections = tuple[Correction, ...]  # orders 0..n of f or of theta
PowerRow = tuple[tuple[int, ...], int]
# (-1)^k A_k, rows 0..n of powers of z, and f_0..f_(n-1) at L = 1
Table = tuple[tuple[int, ...], tuple[PowerRow, ...], Corrections]
ThetaWeights = tuple[tuple[int, ...], tuple[tuple[int, int], ...]]  # E, R over their denominators
ThetaTable = tuple[ThetaWeights, Corrections]  # weights, theta_0..theta_n

# The L-free half of the engine, shared by every build in the process, in
# two parts, kept by one rule.  Nothing in it depends on which builds grew
# it, and a published entry is never changed.  Each part grows and is
# published under _growing, by rebinding its global, so a build reads it
# without the lock and sees a complete part, the old one or the new; a
# build that finds the rows it needs takes no lock, and one that must grow
# reads the part again under the lock, so each row is grown once.
#
# _table: rows 0..n of the table of powers of z, the signed integers
# (-1)^k A_k, k < n, that they need, and f_0..f_(n-1) at L = 1, since f_j
# is read from row j+1.  Row n depends only on the rows below it.  Neither
# L nor eps enters.  It grows to the rows an order needs, n <= order + 1,
# at about n^3/6 integer multiply-adds for n rows, once per process: at
# most MAX_ORDER + 2 rows, about 230 KiB, and MAX_ORDER + 1 f corrections,
# about 470 KiB.
_table: Table = ((1,), (((1,), 1), ((0, 1), 1)), (((1, 2),),))
# _theta_tables: eps -> table, oldest growth first, at most _THETA_TABLES
# of them; growing a table makes it the newest, and the table grown longest
# ago is evicted beyond the cap (an evicted eps builds its table anew).  A
# table holds the weights E, R through order n and theta_0..theta_n at
# L = 1, so the theta sums, about order^3/6 multiply-adds, run once per
# (eps, order) in a process.  The weights of order n are those of every
# higher order cut at n, so a table grows from n to m by appending and keeps
# rows 0..n.  Its size grows with the order and with the digits of eps (E_n
# carries q^n, R_n carries p^n): at order 25 about 63 KiB for an eps of one
# or two digits, at MAX_ORDER about 0.5 MiB for such an eps, 3.1 MiB for an
# eps of 40 digits and 10.4 MiB at eps = 10^-300 (the weights are 0.5 MiB
# of it), so the tables hold at most _THETA_TABLES times as much.
_THETA_TABLES = 4
_theta_tables: dict[Fraction, ThetaTable] = {}
_THETA_SEED: ThetaTable = ((1,), ((1, 1),)), (((-1, 1),),)  # E_0, R_0 and theta_0
_growing = threading.Lock()


def _lowest(nums: list[int], den: int) -> Correction:
    """nums[m]/den for each slot m, in lowest terms; a zero slot is (0, 1)."""
    slots = []
    for n in nums:
        g = math.gcd(n, den)
        slots.append((n // g, den // g))
    return tuple(slots)


def _shared_table(top: int) -> Table:
    """The shared table with at least rows 0..top (and so f_0..f_(top-1)),
    grown first if it is shorter."""
    global _table
    table = _table
    if len(table[1]) <= top:
        with _growing:
            table = _table
            if len(table[1]) <= top:
                table = _table = _grown(table, top)
    return table


def _grown(table: Table, top: int) -> Table:
    """``table`` extended to rows 0..top and f_0..f_(top-1).  Row n holds
    [lambda^n] z^m for m = 0..n over one denominator, where z(lambda)
    solves z G(z) = lambda and G has the coefficients
    g_k = signed[k] / (2^k (3k+1)!), with signed[k] = (-1)^k A_k; f_(n-1)
    is read from row n as soon as it is made (see ``_f_correction``).

    Blasius's integers come first: signed[k] = -sum_(a<k) C(3k-1, 3a+2)
    signed[a] signed[k-1-a].  Degree n is then built after the degrees
    below it: for m >= 2, [lambda^n] z^m = sum_a [lambda^a] z^(m-1)
    z_(n-a), and then z_n = -sum_(k>=1) g_k [lambda^n] z^(k+1), the
    lambda^n coefficient of z G(z) = lambda.  The denominator of degree n
    is the lcm of that of z_n and of each product of the denominators of
    degrees a and n-a, so each product pair is rescaled once, on its factor
    z_(n-a).
    """
    signed, rows, unit_f = map(list, table)
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
        unit_f.append(_f_correction(n - 1, rows[n], signed))
        columns.append([])
        for m in range(n + 1):
            columns[m].append(nums[m])
    return tuple(signed), tuple(rows), tuple(unit_f)


def _shared_theta(top: int, epsilon: Fraction) -> Corrections:
    """The shared theta_0..theta_top at L = 1 (at least) for ``epsilon``,
    grown first if it is shorter (see the comment above ``_table``).

    A build that must grow waits for any growth in progress, at worst a
    first order-60 build at eps = 10^-300 (1.9 s, README under
    flatplate.hpm); a build that finds its rows does not wait.
    """
    global _theta_tables
    table = _theta_tables.get(epsilon, _THETA_SEED)
    if len(table[1]) <= top:
        signed, rows, _ = _shared_table(top)  # first: _growing is not reentrant
        with _growing:
            table = _theta_tables.get(epsilon, _THETA_SEED)
            if len(table[1]) <= top:
                table = _grown_theta(table, top, epsilon, signed, rows)
                others = [(eps, kept) for eps, kept in _theta_tables.items() if eps != epsilon]
                _theta_tables = dict([*others, (epsilon, table)][-_THETA_TABLES:])
    return table[1]


def _grown_theta(
    table: ThetaTable, top: int, epsilon: Fraction, signed: Sequence[int], rows: Sequence[PowerRow]
) -> ThetaTable:
    """``table`` extended to theta_0..theta_top: the weights E, R through
    order top, as the comment above defines them, then each new theta_j
    from row j of the table of powers of z."""
    (E, reciprocal), thetas = table
    E, reciprocal = list(E), list(reciprocal)
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
    weights = tuple(E), tuple(reciprocal)
    return weights, thetas + tuple(_theta_correction(j, rows[j], weights, 2 * p)
                                   for j in range(len(thetas), top + 1))


def _f_correction(j: int, powers: PowerRow, signed: Sequence[int]) -> Correction:
    """Order-j momentum correction at L = 1 from ``powers``, row j+1 of the
    table of powers of z: slot k is c_k [lambda^(j+1)] z^(k+1), with
    c_k = signed[k] / (2^k (3k+2)!)."""
    nums, den = powers
    falling = [math.perm(3 * j + 2, 3 * (j - k)) for k in range(j + 1)]
    return _lowest([signed[k] * w * nums[k + 1] << (j - k) for k, w in enumerate(falling)],
                   2 * falling[0] * den << j)


def _theta_correction(j: int, powers: PowerRow, weights: ThetaWeights, two_p: int) -> Correction:
    """Order-j temperature correction at L = 1 from ``powers``, row j of
    the table of powers of z: slot k is -d_k sum_i r_i [lambda^j] z^(k+i).

    With ``weights`` as ``_grown_theta`` makes them and eps = p/q, slot k
    is -E_k / ((3k+1)! (2p)^j) times sum_i R_i (2p)^(j-k-i) [lambda^j]
    z^(k+i), so each entry of the row is scaled once by its power of 2p.
    """
    nums, den = powers
    E, reciprocal = weights
    common = math.lcm(*(d for _, d in reciprocal[: j + 1]))
    rho = [n * (common // d) for n, d in reciprocal[: j + 1]]
    scaled, power = list(nums), 1
    for m in range(j, 0, -1):
        scaled[m] *= power
        power *= two_p
    falling = [math.perm(3 * j + 1, 3 * (j - k)) for k in range(j + 1)]
    return _lowest([-E[k] * w * sum(map(mul, rho, scaled[k:])) for k, w in enumerate(falling)],
                   falling[0] * power * common * den)


# bench/tracer.py Tracer.installed() reads both names with getattr; no build
# calls them.  ROADMAP items 7 and 12 move the tracer and then delete them.
def recurrence_step_f(j: int, unit_f: Sequence[Correction]) -> Correction:
    return unit_f[j]


def recurrence_step_theta(j: int, thetas: Sequence[Correction]) -> Correction:
    return thetas[j]


def _coefficients(
    j: int, correction: Correction, offset: int, p_powers: list[int], q_powers: list[int]
) -> dict[int, Fraction]:
    """Place the order-j correction at L = p/q: slot m, the coefficient a/b
    of eta^(3m+offset), scales by L^(2j-1-3m), for f and theta alike.  The
    powers of p and q are read from ``p_powers`` and ``q_powers``.

    With P/Q that power of L, gcd(a P, b Q) = gcd(a, Q) gcd(P, b), since
    gcd(a, b) = gcd(P, Q) = 1; so each small factor is divided out before
    the product is made, and a gcd against a power of 1 (Q at an integer L,
    P at L = 1/n) is skipped.  A zero slot is left out.
    """
    coeffs = {}
    k = 2 * j - 1
    for m, (a, b) in enumerate(correction):
        if a:
            up, down = (p_powers[k], q_powers[k]) if k >= 0 else (q_powers[-k], p_powers[-k])
            if down != 1:
                g = math.gcd(a, down)
                a, down = a // g, down // g
            if up != 1:
                g = math.gcd(up, b)
                up, b = up // g, b // g
            coeffs[3 * m + offset] = _reduced(a * up, b * down)
        k -= 3
    return coeffs


def _powers(base: int, top: int) -> list[int]:
    """base^0..base^top."""
    powers = [1]
    for _ in range(top):
        powers.append(powers[-1] * base)
    return powers


def _unit_corrections(order: int, epsilon: Fraction) -> tuple[Corrections, Corrections]:
    """The f and theta corrections 0..order at L = 1: the L-free half of a
    build, as slices of the shared, immutable tuples.

    Order 0 is f_0 = eta^2/2 and theta_0 = 1 - eta.  The f corrections come
    from the shared table and the theta corrections from the shared theta
    table of ``epsilon``, each derived first up to this order if it is shorter.
    """
    return _shared_table(order + 1)[2][: order + 1], _shared_theta(order, epsilon)[: order + 1]


def build_series(config: HpmConfig) -> HpmSeries:
    """Read corrections 0..config.order at L = 1 (see ``_unit_corrections``),
    then place each at L as a RationalPolynomial by the scaling law.
    Deterministic and exact, whatever builds came before."""
    f_list, theta_list = _unit_corrections(config.order, config.epsilon)
    top = 2 * config.order + 1  # bounds |2j-1-3m| over every coefficient
    powers = _powers(config.L.numerator, top), _powers(config.L.denominator, top)
    f_coeffs = [_coefficients(j, c, 2, *powers) for j, c in enumerate(f_list)]
    theta_coeffs = [_coefficients(j, c, 1, *powers) for j, c in enumerate(theta_list)]
    theta_coeffs[0][0] = Fraction(1)  # the constant the kept form leaves out
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


def series_from_document(doc: dict) -> HpmSeries:
    """Inverse of :func:`series_to_document`, which is also its one rule of
    spelling.  The reader is lenient: ``HpmConfig`` checks the order (an int,
    no bool), L and epsilon, ``int()`` reads each ``num`` and ``den``, and
    ``RationalPolynomial`` each term list (int powers).  It then writes the
    series back and accepts the document only if it is exactly what the
    writer writes.  So a misspelled number ("007", "+3", "1_0", 3.0, true),
    a rational not in lowest terms, a zero, repeated or out-of-order term
    and a key the writer does not write, at top level or in a term, are all
    rejected, and one series has one document.  The writer writes whatever
    lists it is given, so corrections 0..order are read by index: a short
    list fails there and a long one differs from the write-back.

    Every rejection is a ValueError that names a field at fault: the first
    one the records cannot read, else the first, in the writer's order, that
    differs from the write-back: ``order``, ``L``, ``epsilon``, ``f[j]`` or
    ``theta[j]``, or else a key the writer does not write.  No other
    exception leaves the reader (``int()`` of an infinite float raises
    OverflowError, which is caught with the rest).
    """
    def rational(obj: dict) -> Fraction:
        return Fraction(int(obj["num"]), int(obj["den"]))

    read: list = []  # order, L, epsilon, then the f and theta corrections
    try:
        for field in ("order", "L", "epsilon"):
            read.append(doc[field] if field == "order" else rational(doc[field]))
            config = HpmConfig(*read)  # checks the fields read so far
        for name in ("f", "theta"):
            read.append([])
            for j in range(config.order + 1):
                field = f"{name}[{j}]"
                read[-1].append(RationalPolynomial({t["power"]: rational(t) for t in doc[name][j]}))
    except (LookupError, TypeError, ValueError, ArithmeticError) as exc:
        raise ValueError(f"series document rejected at {field}: {exc!r}") from None
    series = HpmSeries(tuple(read[3]), tuple(read[4]), config)
    written = series_to_document(series)
    for key in {**written, **doc}:  # the writer's fields in its order, then any others
        if key not in written or doc[key] != written[key]:
            wanted = written.get(key)  # f and theta are located to the first correction
            pairs = enumerate(zip(doc[key], wanted) if isinstance(wanted, list) else ())
            j = next((f"[{j}]" for j, (got, want) in pairs if got != want), "")
            raise ValueError(f"series document rejected at {key}{j}: not as the writer writes it")
    return series
