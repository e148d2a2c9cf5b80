"""Series engine: hand-derived oracles, exact boundary and residual identities.

The order-1 and order-2 corrections asserted here were re-derived by hand
before the recurrence was written: antidifferentiate the convolution right
side with zero constants, then fit the single free homogeneous coefficient
at eta = L.  They are frozen as plain fractions so the test stays
independent of the code path it checks.
"""

import copy
import dataclasses
import functools
import json
import math
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatplate import hpm
from flatplate.exact import RationalPolynomial
from flatplate.hpm import (
    MAX_ORDER,
    HpmConfig,
    HpmSeries,
    build_series,
    series_from_document,
    series_to_document,
)
from flatplate.shooting import IntegratorSettings, solve_shooting

BOYD_SLOPE = 0.332057336215196  # Blasius f''(0) on the infinite domain, Boyd 1999

F1_HAND = RationalPolynomial({5: Fraction(-1, 6000), 2: Fraction(5, 96)})
F2_HAND = RationalPolynomial(
    {8: Fraction(11, 20160000), 5: Fraction(-1, 5760), 2: Fraction(325, 16128)}
)
THETA1_HAND = RationalPolynomial({4: Fraction(1, 1200), 1: Fraction(-5, 48)})

POSITIVE_RATIONALS = st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6))

TARGET_SUM = RationalPolynomial(
    {
        2: Fraction(1348969, 7741440),
        5: Fraction(-4867, 10752000),
        8: Fraction(451, 322560000),
        11: Fraction(-1, 532224000),
    }
)


# Values a damaged document may hold in place of a written one: JSON's other
# types, the floats json.loads reads (Infinity and NaN included), and
# strings that int() reads but the writer never writes.
DAMAGED_VALUES = st.one_of(
    st.booleans(),
    st.floats(),
    st.integers(-10, 10),
    st.integers(-10, 10).map(str),
    st.sampled_from(["007", "+3", " 3 ", "1_0", "\u0663", "-0", "", "1/2"]),
    st.none(),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.sampled_from(["num", "den", "power"]), st.integers(0, 3).map(str), max_size=2),
)


def rejected_at(field: str):
    """pytest.raises for a series document that the reader rejects at ``field``."""
    return pytest.raises(ValueError, match=rf"^series document rejected at {re.escape(field)}: ")


class TestConfig:
    def test_rejects_zero_domain_length(self):
        with pytest.raises(ValueError, match="L > 0"):
            HpmConfig(order=3, L=Fraction(0))

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            HpmConfig(order=3, epsilon=Fraction(0))

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError, match="order"):
            HpmConfig(order=-1)

    def test_order_is_capped(self):
        HpmConfig(order=MAX_ORDER)
        for order in (MAX_ORDER + 1, 10**9):
            with pytest.raises(ValueError, match=f"at most {MAX_ORDER}"):
                HpmConfig(order=order)

    def test_accepts_rational_literals(self):
        cfg = HpmConfig(order=0, L="7/2", epsilon="3")
        assert cfg.L == Fraction(7, 2)
        assert cfg.epsilon == Fraction(3)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(order=3.0), "order must be a non-negative integer, got 3.0"),
            (dict(order="3"), "order must be a non-negative integer, got '3'"),
            (dict(order=-1, L=0), "order must be a non-negative integer, got -1"),
            (dict(order=-1, L="x"), "malformed rational literal 'x' for L"),
            (dict(order=1, L="1/2", epsilon="-1/3"), "epsilon must satisfy epsilon > 0, got -1/3"),
            (dict(order=MAX_ORDER + 1), f"order must be at most {MAX_ORDER}, got {MAX_ORDER + 1}"),
            # isinstance(True, int) holds, but a document with "order": true would not load
            (dict(order=True), "order must be a non-negative integer, got True"),
            (dict(order=3, L=True), "cannot interpret True for L as a rational number"),
            (dict(order=3, epsilon=True), "cannot interpret True for epsilon as a rational number"),
        ],
    )
    def test_validation_messages(self, kwargs, message):
        # L and epsilon are converted, and can fail, before the order is checked
        with pytest.raises(ValueError) as info:
            HpmConfig(**kwargs)
        assert str(info.value).startswith(message)

    def test_defaults_and_positional_fields(self):
        assert HpmConfig(3) == HpmConfig(order=3, L=Fraction(5), epsilon=Fraction(1))
        assert HpmConfig(3, 7, "1/2").L == Fraction(7)


class TestRecords:
    """HpmConfig and HpmSeries keep what their frozen dataclasses gave."""

    @staticmethod
    def records(series):
        return (series.config, series)

    def test_equal_and_hash_by_fields(self, series_order3):
        config = HpmConfig(3, "5", 1)
        assert config == series_order3.config and hash(config) == hash(series_order3.config)
        assert config != HpmConfig(3, 6) and config != HpmConfig(2)
        assert config != (3, Fraction(5), Fraction(1))
        again = build_series(config)
        assert again is not series_order3
        assert again == series_order3 and hash(again) == hash(series_order3)
        assert again != build_series(HpmConfig(3, 6))
        assert len({again, series_order3, config, series_order3.config}) == 2

    def test_repr_matches_the_frozen_dataclass(self, series_order3):
        for record in self.records(series_order3):
            fields = type(record).__slots__
            twin = dataclasses.make_dataclass(type(record).__name__, fields, frozen=True)
            assert repr(record) == repr(twin(*(getattr(record, name) for name in fields)))
        assert repr(series_order3.config) == (
            "HpmConfig(order=3, L=Fraction(5, 1), epsilon=Fraction(1, 1))")

    def test_fields_cannot_be_assigned_or_deleted(self, series_order3):
        for record in self.records(series_order3):
            for name in (*type(record).__slots__, "extra"):
                with pytest.raises(AttributeError, match="cannot assign"):
                    setattr(record, name, None)
                with pytest.raises(AttributeError):
                    delattr(record, name)
        assert series_order3.config == HpmConfig(3)

    def test_copy_and_pickle_give_equal_records(self, series_order3):
        for record in self.records(series_order3):
            assert copy.copy(record) == record
            assert copy.deepcopy(record) == record
            assert pickle.loads(pickle.dumps(record)) == record


def reference_corrections(config):
    """The Fraction recurrence build_series used to run, one RationalPolynomial
    operation per step.

    Kept here as an oracle: the integer engine must reproduce every
    correction exactly, and so the series document byte for byte.  It fits
    each correction at L itself, so it is also the check, independent of the
    engine, that the scaling law places the L = 1 corrections at L with the
    right powers.
    """
    L, half = config.L, Fraction(1, 2)
    f = [RationalPolynomial({2: half / L})]
    theta = [RationalPolynomial({0: Fraction(1), 1: -1 / L})]
    for j in range(1, config.order + 1):
        convection = sum(
            (f[k] * f[j - 1 - k].derivative(2) for k in range(j)), RationalPolynomial()
        )
        particular = (convection * -half).antiderivative(3)
        c = -particular.derivative().eval_exact(L) / (2 * L)
        f.append(particular + RationalPolynomial({2: c}))
        convection = sum(
            (f[k] * theta[j - 1 - k].derivative() for k in range(j)), RationalPolynomial()
        )
        particular = (convection * (-half / config.epsilon)).antiderivative(2)
        b = -particular.eval_exact(L) / L
        theta.append(particular + RationalPolynomial({1: b}))
    return f, theta


def corrections(order, L=Fraction(5), epsilon=Fraction(1)):
    series = build_series(HpmConfig(order=order, L=L, epsilon=epsilon))
    return series.f_corrections, series.theta_corrections


class TestInitialCorrections:
    def test_default_domain(self):
        (f0,), (theta0,) = corrections(0)
        assert f0 == RationalPolynomial({2: Fraction(1, 10)})
        assert theta0 == RationalPolynomial({0: 1, 1: Fraction(-1, 5)})

    def test_longer_domain(self):
        (f0,), _ = corrections(0, L=Fraction(10))
        assert f0 == RationalPolynomial({2: Fraction(1, 20)})

    @pytest.mark.parametrize("L", [Fraction(5), Fraction(10), Fraction(7, 2)])
    def test_closed_form_any_domain(self, L):
        (f0,), (theta0,) = corrections(0, L=L)
        assert f0 == RationalPolynomial({2: Fraction(1, 2) / L})
        assert theta0 == RationalPolynomial({0: 1, 1: -1 / L})


class TestRecurrence:
    def test_order1_hand_oracle(self):
        f, _ = corrections(1)
        assert f[1] == F1_HAND

    def test_order2_hand_oracle(self):
        f, _ = corrections(2)
        assert f[2] == F2_HAND

    @pytest.mark.parametrize("L", [Fraction(5), Fraction(10), Fraction(7, 2), Fraction(1)])
    def test_order1_degree_is_five(self, L):
        f, _ = corrections(1, L=L)
        assert max(dict(f[1].terms())) == 5

    def test_theta_order1_hand_oracle(self):
        _, theta = corrections(1)
        assert theta[1] == THETA1_HAND

    def test_theta_order1_epsilon_two(self):
        _, theta = corrections(1, epsilon=Fraction(2))
        assert theta[1] == RationalPolynomial({4: Fraction(1, 2400), 1: Fraction(-5, 96)})

    @pytest.mark.parametrize(
        "L,eps", [(Fraction(5), Fraction(1)), (Fraction(7, 2), Fraction(3)), (Fraction(10), Fraction(1, 2))]
    )
    def test_theta_order1_vanishes_at_origin(self, L, eps):
        _, theta = corrections(1, L=L, epsilon=eps)
        assert theta[1].eval_exact(0) == 0


class TestBuildSeries:
    def test_third_order_partial_sum_is_exact(self, series_order3):
        assert series_order3.partial_sum("f") == TARGET_SUM

    def test_third_order_term_structure(self, series_order3):
        powers = [p for p, _ in series_order3.partial_sum("f").terms()]
        assert powers == [2, 5, 8, 11]

    def test_order_zero_partial_sum(self):
        series = build_series(HpmConfig(order=0))
        assert series.partial_sum("f") == RationalPolynomial({2: Fraction(1, 10)})

    def test_partial_sum_up_to_zero_is_identity(self, series_order3):
        assert series_order3.partial_sum("f", up_to=0) == series_order3.f_corrections[0]

    def test_partial_sum_up_to_one(self, series_order3):
        expected = RationalPolynomial(
            {2: Fraction(1, 10) + Fraction(5, 96), 5: Fraction(-1, 6000)}
        )
        assert series_order3.partial_sum("f", up_to=1) == expected

    def test_partial_sum_range_checked(self, series_order3):
        with pytest.raises(ValueError, match=r"^up_to must be in 0\.\.3, got 4$"):
            series_order3.partial_sum("f", up_to=4)
        with pytest.raises(ValueError, match=r"^up_to must be in 0\.\.3, got -1$"):
            series_order3.partial_sum("f", up_to=-1)
        with pytest.raises(ValueError, match=r"^which must be 'f' or 'theta', got 'g'$"):
            series_order3.partial_sum("g")

    @pytest.mark.parametrize("up_to", [True, False, 1.0, Fraction(1), "1"])
    def test_partial_sum_rejects_an_up_to_that_is_not_an_int(self, series_order3, up_to):
        """True would sum to order 1 and 1.0 would fail in slicing."""
        with pytest.raises(ValueError, match=rf"^up_to must be in 0\.\.3, got {re.escape(repr(up_to))}$"):
            series_order3.partial_sum("f", up_to=up_to)

    @pytest.mark.parametrize("L", [Fraction(5), Fraction(10), Fraction(7, 2)])
    @pytest.mark.parametrize("eps", [Fraction(1), Fraction(7, 10)])
    def test_partial_sum_matches_the_fold(self, L, eps):
        """Every partial sum equals the fold of RationalPolynomial additions,
        coefficient by coefficient and term by term, as the document writes it."""
        series = build_series(HpmConfig(order=25, L=L, epsilon=eps))
        for which, corrections in (("f", series.f_corrections),
                                   ("theta", series.theta_corrections)):
            for up_to in range(series.order + 1):
                expected = sum(corrections[: up_to + 1], RationalPolynomial())
                got = series.partial_sum(which, up_to)
                assert got == expected
                assert list(got.terms()) == list(expected.terms())
            assert series.partial_sum(which) == series.partial_sum(which, series.order)

    def test_correction_list_lengths(self, series_order6):
        assert len(series_order6.f_corrections) == 7
        assert len(series_order6.theta_corrections) == 7

    def test_deterministic(self, series_order3):
        again = build_series(HpmConfig(order=3))
        assert again.f_corrections == series_order3.f_corrections
        assert again.theta_corrections == series_order3.theta_corrections

    @pytest.mark.parametrize(
        "L",
        [Fraction(5), Fraction(10), Fraction(7, 2), Fraction(11, 2), Fraction(1),
         Fraction(1, 3), Fraction(10**12), Fraction(1, 10**12),
         Fraction(123456789, 987654321)],
    )
    @pytest.mark.parametrize("eps", [Fraction(1), Fraction(1, 2), Fraction(7, 10), Fraction(1, 7)])
    def test_matches_reference_corrections(self, L, eps):
        """Correction j does not depend on the total order, so order 20 covers
        the documents of orders 0-20 as well.  The lengths far from 1 and with
        large numerators or denominators pin every power of L the engine
        applies."""
        config = HpmConfig(order=20, L=L, epsilon=eps)
        series = build_series(config)
        f, theta = reference_corrections(config)
        assert series.f_corrections == tuple(f)
        assert series.theta_corrections == tuple(theta)
        reference = HpmSeries(tuple(f), tuple(theta), config)
        text = json.dumps(series_to_document(series), indent=2)
        assert text == json.dumps(series_to_document(reference), indent=2)

    @pytest.mark.parametrize("eps", [Fraction(1), Fraction(7, 10), Fraction(1, 7)])
    def test_unit_corrections_match_the_rederiving_step(self, eps):
        """The engine reads each correction from the table of powers of z; the
        step below solves the recurrence again and derives every earlier
        correction anew at every order.  Both must give the same integers at
        every order up to 40."""
        f_list, theta_list = [([1], 2)], [([-1], 1)]
        for j in range(1, 41):
            theta_list.append(rederiving_step(j, f_list, theta_list, 1, Fraction(-1, 2) / eps))
            f_list.append(rederiving_step(j, f_list, f_list, 2, Fraction(-1, 2)))
        assert hpm._unit_corrections(40, eps) == slotwise_lists(f_list, theta_list)

    @pytest.mark.parametrize(
        "order, eps",
        [(order, eps) for order in (0, 1, 2, 12, 25)
         for eps in (Fraction(1), Fraction(7, 10), Fraction(1, 7))]
        + [(60, Fraction(7, 10)), (20, Fraction(10**40, 3)), (20, Fraction(3, 10**40))],
    )
    def test_unit_corrections_match_the_recurrence(self, order, eps):
        """The closed form and the convolution recurrence give the same
        integers, down to the lowest terms of each slot, also at MAX_ORDER
        and at an epsilon 40 orders of magnitude from 1 either way."""
        expected = slotwise_lists(*recurrence_corrections(order, eps))
        assert hpm._unit_corrections(order, eps) == expected

    @pytest.mark.parametrize(
        "L", [Fraction(1, 6), Fraction(10**300), Fraction(10**40 + 1, 10**40),
              Fraction(7, 2), Fraction(2, 3)])
    @pytest.mark.parametrize(
        "order, eps", [(25, Fraction(1)), (25, Fraction(1, 7)), (60, Fraction(7, 10))])
    def test_placing_a_slot_at_L_is_fraction_arithmetic(self, L, order, eps):
        """Slot m of correction j, a/b at L = 1, is placed at L as
        a L^(2j-1-3m) / b.  Every j >= 1 has slots with either sign of that
        power; L = 1/6 and L = 10^300 each skip one of the two gcds the
        engine takes, and the other lengths take both."""
        f_list, theta_list = hpm._unit_corrections(order, eps)
        series = build_series(HpmConfig(order, L, eps))
        for offset, slots, placed in ((2, f_list, series.f_corrections),
                                      (1, theta_list, series.theta_corrections)):
            for j, (correction, poly) in enumerate(zip(slots, placed)):
                expected = {3 * m + offset: Fraction(a) * L ** (2 * j - 1 - 3 * m) / b
                            for m, (a, b) in enumerate(correction) if a}
                if offset == 1 and j == 0:
                    expected[0] = Fraction(1)
                got = dict(poly.terms())
                assert got.keys() == expected.keys(), (offset, j)
                for power, value in expected.items():
                    coeff = got[power]
                    assert (coeff.numerator, coeff.denominator) == value.as_integer_ratio(), \
                        (offset, j, power)


def assert_canonical(poly, seen):
    """Every stored coefficient is a nonzero Fraction in lowest terms with a
    positive denominator, indistinguishable from the Fraction that the public
    constructor makes of the same pair.  Equality, hash, repr and str are
    functions of that pair, so they are compared once per pair in ``seen``."""
    for power, coeff in poly._coeffs.items():
        assert type(power) is int and power >= 0
        assert type(coeff) is Fraction
        num, den = pair = coeff.numerator, coeff.denominator
        assert type(num) is int and type(den) is int
        assert den > 0 and math.gcd(num, den) == 1 and num != 0
        if pair not in seen:
            checked = Fraction(num, den)
            assert coeff == checked and hash(coeff) == hash(checked)
            assert repr(coeff) == repr(checked) and str(coeff) == str(checked)
            seen.add(pair)


class TestEngineOutputIsCanonical:
    """The engine makes its coefficients without Fraction's own checks, so
    check them here: every correction of every build, and both partial sums
    with their derivatives."""

    # the lengths and epsilons of the series_ladder benchmark workload
    LADDER = [(L, eps) for L in (Fraction(5), Fraction(10), Fraction(7, 2), Fraction(11, 2))
              for eps in (Fraction(1), Fraction(1, 2), Fraction(7, 10))]

    @staticmethod
    def assert_series_canonical(series, seen):
        for poly in (*series.f_corrections, *series.theta_corrections):
            assert_canonical(poly, seen)
        for which in ("f", "theta"):
            total = series.partial_sum(which)
            assert_canonical(total, seen)
            assert_canonical(total.derivative(), seen)

    @pytest.mark.parametrize("L, eps", LADDER)
    def test_series_ladder_grid(self, L, eps):
        seen = set()
        for order in range(26):
            self.assert_series_canonical(build_series(HpmConfig(order, L, eps)), seen)

    def test_length_with_a_large_numerator_and_denominator(self):
        L, seen = Fraction(10**40 + 1, 10**40), set()
        for order in range(26):
            self.assert_series_canonical(build_series(HpmConfig(order, L)), seen)

    def test_length_of_one_over_an_integer(self):
        """At L = 1/6 every power of L has numerator 1."""
        seen = set()
        for order in range(26):
            self.assert_series_canonical(build_series(HpmConfig(order, Fraction(1, 6))), seen)

    def test_zero_numerators_are_left_out(self):
        """A slot of 0 places no term, as the checked constructor would drop
        it; order 1 at L = 5/2 has powers eta^2 and eta^5."""
        powers = hpm._powers(5, 3), hpm._powers(2, 3)
        placed = hpm._coefficients(1, ((3, 7), (0, 1)), 2, *powers)
        assert placed == {2: Fraction(15, 14)} and type(placed[2]) is Fraction
        assert_canonical(RationalPolynomial._of(placed), set())

    def test_zero_sums_are_dropped(self):
        """Opposite corrections sum to no term at all, not to a stored zero."""
        f1 = build_series(HpmConfig(1)).f_corrections[1]
        series = HpmSeries((f1, f1 * -1), (f1, f1 * -1), HpmConfig(1))
        assert series.partial_sum("f") == RationalPolynomial()
        assert series.partial_sum("f")._coeffs == {}


# The dense integer recurrence the engine ran before the closed form, kept as
# its oracle.  A correction is (numerators of eta^(3m+offset), m = 0..j, one
# denominator), offset 2 for f and 1 for theta, in lowest terms.


def slotwise(nums, den):
    """The dense correction ``nums`` over ``den`` slot by slot: the numerator
    and denominator of each Fraction(n, den), so (0, 1) for a zero slot.  A
    dense correction in lowest terms and this form determine each other."""
    return tuple((c.numerator, c.denominator) for c in (Fraction(n, den) for n in nums))


def slotwise_lists(f_list, theta_list):
    """Dense f and theta correction lists slot by slot, as the tuples
    ``_unit_corrections`` returns."""
    return tuple(slotwise(*c) for c in f_list), tuple(slotwise(*c) for c in theta_list)


def convolve(left, right):
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


def derivative(correction, offset):
    """u^(offset) of u: slot m, eta^(3m+offset) -> eta^(3m), times (3m+offset)!/(3m)!."""
    nums, den = correction
    return [math.perm(3 * m + offset, offset) * n for m, n in enumerate(nums)], den


def recurrence_step(j, prior_f, derivatives, offset, factor):
    """Order-j correction u_j of u^(offset+1) = factor * sum_{k<j} f_k u^(offset)_{j-1-k}
    at L = 1: antidifferentiate with zero constants (slot p over
    (3p+3)...(3p+3+offset), moved to slot p+1), then fit slot 0 (eta^offset)
    so that u^(offset-1)(1) = 0."""
    nums, den = convolve(prior_f, derivatives)
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


def recurrence_corrections(order, epsilon):
    """f_0..f_order and theta_0..theta_order at L = 1 by the recurrence, each
    correction's f'' and theta' derived once and kept."""
    f_list, fpp_list = [([1], 2)], [([2], 2)]
    theta_list, theta_p_list = [([-1], 1)], [([-1], 1)]
    for j in range(1, order + 1):
        theta_list.append(recurrence_step(j, f_list, theta_p_list, 1, Fraction(-1, 2) / epsilon))
        theta_p_list.append(derivative(theta_list[-1], 1))
        f_list.append(recurrence_step(j, f_list, fpp_list, 2, Fraction(-1, 2)))
        fpp_list.append(derivative(f_list[-1], 2))
    return f_list, theta_list


def rederiving_step(j, prior_f, prior, offset, factor):
    """``recurrence_step`` as it was before derivatives were kept per
    correction: ``prior`` holds u_0..u_{j-1}, and u^(offset) of each is
    built here, on every call."""
    return recurrence_step(j, prior_f, [derivative(u, offset) for u in prior], offset, factor)


def blasius_coefficients(count):
    """b_0..b_(count-1) of Blasius's F(xi) = sum_i b_i xi^i with F(0) = F'(0) = 0
    and F''(0) = 1, from the xi^i coefficient of F''' = -F F''/2:
    (i+3)(i+2)(i+1) b_(i+3) = -(1/2) sum_(a+c=i) b_a (c+2)(c+1) b_(c+2)."""
    b = [Fraction(0), Fraction(0), Fraction(1, 2)]
    while len(b) < count:
        i = len(b) - 3
        product = sum(b[a] * (i - a + 2) * (i - a + 1) * b[i - a + 2] for a in range(i + 1))
        b.append(-product / (2 * (i + 3) * (i + 2) * (i + 1)))
    return b


def lagrange_z(count):
    """[lambda^n] z for n = 0..count-1, where z G(z) = lambda and F'(xi) =
    xi G(xi^3): by Lagrange inversion, [lambda^n] z = (1/n) [w^(n-1)] G(w)^(-n)."""
    b = blasius_coefficients(3 * count)
    G = [(3 * k + 2) * b[3 * k + 2] for k in range(count)]
    H = [1 / G[0]]  # 1/G
    for i in range(1, count):
        H.append(-sum(G[k] * H[i - k] for k in range(1, i + 1)) / G[0])
    z, power = [Fraction(0)], [Fraction(1)] + [Fraction(0)] * (count - 1)
    for n in range(1, count):
        power = [sum(power[a] * H[i - a] for a in range(i + 1)) for i in range(count)]  # H^n
        z.append(power[n - 1] / n)
    return z


def test_wall_slopes_match_the_lagrange_inversion():
    """Slot 0 of f_j at L = 1, the coefficient of eta^2, is (1/2) [lambda^(j+1)] z
    (ROADMAP item 2).  Blasius's series and z here share no code with hpm."""
    z = lagrange_z(27)
    f_list, _ = hpm._unit_corrections(25, Fraction(1))
    for j, slots in enumerate(f_list):
        wall = z[j + 1] / 2
        assert slots[:1] == slotwise([wall.numerator], wall.denominator), j


def power_series_product(left, right):
    """The first len(left) coefficients of the product of two power series."""
    return [sum(left[i] * right[n - i] for i in range(n + 1)) for n in range(len(left))]


def heat_weights(count, epsilon):
    """d_0..d_(count-1) of J(w) = sum_k d_k w^k, where exp(-Phi(xi)/(2 eps)) =
    sum_k e_k xi^(3k) for Phi the integral of Blasius's F from 0, and
    d_k = e_k/(3k+1).  In u = xi^3 the exponent is g(u) = -sum_k c_k
    u^(k+1) / (2 eps (3k+3)), with c_k = b_(3k+2), and exp(g) has
    n e_n = sum_(m=1..n) m g_m e_(n-m)."""
    b = blasius_coefficients(3 * count)
    g = [Fraction(0)] + [-b[3 * k + 2] / (2 * epsilon * (3 * k + 3)) for k in range(count - 1)]
    e = [Fraction(1)]
    for n in range(1, count):
        e.append(sum(m * g[m] * e[n - m] for m in range(1, n + 1)) / n)
    return [e_k / (3 * k + 1) for k, e_k in enumerate(e)]


@functools.cache
def lagrange_z_powers(order):
    """[lambda^n] z^m for m, n = 0..order+1, each z^m as a list in n."""
    z = lagrange_z(order + 2)
    powers = [[Fraction(1)] + [Fraction(0)] * (order + 1)]
    for _ in range(order + 1):
        powers.append(power_series_product(powers[-1], z))
    return powers


def closed_form_corrections(order, epsilon):
    """f_j and theta_j at L = 1, j = 0..order, slot by slot from the closed
    form of the hpm docstring, with the constant 1 of theta_0 left out:
    slot k of f_j is c_k [lambda^(j+1)] z^(k+1), and slot k of theta_j is
    -d_k [lambda^j] z^k / J(z) = -d_k sum_i r_i [lambda^j] z^(k+i), where
    1/J = sum_i r_i w^i.  Shares no code with hpm."""
    b = blasius_coefficients(3 * order + 3)
    d = heat_weights(order + 1, epsilon)
    r = [1 / d[0]]
    for n in range(1, order + 1):
        r.append(-sum(d[k] * r[n - k] for k in range(1, n + 1)) / d[0])
    z = lagrange_z_powers(order)
    f_list = [[b[3 * k + 2] * z[k + 1][j + 1] for k in range(j + 1)] for j in range(order + 1)]
    theta_list = [[-d[k] * sum(r[i] * z[k + i][j] for i in range(j - k + 1))
                   for k in range(j + 1)] for j in range(order + 1)]
    return f_list, theta_list


@pytest.mark.parametrize("epsilon", [Fraction(1), Fraction(7, 10), Fraction(1, 7)])
def test_every_slot_matches_the_closed_form(epsilon):
    """Every slot of f_j and theta_j at L = 1, j <= 25, from Blasius's series
    and Lagrange inversion built here (ROADMAP item 1)."""
    expected = tuple(tuple(tuple((c.numerator, c.denominator) for c in slots)
                           for slots in corrections)
                     for corrections in closed_form_corrections(25, epsilon))
    assert hpm._unit_corrections(25, epsilon) == expected


def test_benchmark_tracer_still_sees_the_engine(fresh_python, tracer_module):
    """bench/tracer.py wraps build_series by name, so the build must reach it
    through the module globals to be traced.  A traced run needs the same
    counts in every round, so three traced order-12 builds in one process
    must count alike: one on cold tables, one with the z table warm at a
    new L and a new eps, and one at a known eps.  No build calls the
    reader names the tracer also wraps."""
    script = f"""
spec = importlib.util.spec_from_file_location("bench_tracer", {tracer_module.__file__!r})
tracer_module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_module)
original = hpm.build_series
grown, counts = [], []
for L, eps in ((5, 1), (10, Fraction(7, 10)), (Fraction(7, 2), Fraction(7, 10))):
    grown.append([len(hpm._table[1]), len(hpm._theta_tables.get(eps, ((), ()))[1])])
    tracer = tracer_module.Tracer()
    with tracer.installed():
        hpm.build_series(hpm.HpmConfig(12, Fraction(L), eps))
    counts.append(dict(tracer.counts))
print(json.dumps([grown, counts, hpm.build_series is original]))
"""
    grown, counts, restored = run_fresh(fresh_python, script)
    assert grown == [[2, 0], [14, 0], [14, 13]]
    assert counts[0] == counts[1] == counts[2]
    assert counts[0]["hpm.build_series_calls"] == 1
    assert not [name for name in counts[0] if name.startswith("hpm.recurrence_")], counts[0]
    assert restored


def test_traced_series_ladder_run_has_no_failed_op(run_benchmark_copy):
    """A traced run replays the same ops in every round and fails an op whose
    per-layer counts differ from round 0, so a memo that skips a traced
    call on a warm build shows here."""
    proc = run_benchmark_copy("bench/run.py", "--workload", "series_ladder",
                              "--seed", "1", "--seconds", "2", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0 and result["attempted"] > 0, result


@pytest.mark.parametrize("workload", ["cli_paper", "profile_export"])
def test_traced_run_has_no_failed_op(run_benchmark_copy, workload):
    """The tracer reads every name it wraps on the program's modules, so a
    change to src/ that removes or renames one, or makes a round count
    differently, fails a traced run of these workloads too."""
    proc = run_benchmark_copy("bench/run.py", "--workload", workload,
                              "--seed", "1", "--seconds", "2", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0 and result["attempted"] > 0, result


def test_benchmark_selftest_passes(run_benchmark_copy):
    """The benchmark's output checks pass the program's real outputs and fail
    corrupted ones, and every workload prints its metrics; so a change to
    src/ that breaks an output check fails here."""
    proc = run_benchmark_copy("bench/selftest.py")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr


# Scripts for a fresh interpreter, whose shared table starts cold.  Each
# ``cold()`` loads its own copy of the hpm module, so every build it serves
# starts from the two seed rows without an interpreter per build.
_COLD_COPIES = """
import importlib.util, json
from fractions import Fraction
import flatplate.hpm as hpm

def cold():
    spec = importlib.util.spec_from_file_location("flatplate._cold_hpm", hpm.__file__)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert [len(part) for part in module._table[1:]] == [2, 1]  # rows 0..1, f_0
    assert module._theta_tables == {}
    return module

def document(module, order, L, eps):
    series = module.build_series(module.HpmConfig(order, Fraction(L), Fraction(eps)))
    return json.dumps(module.series_to_document(series))
"""


def run_fresh(fresh_python, script):
    proc = fresh_python("-c", _COLD_COPIES + script)
    assert proc.returncode == 0 and not proc.stderr, proc.stderr
    return json.loads(proc.stdout)


class TestSharedTable:
    """The table of powers of z is shared by every build in a process and
    grows on demand; no document may depend on how it grew."""

    def test_documents_do_not_depend_on_the_builds_before(self, fresh_python):
        """Ascending orders grow the table one row per order; after order 60
        every build finds it full; a cold copy builds each from the seed."""
        script = """
configs = [(order, L, eps) for order in range(26)
           for L, eps in ((5, 1), (Fraction(7, 2), Fraction(1, 7)), (10**20, Fraction(7, 10)))]
growing = [document(hpm, *config) for config in configs]
document(hpm, 60, 5, 1)
full = [document(hpm, *config) for config in configs]
from_cold = [document(cold(), *config) for config in configs]
print(json.dumps([growing == from_cold, full == from_cold, len(from_cold)]))
"""
        assert run_fresh(fresh_python, script) == [True, True, 78]

    def test_threads_growing_one_table_build_the_serial_documents(self, fresh_python):
        script = """
import sys, threading
jobs = [[(60, 5, 1), (3, 7, Fraction(1, 7)), (25, Fraction(7, 2), 1)],
        [(12, 10, Fraction(7, 10)), (40, 5, 1), (0, 5, 1)],
        [(40, Fraction(11, 2), Fraction(1, 2)), (1, 5, 3), (60, 10**20, Fraction(1, 7))],
        [(25, 5, Fraction(7, 10)), (18, 10, 1), (7, Fraction(1, 3), 1)]]
documents, barrier = {}, threading.Barrier(len(jobs), timeout=60)

def work(configs):
    barrier.wait()
    for config in configs:
        documents[config] = document(hpm, *config)

interval = sys.getswitchinterval()
sys.setswitchinterval(1e-5)
try:
    threads = [threading.Thread(target=work, args=(configs,)) for configs in jobs]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
finally:
    sys.setswitchinterval(interval)
serial = cold()
same = [documents.get(config) == document(serial, *config)
        for configs in jobs for config in configs]
print(json.dumps([any(thread.is_alive() for thread in threads), same.count(True), len(same),
                  len(hpm._table[1])]))
"""
        assert run_fresh(fresh_python, script) == [False, 12, 12, MAX_ORDER + 2]

    def test_the_table_grows_to_what_a_build_needs_and_no_further(self, fresh_python):
        script = """
sizes, kept = [], []
for order in (3, 1, 12, hpm.MAX_ORDER, hpm.MAX_ORDER, 0):
    _, rows, unit_f = hpm._table
    hpm.build_series(hpm.HpmConfig(order, 10**20, Fraction(1, 7)))
    signed, grown, f = hpm._table
    kept.append([all(new is old for new, old in zip(grown, rows)),
                 all(new is old for new, old in zip(f, unit_f))])
    sizes.append([len(grown), len(signed), len(f)])
print(json.dumps([sizes, kept]))
"""
        rows = [5, 5, 14, MAX_ORDER + 2, MAX_ORDER + 2, MAX_ORDER + 2]
        expected = [[[n, n - 1, n - 1] for n in rows], [[True, True]] * 6]
        assert run_fresh(fresh_python, script) == expected


class TestSharedCorrections:
    """The f corrections at L = 1 and one theta table per eps are shared by
    every build in a process, grow on demand and hold at most a few eps; no
    document may depend on how they grew or what was evicted."""

    def test_documents_do_not_depend_on_the_builds_before(self, fresh_python):
        """Orders 3, 12 and 25 with eps interleaved grow three theta tables
        3 -> 12 -> 25; a copy grown straight to 25 and a cold copy per build
        give the same documents, and the rows a table had are kept."""
        script = """
epsilons = (1, Fraction(1, 7), Fraction(7, 10))
configs = [(order, L, eps) for order in (3, 12, 25) for L in (5, Fraction(7, 2))
           for eps in epsilons]
interleaved, kept, rows = cold(), [], {}
grown = []
for config in configs:
    grown.append(document(interleaved, *config))
    for eps, (_, thetas) in interleaved._theta_tables.items():
        kept.append(all(new is old for new, old in zip(thetas, rows.get(eps, ()))))
        rows[eps] = thetas
straight = cold()
for eps in epsilons:
    document(straight, 25, 5, eps)
after = [document(straight, *config) for config in configs]
from_cold = [document(cold(), *config) for config in configs]
lengths = sorted(len(thetas) for _, thetas in interleaved._theta_tables.values())
print(json.dumps([grown == from_cold, after == from_cold, len(configs), all(kept), lengths,
                  len(interleaved._table[2])]))
"""
        assert run_fresh(fresh_python, script) == [True, True, 18, True, [26, 26, 26], 26]

    def test_threads_growing_one_theta_table_build_the_serial_documents(self, fresh_python):
        script = """
import sys, threading
eps = Fraction(1, 7)
jobs = [[(60, 5, eps), (3, 7, eps), (25, Fraction(7, 2), eps)],
        [(12, 10, eps), (40, 5, eps), (0, 5, eps)],
        [(40, Fraction(11, 2), eps), (1, 5, eps), (60, 10**20, eps)],
        [(25, 5, eps), (18, 10, eps), (7, Fraction(1, 3), eps)]]
documents, barrier = {}, threading.Barrier(len(jobs), timeout=60)

def work(configs):
    barrier.wait()
    for config in configs:
        documents[config] = document(hpm, *config)

interval = sys.getswitchinterval()
sys.setswitchinterval(1e-5)
try:
    threads = [threading.Thread(target=work, args=(configs,)) for configs in jobs]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
finally:
    sys.setswitchinterval(interval)
serial = cold()
same = [documents.get(config) == document(serial, *config)
        for configs in jobs for config in configs]
print(json.dumps([any(thread.is_alive() for thread in threads), same.count(True), len(same),
                  [[str(e), len(thetas)] for e, (_, thetas) in hpm._theta_tables.items()],
                  len(hpm._table[2])]))
"""
        expected = [False, 12, 12, [["1/7", MAX_ORDER + 1]], MAX_ORDER + 1]
        assert run_fresh(fresh_python, script) == expected

    def test_at_most_the_cap_of_theta_tables_is_held(self, fresh_python):
        """Builds at cap + 3 distinct eps keep the cap tables grown last,
        newest last; a build that finds its rows leaves the order as it is,
        and one that grows a table makes it the newest.  An evicted eps is
        built anew, and its document is the cold one."""
        script = """
cap = hpm._THETA_TABLES
epsilons = [Fraction(1, k) for k in range(1, cap + 4)]
sizes = []
for eps in epsilons:
    document(hpm, 12, 5, eps)
    sizes.append(len(hpm._theta_tables))
held = list(hpm._theta_tables)
document(hpm, 12, 7, held[0])
after_warm = list(hpm._theta_tables)
document(hpm, 13, 5, held[0])
after_growth = list(hpm._theta_tables)
evicted = epsilons[0]
again = document(hpm, 12, Fraction(7, 2), evicted)
print(json.dumps([cap, sizes, held == epsilons[-cap:], after_warm == held,
                  after_growth == held[1:] + held[:1],
                  again == document(cold(), 12, Fraction(7, 2), evicted),
                  list(hpm._theta_tables) == after_growth[1:] + [evicted]]))
"""
        cap, sizes, *checks = run_fresh(fresh_python, script)
        assert 1 <= cap and sizes == [min(n, cap) for n in range(1, cap + 4)]
        assert checks == [True] * 5

    def test_a_caller_cannot_change_a_later_build(self, fresh_python):
        """``_unit_corrections`` returns the shared corrections themselves, as
        tuples: neither part, no correction and no slot can be assigned,
        appended to or deleted from, so a later build is the cold one."""
        script = """
eps = Fraction(7, 10)
f_list, theta_list = hpm._unit_corrections(12, eps)
immutable = type(f_list) is tuple and type(theta_list) is tuple and all(
    type(c) is tuple and all(type(slot) is tuple and len(slot) == 2
                             and all(type(x) is int for x in slot) for slot in c)
    for c in f_list + theta_list)

def assign(target):
    target[0] = target[-1]

def append(target):
    target[len(target):] = target[:1]

def delete(target):
    del target[0]

refused = 0
for change in (assign, append, delete):
    for target in (f_list, theta_list, f_list[3], theta_list[5][1]):
        try:
            change(target)
        except TypeError:
            refused += 1
print(json.dumps([immutable, refused,
                  document(hpm, 12, 5, eps) == document(cold(), 12, 5, eps),
                  hpm._unit_corrections(12, eps) == cold()._unit_corrections(12, eps)]))
"""
        assert run_fresh(fresh_python, script) == [True, 12, True, True]

    def test_a_build_at_a_known_epsilon_does_not_wait_for_another_to_grow(
            self, fresh_python):
        """Thread A's growth of a new eps is held inside ``_grown_theta``
        until released; meanwhile a build at a known eps whose table is not
        the newest must still finish, while A still holds ``_growing``, and
        both documents are the cold ones."""
        script = """
import threading
document(hpm, 12, 5, 1)
document(hpm, 12, 5, Fraction(1, 2))  # eps = 1 is now not the newest
entered, release = threading.Event(), threading.Event()
grown = hpm._grown_theta

def held_growth(*args):
    entered.set()
    release.wait(60)
    return grown(*args)

hpm._grown_theta = held_growth
documents = {}

def build(config):
    documents[config] = document(hpm, *config)

growing = threading.Thread(target=build, args=((12, 5, Fraction(1, 3)),))
known = threading.Thread(target=build, args=((12, 7, 1),))
growing.start()
held = entered.wait(60)
known.start()
known.join(timeout=30)
finished_while_held = not known.is_alive() and not release.is_set()
locked_when_finished = hpm._growing.locked()
release.set()
growing.join(timeout=60)
known.join(timeout=60)
serial = cold()
print(json.dumps([held, finished_while_held, growing.is_alive(), known.is_alive(),
                  [documents.get(c) == document(serial, *c)
                   for c in ((12, 5, Fraction(1, 3)), (12, 7, 1))],
                  [str(eps) for eps in hpm._theta_tables], locked_when_finished]))
"""
        expected = [True, True, False, False, [True, True], ["1", "1/2", "1/3"], True]
        assert run_fresh(fresh_python, script) == expected

    def test_threads_growing_one_new_epsilon_grow_it_once(self, fresh_python):
        """With the table of powers of z warm, four threads that build order
        60 at one new eps at once grow its theta table once, and each
        document is the cold one."""
        script = """
import threading
document(hpm, 60, 5, 1)
growths = []
grown = hpm._grown_theta

def counted_growth(*args):
    growths.append(args[2])
    return grown(*args)

hpm._grown_theta = counted_growth
config = (60, 5, Fraction(1, 7))
documents, barrier = [], threading.Barrier(4, timeout=60)

def build():
    barrier.wait()
    documents.append(document(hpm, *config))

threads = [threading.Thread(target=build) for _ in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=120)
expected = document(cold(), *config)
print(json.dumps([[str(eps) for eps in growths], len(documents),
                  all(built == expected for built in documents)]))
"""
        assert run_fresh(fresh_python, script) == [["1/7"], 4, True]

    def test_a_build_that_finds_its_rows_takes_no_lock(self, fresh_python):
        """While another thread holds ``_growing``, a build at a known eps
        whose table is not the newest, and whose rows are all there, still
        finishes, and its document is the cold one."""
        script = """
import threading
document(hpm, 12, 5, 1)
document(hpm, 12, 5, Fraction(1, 2))  # eps = 1 is now not the newest
expected = document(cold(), 12, 7, 1)
documents = {}
known = threading.Thread(target=lambda: documents.update(built=document(hpm, 12, 7, 1)))
with hpm._growing:
    known.start()
    known.join(timeout=30)
    finished_while_held = not known.is_alive()
known.join(timeout=60)
print(json.dumps([finished_while_held, documents.get("built") == expected]))
"""
        assert run_fresh(fresh_python, script) == [True, True]


@pytest.mark.parametrize("L", [Fraction(5), Fraction(10), Fraction(7, 2)])
class TestExactBoundaryIdentities:
    """Per-order conditions at 0 and L hold with exact rational equality."""

    def test_per_order_conditions(self, L):
        series = build_series(HpmConfig(order=6, L=L))
        for j in range(7):
            delta = Fraction(1) if j == 0 else Fraction(0)
            f_j = series.f_corrections[j]
            theta_j = series.theta_corrections[j]
            assert f_j.eval_exact(0) == 0
            assert f_j.derivative().eval_exact(0) == 0
            assert f_j.derivative().eval_exact(L) == delta
            assert theta_j.eval_exact(0) == delta
            assert theta_j.eval_exact(L) == 0

    def test_partial_sum_conditions(self, L):
        series = build_series(HpmConfig(order=6, L=L))
        for up_to in range(7):
            f_sum = series.partial_sum("f", up_to)
            theta_sum = series.partial_sum("theta", up_to)
            assert f_sum.eval_exact(0) == 0
            assert f_sum.derivative().eval_exact(0) == 0
            assert f_sum.derivative().eval_exact(L) == 1
            assert theta_sum.eval_exact(0) == 1
            assert theta_sum.eval_exact(L) == 0


class TestResidualIdentities:
    """The order-j balance holds as a polynomial identity, not a tolerance."""

    @pytest.mark.parametrize("eps", [Fraction(1), Fraction(3, 2)])
    def test_orders_one_through_six(self, eps):
        series = build_series(HpmConfig(order=6, epsilon=eps))
        f = series.f_corrections
        theta = series.theta_corrections
        half = Fraction(1, 2)
        for j in range(1, 7):
            f_residual = f[j].derivative(3)
            theta_residual = theta[j].derivative(2) * eps
            for k in range(j):
                f_residual = f_residual + f[k] * f[j - 1 - k].derivative(2) * half
                theta_residual = theta_residual + f[k] * theta[j - 1 - k].derivative() * half
            assert not f_residual, f"momentum residual at order {j}"
            assert not theta_residual, f"temperature residual at order {j}"

    def test_order_zero_annihilated_by_linear_operator(self, series_order3):
        assert not series_order3.f_corrections[0].derivative(3)
        assert not series_order3.theta_corrections[0].derivative(2)


class TestStructuralLaws:
    def test_degree_law(self, series_order6):
        for j, f_j in enumerate(series_order6.f_corrections):
            assert max(dict(f_j.terms())) == 3 * j + 2

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
    def test_far_field_condition_unreachable(self, order):
        # a non-constant polynomial derivative cannot tend to 1 at infinity
        series = build_series(HpmConfig(order=order))
        assert max(dict(series.partial_sum("f").derivative().terms())) >= 1

    def test_theta_first_order_scales_inversely_with_epsilon(self):
        base = build_series(HpmConfig(order=1, epsilon=Fraction(1)))
        for eps in (Fraction(2), Fraction(7, 3), Fraction(1, 4)):
            scaled = build_series(HpmConfig(order=1, epsilon=eps))
            assert scaled.theta_corrections[1] == base.theta_corrections[1] * (1 / eps)


    @pytest.mark.parametrize(
        "L", [Fraction(5), Fraction(10), Fraction(7, 2), Fraction(1, 3), Fraction(10**12)]
    )
    def test_theta_is_minus_f_slope_at_unit_epsilon(self, L):
        # at eps = 1 both recurrences and their conditions at 0 and L coincide
        # after theta_j = -f_j'; theta_0 = 1 - f_0' differs by the constant 1
        series = build_series(HpmConfig(order=25, L=L))
        for j in range(1, 26):
            f_slope = series.f_corrections[j].derivative()
            assert series.theta_corrections[j] == f_slope * -1, j

    @pytest.mark.parametrize("L", [Fraction(5), Fraction(10), Fraction(7, 2)])
    @pytest.mark.parametrize("eps", [Fraction(1), Fraction(7, 10)])
    def test_dense_support(self, L, eps):
        # the engine stores f_j on the powers 3m+2 and theta_j on 3m+1, m <= j;
        # every one of these j+1 coefficients is nonzero
        f, theta = corrections(12, L=L, epsilon=eps)
        for j in range(1, 13):
            for poly, offset in ((f[j], 2), (theta[j], 1)):
                powers = [p for p, _ in poly.terms()]
                assert powers == [3 * m + offset for m in range(j + 1)], (j, offset)


_SMALL_RATIONALS = st.fractions(min_value=Fraction(1, 4), max_value=8, max_denominator=7)


class TestScalingLaw:
    """f_j(eta) = L^(2j+1) f_j^(L=1)(eta/L) and theta_j(eta) = L^(2j)
    theta_j^(L=1)(eta/L) at the same epsilon: the coefficient of eta^p scales
    by L^(2j+1-p) and L^(2j-p)."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        L=_SMALL_RATIONALS,
        eps=_SMALL_RATIONALS,
        order=st.integers(min_value=0, max_value=8),
    )
    def test_coefficients_scale_with_domain_length(self, L, eps, order):
        f, theta = corrections(order, L=L, epsilon=eps)
        f1, theta1 = corrections(order, L=Fraction(1), epsilon=eps)
        for j in range(order + 1):
            assert f[j] == RationalPolynomial(
                {p: c * L ** (2 * j + 1 - p) for p, c in f1[j].terms()}
            ), j
            assert theta[j] == RationalPolynomial(
                {p: c * L ** (2 * j - p) for p, c in theta1[j].terms()}
            ), j


class TestTruncatedDomainOracle:
    """The series fits its far condition at eta = L, so as the order grows its
    wall slope converges to the boundary-value problem solved numerically on
    [0, L], not to the Blasius value on [0, infinity)."""

    @staticmethod
    def wall_slope_gaps(L):
        series = build_series(HpmConfig(order=25, L=L))
        oracle = solve_shooting(IntegratorSettings(eta_max=float(L))).s_star
        slopes = {o: float(2 * series.partial_sum("f", up_to=o).coefficient(2)) for o in (12, 25)}
        return {o: abs(s - oracle) for o, s in slopes.items()}, slopes

    def test_short_domain_converges_to_the_truncated_problem(self):
        gaps, _ = self.wall_slope_gaps(Fraction(7, 2))
        assert gaps[12] < 1e-6  # measured 8.2e-8
        assert gaps[25] < 1e-10  # measured 5.3e-13

    def test_paper_domain_approaches_the_truncated_problem_not_blasius(self):
        gaps, slopes = self.wall_slope_gaps(Fraction(5))
        assert gaps[25] < gaps[12]  # measured 3.2e-5 and 6.7e-4
        for order, slope in slopes.items():
            assert abs(slope - BOYD_SLOPE) > 2e-3, order  # measured 3.4e-3 and 4.1e-3

    @staticmethod
    def wall_flux(eta_max, epsilon, step):
        """-theta'(0) of the truncated problem, 1 / int_0^L exp(-int_0^eta f / (2 eps)),
        on one RK4 trajectory: the inner integral by the trapezoid rule with
        its end correction -h^2/12 (f'(b) - f'(a)), the outer by Simpson's
        rule, so the error is O(step^4) like the trajectory's."""
        t = solve_shooting(IntegratorSettings(eta_max=eta_max, step=step)).trajectory
        h, n = t.eta[1] - t.eta[0], len(t.eta) - 1
        assert n % 2 == 0 and t.eta[n] == pytest.approx(eta_max)
        inner, g = 0.0, [1.0]
        for i in range(n):
            inner += h / 2 * (t.f[i] + t.f[i + 1]) - h * h / 12 * (t.fp[i + 1] - t.fp[i])
            g.append(math.exp(-inner / (2 * epsilon)))
        return 3 / (h * (g[0] + g[n] + 4 * sum(g[1:n:2]) + 2 * sum(g[2:n:2])))

    @pytest.mark.parametrize("eps", [Fraction(1), Fraction(7, 10), Fraction(1, 2)])
    def test_short_domain_heat_flux_converges_to_the_truncated_problem(self, eps):
        """The theta series meets a quadrature that shares no code with it.
        Measured gaps at eps = 1, 7/10, 1/2: 8.2e-8, 1.3e-7 and 6.9e-7 at
        order 12, 5.3e-13, 8.0e-14 and 1.8e-12 at order 25, while the two
        steps' quadratures differ by at most 1.1e-15.  Each bound is ten
        times the largest gap of its order."""
        L = Fraction(7, 2)
        series = build_series(HpmConfig(order=25, L=L, epsilon=eps))
        coarse, fine = (self.wall_flux(float(L), float(eps), h) for h in (1e-3, 5e-4))
        oracle = (16 * fine - coarse) / 15
        gaps = {o: abs(-float(series.partial_sum("theta", up_to=o).coefficient(1)) - oracle)
                for o in (12, 25)}
        assert gaps[12] < 7e-6
        assert gaps[25] < 2e-11
        assert gaps[25] < gaps[12]

    # The paper's claim, measured: the series solves the problem truncated
    # at L, and its partial sums converge only inside the radius L_c = 5.3536
    # of the fold (ROADMAP item 1).  Each bound comes from a sweep recorded
    # in CHANGES.md.

    @staticmethod
    def wall_slopes(series, orders):
        """{N: f''(0) of the order-N partial sum} as floats."""
        return {n: float(2 * series.partial_sum("f", up_to=n).coefficient(2)) for n in orders}

    @staticmethod
    def wall_fluxes(series, orders):
        """{N: -theta'(0) of the order-N partial sum} as floats."""
        return {n: -float(series.partial_sum("theta", up_to=n).coefficient(1)) for n in orders}

    def test_inside_the_radius_the_series_is_the_truncated_problem(self):
        """Measured 1.7e-16 at orders 30, 45 and 60."""
        slopes = self.wall_slopes(build_series(HpmConfig(order=60, L=Fraction(3))), (30, 60))
        oracle = solve_shooting(IntegratorSettings(eta_max=3.0)).s_star
        for order, slope in slopes.items():
            assert abs(slope - oracle) < 1e-13, order

    @pytest.mark.parametrize("L, last_gap", [(6, 100.0), (10, 1e28)])
    def test_beyond_the_radius_the_partial_sums_diverge(self, L, last_gap):
        """Measured |s_N(L) - s(L)| at N = 20, 30, 40, 50 and 60: 9.2e-2,
        0.88, 4.97, 12.0 and 128 at L = 6; 7.2e7, 1.1e13, 8.4e17, 1.1e23 and
        6.6e28 at L = 10."""
        orders = (20, 30, 40, 50, 60)
        slopes = self.wall_slopes(build_series(HpmConfig(order=60, L=Fraction(L))), orders)
        oracle = solve_shooting(IntegratorSettings(eta_max=float(L))).s_star
        gaps = [abs(slopes[n] - oracle) for n in orders]
        assert gaps == sorted(gaps) and gaps[-1] > last_gap, gaps

    def test_the_order_error_at_the_papers_domain_turns_every_three_orders(self):
        """arg lambda* = 58.2 degrees, so the sign of s_N(5) - s(5) turns
        every three orders."""
        slopes = self.wall_slopes(build_series(HpmConfig(order=13)), range(1, 14))
        oracle = solve_shooting(IntegratorSettings(eta_max=5.0)).s_star
        signs = "".join("+" if slopes[n] > oracle else "-" for n in range(1, 14))
        assert signs == "-+++---+++---"

    def test_error_budget_of_the_papers_wall_slope(self):
        """At L = 5 and order 3 the gap to s(inf), Boyd's f''(0), splits into
        the order truncation s_3(5) - s(5), measured 0.0123536, and the
        domain truncation s(5) - s(inf), measured 0.0040950.  Measured
        s(5) = 0.336152343904533, with steps 1e-3 and 5e-4 2.8e-15 apart."""
        paper = self.wall_slopes(build_series(HpmConfig(order=3)), (3,))[3]
        coarse, fine = (solve_shooting(IntegratorSettings(eta_max=5.0, step=h)).s_star
                        for h in (1e-3, 5e-4))
        assert abs(coarse - fine) < 3e-14
        assert fine == pytest.approx(0.336152343904533, abs=1e-14)
        assert paper - fine == pytest.approx(0.0123536, abs=1e-7)
        assert fine - BOYD_SLOPE == pytest.approx(0.0040950, abs=1e-7)

    def test_the_papers_heat_flux_has_the_wrong_sign(self):
        """Pr = 7 (eps = 1/7) at L = 5: the paper's order-3 series gives
        -theta'(0) = -1.39627, so heat flows into the wall, where the
        truncated problem gives +0.648566.  L_c is about 3.16 here, so the
        partial sums diverge: measured -1254.99, -5.633e9 and 6.750e22 at
        orders 10, 30 and 60."""
        series = build_series(HpmConfig(order=60, epsilon=Fraction(1, 7)))
        flux = self.wall_fluxes(series, (3, 10, 30, 60))
        assert self.wall_flux(5.0, 1 / 7, 1e-3) == pytest.approx(0.648566, abs=1e-6)
        assert flux[3] == pytest.approx(-1.39627, abs=1e-5)
        assert flux[10] == pytest.approx(-1254.99, rel=1e-4)
        assert flux[30] == pytest.approx(-5.633e9, rel=1e-3)
        assert flux[60] == pytest.approx(6.750e22, rel=1e-3)

    def test_at_prandtl_2_the_heat_flux_converges_to_the_truncated_problem(self):
        """Pr = 2 (eps = 1/2) at L = 5, inside L_c: measured gaps 2.7e-3,
        1.4e-5 and 8.9e-8 at orders 10, 30 and 60 to the truncated
        problem's 0.4241449; the order-60 sum is 0.424145."""
        series = build_series(HpmConfig(order=60, epsilon=Fraction(1, 2)))
        flux = self.wall_fluxes(series, (10, 30, 60))
        coarse, fine = (self.wall_flux(5.0, 0.5, h) for h in (1e-3, 5e-4))
        oracle = (16 * fine - coarse) / 15
        assert oracle == pytest.approx(0.4241449, abs=1e-7)
        gaps = [abs(flux[n] - oracle) for n in (10, 30, 60)]
        assert gaps == sorted(gaps, reverse=True) and gaps[-1] < 1e-6, gaps


class TestSeriesDocument:
    def test_round_trip_is_bit_exact(self, series_order3):
        doc = series_to_document(series_order3)
        back = series_from_document(doc)
        assert back.config == series_order3.config
        assert back.f_corrections == series_order3.f_corrections
        assert back.theta_corrections == series_order3.theta_corrections

    def test_document_shape(self, series_order3):
        doc = series_to_document(series_order3)
        assert doc["order"] == 3
        assert doc["L"] == {"num": "5", "den": "1"}
        assert doc["epsilon"] == {"num": "1", "den": "1"}
        assert len(doc["f"]) == 4 and len(doc["theta"]) == 4
        leading = doc["f"][0][0]
        assert leading == {"power": 2, "num": "1", "den": "10"}

    def test_json_round_trip_through_text(self, tmp_path, series_order3):
        text = json.dumps(series_to_document(series_order3))
        back = series_from_document(json.loads(text))
        assert back.partial_sum("f") == TARGET_SUM

    @settings(max_examples=40, deadline=None)
    @given(order=st.integers(0, 8), L=POSITIVE_RATIONALS, epsilon=POSITIVE_RATIONALS)
    def test_round_trip_through_json_text_at_any_config(self, order, L, epsilon):
        series = build_series(HpmConfig(order, L, epsilon))
        text = json.dumps(series_to_document(series))
        back = series_from_document(json.loads(text))
        assert back == series
        assert json.dumps(series_to_document(back)) == text

    def test_writes_each_rational_as_decimal_strings(self):
        """L, epsilon and every coefficient are written as the decimal strings
        of numerator and denominator, terms ascending by power."""
        theta = RationalPolynomial({0: 1, 1: Fraction(-2, 11)})
        series = HpmSeries((TARGET_SUM,), (theta,), HpmConfig(0, "11/2", "7/10"))
        doc = series_to_document(series)
        assert doc["L"] == {"num": "11", "den": "2"}
        assert doc["epsilon"] == {"num": "7", "den": "10"}
        assert [term["power"] for term in doc["f"][0]] == [2, 5, 8, 11]
        assert doc["f"][0][:2] == [{"power": 2, "num": "1348969", "den": "7741440"},
                                   {"power": 5, "num": "-4867", "den": "10752000"}]
        assert series_from_document(doc) == series

    @pytest.mark.parametrize("order, value",
                             [(3, 3.9), (3, 3.0), (1, True), (3, "3"), (3, "\u0663")])
    def test_rejects_an_order_that_is_not_an_integer(self, order, value):
        """int() would read 3.9 as 3, True as 1 and the Arabic-Indic digit
        three as 3, and load the document."""
        doc = series_to_document(build_series(HpmConfig(order=order)))
        doc["order"] = value
        with rejected_at("order"):
            series_from_document(doc)

    @pytest.mark.parametrize("value", [True, 1.0, 1.5, "1_1", "2", 2.0, 2.5])
    def test_rejects_a_power_that_is_not_an_integer(self, series_order3, value):
        """int() would read True as 1 and 2.5 as 2."""
        doc = series_to_document(series_order3)
        assert doc["theta"][0][1]["power"] == 1  # theta_0 = 1 - eta/5
        doc["theta"][0][1]["power"] = value
        with rejected_at("theta[0]"):
            series_from_document(doc)

    @pytest.mark.parametrize("value", ["1_0", " 3 ", "\u0663", "+3", "007", 5])
    @pytest.mark.parametrize("key", ["num", "den"])
    @pytest.mark.parametrize("where", ["L", "epsilon", "term"])
    def test_rejects_a_misspelled_rational(self, series_order3, where, key, value):
        """int() reads every one of these values; the writer writes none of them."""
        doc = series_to_document(series_order3)
        rational = doc["f"][1][0] if where == "term" else doc[where]
        rational[key] = value
        with rejected_at("f[1]" if where == "term" else where):
            series_from_document(doc)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("key", ["num", "den"])
    @pytest.mark.parametrize("where", ["L", "term"])
    def test_rejects_a_number_that_is_not_finite(self, series_order3, where, key, value):
        """json.loads reads Infinity and NaN, and int() of an infinite float
        raises OverflowError, not ValueError."""
        doc = series_to_document(series_order3)
        rational = doc["f"][1][0] if where == "term" else doc[where]
        rational[key] = value
        text = json.dumps(doc)  # Infinity, -Infinity or NaN
        with rejected_at("f[1]" if where == "term" else where):
            series_from_document(json.loads(text))

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("where", ["L", "term"])
    def test_rejects_a_denominator_that_is_not_positive(self, series_order3, where, value):
        """Fraction() would move the sign of "-3" to the numerator."""
        doc = series_to_document(series_order3)
        rational = doc["f"][1][0] if where == "term" else doc[where]
        rational["den"] = value
        with rejected_at("f[1]" if where == "term" else where):
            series_from_document(doc)

    def test_rejects_a_repeated_power(self, series_order3):
        """RationalPolynomial would keep the last of two terms of one power
        and load the document."""
        doc = series_to_document(series_order3)
        doc["f"][1].append({**doc["f"][1][0], "num": "7"})
        with rejected_at("f[1]"):
            series_from_document(doc)

    @pytest.mark.parametrize("where", ["L", "epsilon", "term"])
    def test_rejects_a_rational_not_in_lowest_terms(self, series_order3, where):
        """Fraction() would reduce L = 10/2 to 5 and load the document."""
        doc = series_to_document(series_order3)
        rational = doc["f"][1][0] if where == "term" else doc[where]
        rational["num"] = str(2 * int(rational["num"]))
        rational["den"] = str(2 * int(rational["den"]))
        with rejected_at("f[1]" if where == "term" else where):
            series_from_document(doc)

    @pytest.mark.parametrize("den", ["1", "7"])
    def test_rejects_a_zero_coefficient(self, series_order3, den):
        """RationalPolynomial would drop the term and load the document."""
        doc = series_to_document(series_order3)
        doc["f"][1].append({"power": 40, "num": "0", "den": den})
        with rejected_at("f[1]"):
            series_from_document(doc)

    @pytest.mark.parametrize("component", ["f", "theta"])
    def test_rejects_powers_that_do_not_ascend(self, series_order3, component):
        doc = series_to_document(series_order3)
        terms = doc[component][1]
        assert len(terms) > 1
        terms.reverse()
        with rejected_at(f"{component}[1]"):
            series_from_document(doc)

    def test_rejects_wrong_list_length(self, series_order3):
        """The writer writes whatever lists it is given, so the reader reads
        corrections 0..order: a short list fails at the first one missing,
        a long one at the list."""
        doc = series_to_document(series_order3)
        doc["order"] = 2
        with rejected_at("f"):
            series_from_document(doc)
        doc["order"] = 4
        with rejected_at("f[4]"):
            series_from_document(doc)

    @pytest.mark.parametrize("where", ["top level", "L", "term"])
    def test_rejects_a_field_the_writer_does_not_write(self, series_order3, where):
        """Every field the writer writes is as it writes it; an extra one
        would load, and one series would have many documents."""
        doc = series_to_document(series_order3)
        {"top level": doc, "L": doc["L"], "term": doc["theta"][2][1]}[where]["note"] = "x"
        with rejected_at({"top level": "note", "L": "L", "term": "theta[2]"}[where]):
            series_from_document(doc)

    @pytest.mark.parametrize("damage", ["empty", "no theta", "f is an int"])
    def test_rejects_a_document_with_a_missing_or_bad_field(self, series_order3, damage):
        doc = series_to_document(series_order3)
        if damage == "empty":
            doc = {}
        elif damage == "no theta":
            del doc["theta"]
        else:
            doc["f"] = 3
        with rejected_at({"empty": "order", "no theta": "theta[0]", "f is an int": "f[0]"}[damage]):
            series_from_document(doc)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(order=st.integers(0, 3), L=POSITIVE_RATIONALS, data=st.data())
    def test_reads_only_what_the_writer_writes_back(self, order, L, data):
        """Damage one part of a written document: the reader either rejects
        it with a ValueError or returns a series whose document is the
        damaged one, so no two documents read as one series."""
        doc = series_to_document(build_series(HpmConfig(order, L, Fraction(7, 10))))
        term_lists = [terms for key in ("f", "theta") for terms in doc[key]]
        terms = [term for terms in term_lists for term in terms]
        damage = data.draw(st.sampled_from(["value", "delete", "add", "reverse", "repeat"]))
        if damage in ("reverse", "repeat"):
            chosen = data.draw(st.sampled_from(term_lists))
            if damage == "repeat":
                chosen.extend(chosen[:1])
            else:
                chosen.reverse()
        else:
            containers = [doc, doc["L"], doc["epsilon"], *terms]
            container = data.draw(st.sampled_from(containers))
            key = data.draw(st.sampled_from([*container, "note"] if damage == "add" else [*container]))
            if damage == "delete":
                del container[key]
            else:
                container[key] = data.draw(DAMAGED_VALUES)
        try:
            series = series_from_document(doc)
        except ValueError:
            return
        assert series_to_document(series) == doc
