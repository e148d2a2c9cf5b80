"""Exact rational and polynomial algebra: frozen examples plus ring properties."""

import copy
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatplate.exact import RationalPolynomial, as_rational
from flatplate.hpm import (
    HpmConfig,
    HpmSeries,
    build_series,
    series_from_document,
    series_to_document,
)
from flatplate.report import Grid

# The canonical third-order partial sum; used here purely as an algebra workout.
TARGET_POLY = RationalPolynomial(
    {
        2: Fraction(1348969, 7741440),
        5: Fraction(-4867, 10752000),
        8: Fraction(451, 322560000),
        11: Fraction(-1, 532224000),
    }
)


def polynomial_document(poly: RationalPolynomial) -> dict:
    """The series document of an order-0 series whose f and theta are ``poly``:
    the only place a polynomial is written to, and read from, JSON."""
    return series_to_document(HpmSeries((poly,), (poly,), HpmConfig(0)))


class TestRational:
    def test_add(self):
        assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)

    def test_sub_large_denominators(self):
        # hand value via common denominator 5040000
        assert Fraction(625, 1152) - Fraction(859375, 2520000) == Fraction(1625, 8064)

    def test_mul_by_zero_is_canonical(self):
        r = Fraction(3, 4) * Fraction(0)
        assert r.numerator == 0 and r.denominator == 1

    def test_canonical_form(self):
        r = Fraction(6, -4)
        assert r == Fraction(-3, 2)
        assert r.denominator == 2 > 0

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1, 2) / Fraction(0)

    @pytest.mark.parametrize(
        "text,expected",
        [("5", Fraction(5)), ("11/2", Fraction(11, 2)), ("-4867/10752000", Fraction(-4867, 10752000)), ("2.5", Fraction(5, 2))],
    )
    def test_parse_literals(self, text, expected):
        assert as_rational(text) == expected

    @pytest.mark.parametrize("bad", ["abc", "1/0", "1//2", ""])
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            as_rational(bad)

    def test_parse_error_names_flag(self):
        with pytest.raises(ValueError, match="--domain-length"):
            as_rational("x", flag="--domain-length")

    @pytest.mark.parametrize("flag", ["L", "epsilon"])
    @pytest.mark.parametrize("value", [True, False])
    def test_rejects_a_bool(self, value, flag):
        """isinstance(True, int) holds, but a flag is not the number 1."""
        with pytest.raises(ValueError, match=f"^cannot interpret {value} for {flag} as a rational"):
            as_rational(value, flag=flag)

    def test_polynomial_rejects_a_bool_coefficient(self):
        with pytest.raises(ValueError, match="^cannot interpret True as a rational"):
            RationalPolynomial({2: True})

    def test_serialization_uses_strings(self):
        doc = polynomial_document(RationalPolynomial({5: Fraction(-4867, 10752000)}))
        assert doc["f"][0] == [{"power": 5, "num": "-4867", "den": "10752000"}]
        read = series_from_document(doc).f_corrections[0]
        assert read.coefficient(5) == Fraction(-4867, 10752000)


class TestPolynomialBasics:
    def test_monomial_product(self):
        eta2 = RationalPolynomial({2: 1})
        eta3 = RationalPolynomial({3: 1})
        assert eta2 * eta3 == RationalPolynomial({5: 1})

    def test_product_from_the_order2_convolution(self):
        left = RationalPolynomial({2: Fraction(1, 10)})
        right = RationalPolynomial({3: Fraction(-1, 300), 0: Fraction(5, 48)})
        expected = RationalPolynomial({5: Fraction(-1, 3000), 2: Fraction(1, 96)})
        assert left * right == expected

    def test_cancellation_destores_zeros(self):
        p = RationalPolynomial({2: Fraction(1, 10), 5: Fraction(-3)})
        result = p + p * -1
        assert not result
        assert list(result.terms()) == []

    def test_rejects_negative_powers(self):
        with pytest.raises(ValueError):
            RationalPolynomial({-1: 1})

    def test_rejects_bool_powers(self):
        """isinstance(True, int) holds, but a series document that wrote
        "power": true would not load."""
        with pytest.raises(ValueError, match="power must be a non-negative integer, got True"):
            RationalPolynomial({True: 1})

    def test_constructor_drops_zeros(self):
        p = RationalPolynomial({2: Fraction(0), 5: "0/7", 0: 3})
        assert list(p.terms()) == [(0, Fraction(3))]

    def test_derivative(self):
        assert RationalPolynomial({2: 1}).derivative() == RationalPolynomial({1: 2})
        assert not RationalPolynomial({0: Fraction(5, 48)}).derivative()

    def test_second_derivative_of_target_at_origin(self):
        value = TARGET_POLY.derivative(2).eval_exact(0)
        assert value == Fraction(1348969, 3870720)

    def test_antiderivative(self):
        eta2 = RationalPolynomial({2: 1})
        assert eta2.antiderivative() == RationalPolynomial({3: Fraction(1, 3)})
        assert not RationalPolynomial().antiderivative()

    def test_triple_antiderivative(self):
        p = RationalPolynomial({2: Fraction(-1, 100)})
        assert p.antiderivative(3) == RationalPolynomial({5: Fraction(-1, 6000)})

    def test_eval_at_zero_gives_constant_coefficient(self):
        p = RationalPolynomial({0: Fraction(7, 3), 4: Fraction(-2, 9)})
        assert p.eval_exact(0) == Fraction(7, 3)

    def test_zero_polynomial_evaluates_to_a_typed_zero(self):
        zero = RationalPolynomial()
        assert zero.eval_exact(3) == 0 and isinstance(zero.eval_exact(3), Fraction)
        assert zero.eval_float(3.0) == 0.0 and isinstance(zero.eval_float(3.0), float)

    def test_target_derivative_at_5_is_exactly_one(self):
        assert TARGET_POLY.derivative().eval_exact(5) == 1

    def test_target_derivative_at_10_float(self):
        assert TARGET_POLY.derivative().eval_float(10.0) == pytest.approx(-113.9727, abs=1e-4)

    def test_eval_float_tracks_exact(self):
        p = RationalPolynomial({0: Fraction(1, 3), 2: Fraction(-5, 7), 6: Fraction(2, 11)})
        x = Fraction(7, 4)
        assert p.eval_float(float(x)) == pytest.approx(float(p.eval_exact(x)), rel=1e-12)

    def test_str_formatting(self):
        assert str(RationalPolynomial({2: Fraction(1, 10)})) == "(1/10)*eta^2"
        assert str(RationalPolynomial({0: 1, 1: Fraction(-1, 5)})) == "1 - (1/5)*eta"
        assert str(RationalPolynomial({0: 1, 1: -1})) == "1 - eta"
        assert str(RationalPolynomial({3: 1})) == "eta^3"
        assert str(RationalPolynomial()) == "0"

    def test_obj_round_trip(self):
        doc = polynomial_document(TARGET_POLY)
        obj = doc["f"][0]
        assert [entry["power"] for entry in obj] == [2, 5, 8, 11]
        assert obj[0] == {"power": 2, "num": "1348969", "den": "7741440"}
        assert series_from_document(doc).f_corrections == (TARGET_POLY,)

    @pytest.mark.parametrize("powers", [[True], [2, 2]], ids=["bool", "repeated"])
    def test_from_obj_reads_powers_strictly(self, powers):
        """A power is a JSON integer: int() would read True as 1, and a
        repeated power would overwrite a term.  The reader names the
        correction at fault."""
        doc = polynomial_document(RationalPolynomial())
        doc["f"][0] = [{"power": p, "num": str(n), "den": "1"} for n, p in enumerate(powers, 1)]
        with pytest.raises(ValueError, match=r"^series document rejected at f\[0\]: "):
            series_from_document(doc)


# random sparse polynomials: powers 0..8, modest rational coefficients
coefficients = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=30
)
polynomials = st.dictionaries(st.integers(0, 8), coefficients, max_size=6).map(
    RationalPolynomial
)
rationals = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=24
)


class TestPolynomialProperties:
    @given(polynomials, polynomials)
    def test_results_are_canonical(self, p, q):
        for result in (p + q, p + q * -1, p * q, p.derivative(), p.derivative(2)):
            for power, coeff in result.terms():
                assert coeff != 0
                assert coeff.denominator > 0
                assert coeff.as_integer_ratio() == Fraction(*coeff.as_integer_ratio()).as_integer_ratio()

    @given(polynomials, polynomials, polynomials)
    @settings(max_examples=60)
    def test_distributive_law(self, p, q, r):
        assert (p + q) * r == p * r + q * r

    @given(polynomials, polynomials)
    def test_additive_inverse(self, p, q):
        assert (p + q * -1) + q == p

    # eval_exact is a Fraction Horner that shares no code with the sum of + and *
    @given(polynomials, polynomials, rationals)
    def test_sum_evaluates_to_the_sum_of_values(self, p, q, x):
        assert (p + q).eval_exact(x) == p.eval_exact(x) + q.eval_exact(x)

    @given(polynomials, polynomials, rationals)
    def test_product_evaluates_to_the_product_of_values(self, p, q, x):
        assert (p * q).eval_exact(x) == p.eval_exact(x) * q.eval_exact(x)

    @given(polynomials)
    def test_derivative_inverts_antiderivative(self, p):
        assert p.antiderivative().derivative() == p

    @given(polynomials, rationals)
    def test_horner_matches_power_sum(self, p, x):
        naive = sum((c * x**k for k, c in p.terms()), start=Fraction(0))
        assert p.eval_exact(x) == naive

    @given(polynomials, rationals)
    def test_scaling_commutes_with_evaluation(self, p, s):
        assert (p * s).eval_exact(2) == s * p.eval_exact(2)


def reference_eval_float(poly: RationalPolynomial, x: float) -> float:
    """The per-call float evaluation that eval_float's cached table replaced:
    sort the terms and round every coefficient on every call, then the same
    sparse Horner.  Independent of eval_float, so the tests compare against it."""
    terms = sorted(poly.terms(), reverse=True)
    last, acc = terms[0] if terms else (0, 0)
    acc = float(acc)
    for power, coeff in terms[1:]:
        acc = acc * x ** (last - power) + float(coeff)
        last = power
    return acc * x**last


def reference_path(poly: RationalPolynomial, points) -> np.ndarray:
    """The reference at every point, as a float64 array."""
    return np.array([reference_eval_float(poly, float(x)) for x in points], dtype=np.float64)


def scalar_sweep(poly: RationalPolynomial, points) -> np.ndarray:
    """One scalar eval_float per point."""
    return np.array([poly.eval_float(x) for x in points], dtype=np.float64)


def fresh(poly: RationalPolynomial) -> RationalPolynomial:
    """An equal polynomial whose float table has not been built yet."""
    return RationalPolynomial(dict(poly.terms()))


@pytest.fixture(scope="module")
def series_order25():
    return build_series(HpmConfig(order=25))


class TestArrayEvalFloat:
    """Scalar and array eval_float must give the reference's bits at every
    point, on the call that builds the float table (cold) and on the calls
    that reuse it (warm); ``tobytes`` makes -0.0 and nan count."""

    @pytest.mark.parametrize("grid", [Grid(0.0, 12.0, 0.001), Grid(-3.0, 5.0, 0.25)],
                             ids=["0:12:0.001", "-3:5:0.25"])
    @pytest.mark.parametrize("which", ["f", "theta"])
    @pytest.mark.parametrize("order", range(26))
    def test_partial_sums_bit_equal_to_scalar_path(self, series_order25, grid, which, order):
        poly = series_order25.partial_sum(which, order)
        if which == "f":
            poly = poly.derivative()  # the f' profile that compare plots
        eta = grid.points()
        points = eta.tolist()
        expected = reference_path(poly, points).tobytes()
        scalar_first, array_first = fresh(poly), fresh(poly)
        assert scalar_sweep(scalar_first, points).tobytes() == expected
        assert scalar_first.eval_float(eta).tobytes() == expected
        assert array_first.eval_float(eta).tobytes() == expected
        assert scalar_sweep(array_first, points).tobytes() == expected

    @pytest.mark.parametrize("poly", [RationalPolynomial(),
                                      RationalPolynomial({3: Fraction(-2, 7)})],
                             ids=["zero", "monomial"])
    def test_result_is_a_float64_array_of_the_input_shape(self, poly):
        eta = np.linspace(-2.0, 2.0, 7)
        out = fresh(poly).eval_float(eta)
        assert isinstance(out, np.ndarray)
        assert out.dtype == np.float64 and out.shape == eta.shape
        assert out.tobytes() == reference_path(poly, eta.tolist()).tobytes()

    @pytest.mark.parametrize("x", [2.5, 2, Fraction(5, 2), np.float64(2.5)])
    def test_scalar_input_still_returns_a_python_float(self, x):
        assert type(TARGET_POLY.eval_float(x)) is float

    def test_overflow_raises_as_in_the_scalar_path(self):
        # each path names the degree and the largest |eta|, nan left out
        named = r"^eta\^11 overflows at \|eta\| up to 1e\+300$"
        for poly in (fresh(TARGET_POLY), TARGET_POLY):  # cold, then warm
            with pytest.raises(OverflowError, match=named):
                poly.eval_float(-1e300)
            with pytest.raises(OverflowError, match=named):
                poly.eval_float([0.0, math.nan, 1e300, 1.0])
            with pytest.raises(OverflowError, match=named):
                poly.eval_float(np.array([0.0, math.nan, 1.0, 1e300]))

    @given(polynomials, st.lists(st.floats(width=64), max_size=12))
    def test_any_polynomial_and_points(self, p, xs):
        # powers 0..8 with arbitrary gaps, and any floats: inf, nan, -0.0, overflow
        points = np.array(xs, dtype=np.float64)
        scalar_first, array_first = fresh(p), fresh(p)
        try:
            expected = reference_path(p, xs).tobytes()
        except OverflowError:
            for poly in (array_first, array_first, scalar_first):  # cold, warm, cold
                with pytest.raises(OverflowError):
                    poly.eval_float(points)
            with pytest.raises(OverflowError):
                scalar_sweep(scalar_first, xs)
            return
        assert scalar_sweep(scalar_first, xs).tobytes() == expected
        assert scalar_first.eval_float(points).tobytes() == expected
        assert array_first.eval_float(points).tobytes() == expected
        assert scalar_sweep(array_first, xs).tobytes() == expected


class TestHornerPlan:
    """The float plan groups the terms into runs that share one gap.  Where
    the gap changes, every path must still give the naive Horner's bits."""

    # powers 7, 6, 3, 2, 0: gaps 1, 3, 1, 2
    GAPS = RationalPolynomial({7: Fraction(-3, 7), 6: Fraction(11, 13), 3: Fraction(5),
                               2: Fraction(-1, 1000003), 0: Fraction(2, 3)})
    POINTS = [-2.5, -1.0, -0.0, 0.0, 0.3, 1.7, 5.0, 12.0, float("nan"), float("inf"),
              float("-inf")]

    @classmethod
    def case(cls, name):
        if name == "theta":  # powers 0, 1, 4, 7, ..., 37: the gap goes from 3 to 1
            return build_series(HpmConfig(order=12)).partial_sum("theta")
        return cls.GAPS if name == "gaps" else RationalPolynomial()

    @pytest.mark.parametrize("case", ["theta", "gaps", "zero"])
    def test_every_path_bit_equal_to_the_naive_horner(self, case):
        poly = self.case(case)
        expected = reference_path(poly, self.POINTS).tobytes()
        points = np.array(self.POINTS)
        for first in ("scalar", "list", "array"):  # the path that makes the plan
            poly = fresh(poly)
            paths = {
                "scalar": lambda: scalar_sweep(poly, self.POINTS),
                "list": lambda: np.array(poly.eval_float(list(self.POINTS))),
                "array": lambda: poly.eval_float(points),
            }
            for name in (first, *(p for p in paths if p != first)):
                assert paths[name]().tobytes() == expected, (first, name)

    @pytest.mark.parametrize("case, powers", [("theta", [3, 1, 0]), ("gaps", [1, 3, 1, 2, 0]),
                                              ("zero", [0])])
    def test_one_power_per_run(self, case, powers):
        """x is raised once per run of equal gaps and once to the last power."""
        made = []

        class Point(float):
            def __pow__(self, exponent):
                made.append(exponent)
                return float(self) ** exponent

        poly = fresh(self.case(case))
        value = poly.eval_float(1.5)
        assert RationalPolynomial._horner(poly._float_terms, Point(1.5)) == value
        assert made == powers


@pytest.mark.parametrize("which", ["f", "f'", "theta"])
def test_grid_evaluation_holds_at_most_three_grids(which):
    """Horner on a grid holds the accumulator, one power of the points and one
    temporary.  A power kept past its last use makes four.  The slack covers
    the chunk of Python floats a power passes through."""
    poly = build_series(HpmConfig(order=12)).partial_sum(which.rstrip("'"))
    if which == "f'":
        poly = poly.derivative()
    eta = np.linspace(0.0, 12.0, 1_000_001)
    poly.eval_float(0.0)  # builds the float table, which is not grid memory
    tracemalloc.start()
    try:
        poly.eval_float(eta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * eta.nbytes + 2**16, peak / eta.nbytes


class TestFloatTableIsInvisible:
    """Building the float table changes nothing a caller can observe."""

    @pytest.mark.parametrize("x", [2.5, np.linspace(0.0, 5.0, 11)], ids=["scalar", "array"])
    @pytest.mark.parametrize("poly", [TARGET_POLY, RationalPolynomial()], ids=["target", "zero"])
    def test_value_semantics_after_eval_float(self, poly, x):
        used, unused = fresh(poly), fresh(poly)
        used.eval_float(x)
        assert used._float_terms is not None and unused._float_terms is None
        assert used == unused and unused == used
        assert hash(used) == hash(unused)
        assert {used: 1}[unused] == 1
        assert repr(used) == repr(unused)
        assert str(used) == str(unused)
        documents = [polynomial_document(p) for p in (used, unused)]
        assert documents[0] == documents[1]
        assert series_from_document(documents[0]).f_corrections == (unused,)
        copied = copy.deepcopy(used)
        assert copied == used == unused and hash(copied) == hash(unused)
        assert copied.eval_float(2.5) == unused.eval_float(2.5)

    def test_benchmark_tracer_still_wraps_eval_float(self, tracer_module):
        method = RationalPolynomial.eval_float
        poly = fresh(TARGET_POLY)
        tracer = tracer_module.Tracer()
        with tracer.installed():
            assert RationalPolynomial.eval_float is not method
            poly.eval_float(2.5)
            poly.eval_float(np.array([1.0, 2.0]))
        assert RationalPolynomial.eval_float is method
        assert tracer.metrics()["exact.eval_float_calls"] == 2
