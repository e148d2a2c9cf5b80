"""Series engine: hand-derived oracles, exact boundary and residual identities.

The order-1 and order-2 corrections asserted here were re-derived by hand
before the recurrence was written: antidifferentiate the convolution right
side with zero constants, then fit the single free homogeneous coefficient
at eta = L.  They are frozen as plain fractions so the test stays
independent of the code path it checks.
"""

import copy
import dataclasses
import importlib.util
import json
import pickle
from fractions import Fraction
from pathlib import Path

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

TARGET_SUM = RationalPolynomial(
    {
        2: Fraction(1348969, 7741440),
        5: Fraction(-4867, 10752000),
        8: Fraction(451, 322560000),
        11: Fraction(-1, 532224000),
    }
)


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

    @pytest.mark.parametrize("L", [Fraction(5), Fraction(10), Fraction(7, 2)])
    @pytest.mark.parametrize("eps", [Fraction(1), Fraction(7, 10)])
    def test_partial_sum_matches_the_fold(self, L, eps):
        """Every partial sum equals the fold of RationalPolynomial additions,
        coefficient by coefficient and in its serialized form."""
        series = build_series(HpmConfig(order=25, L=L, epsilon=eps))
        for which, corrections in (("f", series.f_corrections),
                                   ("theta", series.theta_corrections)):
            for up_to in range(series.order + 1):
                expected = sum(corrections[: up_to + 1], RationalPolynomial())
                got = series.partial_sum(which, up_to)
                assert got == expected
                assert got.to_obj() == expected.to_obj()
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


def test_benchmark_tracer_still_sees_the_engine():
    """bench/tracer.py wraps both recurrence steps and build_series by name, so
    the build must reach them through the module globals to be traced."""
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer()
    with tracer.installed():
        hpm.build_series(HpmConfig(order=5))
    assert hpm.build_series is build_series
    names = ("hpm.recurrence_f_calls", "hpm.recurrence_theta_calls", "hpm.build_series_calls")
    metrics = tracer.metrics()
    assert {name: metrics.get(name) for name in names} == dict(zip(names, (5, 5, 1)))


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
        import json

        text = json.dumps(series_to_document(series_order3))
        back = series_from_document(json.loads(text))
        assert back.partial_sum("f") == TARGET_SUM

    def test_rejects_wrong_list_length(self, series_order3):
        doc = series_to_document(series_order3)
        doc["order"] = 2
        with pytest.raises(ValueError):
            series_from_document(doc)
