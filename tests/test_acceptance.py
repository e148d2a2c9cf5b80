"""Acceptance suite: every headline capability at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Tolerances are pinned here, not configurable.
"""

import time
import xml.etree.ElementTree as ET
from fractions import Fraction

from flatplate.exact import RationalPolynomial
from flatplate.hpm import HpmConfig, build_series
from flatplate.report import Grid, compare, emit_svg_figure, round_half_up
from flatplate.shooting import IntegratorSettings, solve_shooting

# The canonical third-order, L=5 partial sum: four terms, frozen exactly.
TARGET_SUM = RationalPolynomial(
    {
        2: Fraction(1348969, 7741440),
        5: Fraction(-4867, 10752000),
        8: Fraction(451, 322560000),
        11: Fraction(-1, 532224000),
    }
)


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {number}: {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_1_exact_third_order_reproduction():
    start = time.perf_counter()
    series = build_series(HpmConfig(order=3, L=Fraction(5)))
    f_sum = series.partial_sum("f")
    elapsed = time.perf_counter() - start
    ok = f_sum == TARGET_SUM and elapsed < 1.0
    _report(1, ok, f"order-3 partial sum exact match in {elapsed * 1000:.0f} ms")
    assert f_sum == TARGET_SUM
    assert elapsed < 1.0


def test_criterion_2_shooting_value():
    start = time.perf_counter()
    result = solve_shooting(IntegratorSettings(eta_max=10.0, step=1e-3))
    elapsed = time.perf_counter() - start
    ok = abs(result.s_star - 0.3320574) <= 1e-6 and elapsed < 5.0
    _report(2, ok, f"s* = {result.s_star:.9f} (target 0.3320574 ± 1e-6) in {elapsed:.2f} s")
    assert abs(result.s_star - 0.3320574) <= 1e-6
    assert elapsed < 5.0


def test_criterion_3_series_wall_slope(series_order3, default_shot):
    wall = 2 * series_order3.partial_sum("f").coefficient(2)
    rendered = round_half_up(float(wall), 3)
    gap = abs(float(wall) - default_shot.s_star)
    ok = wall == Fraction(1348969, 3870720) and rendered == "0.349" and abs(gap - 0.0164) <= 1e-3
    _report(3, ok, f"f''(0) series = {wall} -> {rendered}; gap to numerical = {gap:.5f}")
    assert wall == Fraction(1348969, 3870720)
    assert rendered == "0.349"
    assert abs(gap - 0.0164) <= 1e-3


def test_criterion_4_exact_boundary_suite():
    failures = []
    for L in (Fraction(5), Fraction(10), Fraction(7, 2)):
        series = build_series(HpmConfig(order=6, L=L))
        for j in range(7):
            delta = Fraction(int(j == 0))
            f_j = series.f_corrections[j]
            theta_j = series.theta_corrections[j]
            checks = (
                f_j.eval_exact(0) == 0,
                f_j.derivative().eval_exact(0) == 0,
                f_j.derivative().eval_exact(L) == delta,
                theta_j.eval_exact(0) == delta,
                theta_j.eval_exact(L) == 0,
            )
            if not all(checks):
                failures.append((L, j))
        f_sum = series.partial_sum("f")
        theta_sum = series.partial_sum("theta")
        if f_sum.derivative().eval_exact(L) != 1 or theta_sum.eval_exact(L) != 0:
            failures.append((L, "partial sum"))
    ok = not failures
    _report(4, ok, f"orders 0..6, L in {{5, 10, 7/2}}: failures = {failures or 'none'}")
    assert not failures


def test_criterion_5_figure_reproduction(series_order3, default_shot, tmp_path):
    report = compare(series_order3, default_shot, Grid(start=0.0, stop=5.0, step=0.05))
    fprime_hpm_10 = series_order3.partial_sum("f").derivative().eval_float(10.0)
    wide = compare(series_order3, default_shot, Grid(), probe_eta=10.0)
    svg_path = tmp_path / "figure.svg"
    emit_svg_figure(wide, svg_path)
    root = ET.parse(svg_path).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    dashed = {p.get("id"): p.get("stroke-dasharray") for p in root.iter(f"{ns}polyline")}
    inside_ok = report.max_dev_inside < 0.1
    probe_ok = wide.dev_at_probe is not None and wide.dev_at_probe > 50.0
    tail_ok = abs(fprime_hpm_10 - (-113.97)) <= 0.01
    svg_ok = dashed.get("numerical") is not None and dashed.get("hpm") is None
    ok = inside_ok and probe_ok and tail_ok and svg_ok
    _report(
        5,
        ok,
        f"max dev on [0,5] = {report.max_dev_inside:.4f} (< 0.1); "
        f"dev at 10 = {wide.dev_at_probe:.2f} (> 50); "
        f"f'_hpm(10) = {fprime_hpm_10:.4f}; svg dashed/solid ok = {svg_ok}",
    )
    assert inside_ok
    assert probe_ok
    assert tail_ok
    assert svg_ok


def test_criterion_6_recurrence_residual_suite(series_order6):
    eps = series_order6.config.epsilon
    f = series_order6.f_corrections
    theta = series_order6.theta_corrections
    half = Fraction(1, 2)
    nonzero = []
    for j in range(1, 7):
        f_res = f[j].derivative(3)
        theta_res = theta[j].derivative(2) * eps
        for k in range(j):
            f_res = f_res + f[k] * f[j - 1 - k].derivative(2) * half
            theta_res = theta_res + f[k] * theta[j - 1 - k].derivative() * half
        if f_res:
            nonzero.append(("f", j))
        if theta_res:
            nonzero.append(("theta", j))
    ok = not nonzero
    _report(6, ok, f"orders 1..6 per-order identities exactly zero: failures = {nonzero or 'none'}")
    assert not nonzero


def test_criterion_7_numerical_self_consistency(default_shot):
    s_10 = default_shot.s_star
    s_15 = solve_shooting(IntegratorSettings(eta_max=15.0, step=1e-3)).s_star
    s_half = solve_shooting(IntegratorSettings(eta_max=10.0, step=5e-4)).s_star
    domain_ok = abs(s_10 - s_15) < 1e-7
    step_ok = abs(s_10 - s_half) < 1e-7
    ok = domain_ok and step_ok
    _report(
        7,
        ok,
        f"|s*(10) - s*(15)| = {abs(s_10 - s_15):.2e}; "
        f"|s*(h) - s*(h/2)| = {abs(s_10 - s_half):.2e} (both < 1e-7)",
    )
    assert domain_ok
    assert step_ok


def test_criterion_8_hand_oracle_corrections():
    series = build_series(HpmConfig(order=2))
    f1 = series.f_corrections[1]
    f2 = series.f_corrections[2]
    theta1 = series.theta_corrections[1]
    f1_ok = f1 == RationalPolynomial({5: Fraction(-1, 6000), 2: Fraction(5, 96)})
    f2_ok = f2 == RationalPolynomial(
        {8: Fraction(11, 20160000), 5: Fraction(-1, 5760), 2: Fraction(325, 16128)}
    )
    theta1_ok = theta1 == RationalPolynomial({4: Fraction(1, 1200), 1: Fraction(-5, 48)})
    ok = f1_ok and f2_ok and theta1_ok
    _report(8, ok, f"f1 exact = {f1_ok}, f2 exact = {f2_ok}, theta1 exact = {theta1_ok}")
    assert f1_ok
    assert f2_ok
    assert theta1_ok
