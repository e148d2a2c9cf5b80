"""Comparison metrics, CSV layout, and the SVG figure."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from flatplate import report as report_module
from flatplate import shooting
from flatplate._format import CHUNK_ROWS
from flatplate.report import (
    Grid,
    compare,
    emit_csv,
    emit_svg_figure,
    round_half_up,
    summary_lines,
)
from flatplate.shooting import MAX_STEPS, IntegratorSettings

SVG_NS = "{http://www.w3.org/2000/svg}"


@pytest.fixture(scope="module")
def default_report(series_order3, default_shot):
    return compare(series_order3, default_shot, Grid())


@pytest.fixture(scope="module")
def inside_report(series_order3, default_shot):
    """Grid confined to the fitting interval [0, 5]."""
    return compare(series_order3, default_shot, Grid(stop=5.0))


class TestGrid:
    def test_default_point_count(self):
        assert len(Grid().points()) == 241

    def test_short_grid_point_count(self):
        assert len(Grid(stop=5.0).points()) == 101

    def test_points_start_and_stop(self):
        pts = Grid().points()
        assert pts[0] == 0.0
        assert pts[-1] == pytest.approx(12.0, abs=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"start": 5.0, "stop": 5.0},
            {"step": 0.0},
            {"stop": 5.03, "step": 0.05},
            {"start": math.nan},
            {"stop": math.inf},
            {"step": math.inf},
            {"step": 1e-9},
            {"start": -1e308, "stop": 1e308, "step": 1e300},
            {"stop": float(MAX_STEPS), "step": 1.0},
            {"stop": 1e-7, "step": 1.0},  # reachable within tolerance, but zero steps
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            Grid(**kwargs)

    def test_point_budget_is_inclusive(self):
        Grid(stop=float(MAX_STEPS - 1), step=1.0)


class TestRoundHalfUp:
    def test_wall_slope_rendering(self):
        assert round_half_up(0.3485059627149471, 3) == "0.349"

    def test_half_goes_up(self):
        assert round_half_up(0.3485, 3) == "0.349"
        assert round_half_up(0.2, 3) == "0.200"

    def test_large_magnitudes(self):
        assert round_half_up(2.5e30, 1) == "2500000000000000000000000000000.0"
        assert round_half_up(-1.0e300, 3).endswith("0000.000")


class TestCompare:
    def test_exact_wall_slope(self, default_report):
        assert default_report.s_hpm_exact == Fraction(1348969, 3870720)
        assert float(default_report.s_hpm_exact) == pytest.approx(0.348506, abs=1e-6)

    def test_slope_gap(self, default_report):
        gap = abs(float(default_report.s_hpm_exact) - default_report.s_numerical)
        assert gap == pytest.approx(0.0164, abs=1e-3)

    def test_probe_deviation(self, default_report):
        assert default_report.dev_at_probe == pytest.approx(114.97, abs=0.01)

    def test_agreement_inside_domain(self, default_report):
        assert 0.0 < default_report.max_dev_inside < 0.1

    def test_rows_are_ordered_and_pinned_at_origin(self, default_report):
        rows = default_report.rows
        assert np.all(np.diff(rows[:, 0]) > 0)
        assert rows[0, 0] == 0.0 and rows[0, 1] == 0.0 and rows[0, 2] == 0.0

    def test_series_profile_hits_one_at_domain_end(self, default_report):
        row = default_report.rows[100]
        assert row[0] == pytest.approx(5.0, abs=1e-12)
        assert row[2] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("start, stop", [(6.0, 12.0), (-3.0, -1.0)])
    def test_no_grid_point_in_domain(self, series_order3, default_shot, start, stop):
        report = compare(series_order3, default_shot, Grid(start=start, stop=stop, step=0.5))
        assert report.max_dev_inside is None
        assert summary_lines(report)[1] == (
            "  max |f'_hpm - f'_numerical| on [0, 5] = not evaluated (no grid point in [0, 5])"
        )

    def test_points_below_zero_are_outside_domain(self, series_order3, default_shot):
        wide = compare(series_order3, default_shot, Grid(start=-3.0, stop=5.0, step=0.25))
        inside = compare(series_order3, default_shot, Grid(start=0.0, stop=5.0, step=0.25))
        assert wide.max_dev_inside == inside.max_dev_inside > 0.0

    def test_probe_outside_grid_is_omitted(self, inside_report):
        assert inside_report.dev_at_probe is None
        assert inside_report.probe_eta == 10.0

    def test_extrapolation_flag(self, default_report, inside_report):
        assert default_report.extrapolated_from == 10.0
        assert inside_report.extrapolated_from is None

    def test_deterministic(self, series_order3, default_shot, default_report):
        again = compare(series_order3, default_shot, Grid())
        assert np.array_equal(again.rows, default_report.rows)
        assert again.max_dev_inside == default_report.max_dev_inside

    def test_theta_columns(self, series_order3, default_shot, default_report):
        report = compare(series_order3, default_shot, Grid(), with_theta=True)
        assert report.rows.shape == (241, 5)
        assert report.rows[0, 3] == pytest.approx(1.0, abs=1e-12)
        assert report.rows[0, 4] == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(report.rows[:, :3], default_report.rows)

    def test_reports_with_array_rows_compare_by_value(self, series_order3, default_shot):
        grid = Grid(0.0, 6.0, 1.0)
        report = compare(series_order3, default_shot, grid)
        assert isinstance(report.rows, np.ndarray)
        assert report == compare(series_order3, default_shot, grid)
        fields = dataclasses.astuple(report)
        theta = compare(series_order3, default_shot, grid, with_theta=True)
        changed_cell = report.rows.copy()
        changed_cell[3, 2] += 1.0e-12
        for rows in (theta.rows, theta.rows[:, :3].T, report.rows[:-1], changed_cell,
                     report.rows.tolist()):
            assert report != type(report)(rows, *fields[1:])
        assert report != type(report)(report.rows, *fields[1:-1], 6.0)
        with pytest.raises(TypeError, match="unhashable"):
            hash(report)


class TestCsv:
    def test_layout(self, tmp_path, default_report):
        out = tmp_path / "profiles.csv"
        emit_csv(default_report, out)
        raw = out.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "eta,fprime_numerical,fprime_hpm"
        assert lines[1] == "0.000000000,0.000000000,0.000000000"
        assert len(lines) == 1 + 241

    def test_row_at_domain_end(self, tmp_path, default_report):
        out = tmp_path / "profiles.csv"
        emit_csv(default_report, out)
        row_at_5 = out.read_text().splitlines()[1 + 100].split(",")
        assert row_at_5[0] == "5.000000000"
        assert row_at_5[2] == "1.000000000"

    def test_deterministic_bytes(self, tmp_path, default_report):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(default_report, a)
        emit_csv(default_report, b)
        assert a.read_bytes() == b.read_bytes()

    def test_stamp_lines(self, tmp_path, default_report):
        out = tmp_path / "stamped.csv"
        emit_csv(default_report, out, stamp_lines=("run=demo",))
        assert out.read_text().splitlines()[0] == "# run=demo"

    def test_theta_columns_extend_header(self, tmp_path, series_order3, default_shot):
        report = compare(series_order3, default_shot, Grid(), with_theta=True)
        out = tmp_path / "theta.csv"
        emit_csv(report, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "eta,fprime_numerical,fprime_hpm,theta_numerical,theta_hpm"
        assert len(lines[1].split(",")) == 5


def reference_points(rows: np.ndarray, column: int, y_window: tuple[float, float]) -> str:
    """The polyline ``points`` of one report column, one scalar point at a time."""
    plot_w = report_module._WIDTH - report_module._MARGIN_LEFT - report_module._MARGIN_RIGHT
    plot_h = report_module._HEIGHT - report_module._MARGIN_TOP - report_module._MARGIN_BOTTOM
    y_lo, y_hi = y_window
    x_lo, x_hi = float(rows[0, 0]), float(rows[-1, 0])
    limit = report_module._Y_PX_LIMIT
    points = []
    for x, y in zip(rows[:, 0].tolist(), rows[:, column].tolist()):
        x_px = report_module._MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w
        y_px = report_module._MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h
        points.append(f"{x_px:.2f},{min(max(y_px, -limit), limit):.2f}")
    return " ".join(points)


class TestSvg:
    @pytest.mark.parametrize(
        "n_points", [CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1]
    )
    @pytest.mark.parametrize("window", [(-0.2, 1.4), (0.0, 1e-3)], ids=["default", "clamped"])
    def test_points_match_per_point_reference(self, tmp_path, series_order3, default_shot,
                                              n_points, window):
        # the narrow window pushes the divergent tail past the pixel clamp
        report = compare(series_order3, default_shot, Grid(stop=12.0, step=12.0 / (n_points - 1)))
        assert len(report.rows) == n_points
        out = tmp_path / "figure.svg"
        emit_svg_figure(report, out, y_window=window)
        polylines = ET.parse(out).getroot().iter(f"{SVG_NS}polyline")
        by_id = {p.get("id"): p.get("points") for p in polylines}
        assert by_id["numerical"] == reference_points(report.rows, 1, window)
        assert by_id["hpm"] == reference_points(report.rows, 2, window)

    def test_structure(self, tmp_path, default_report):
        out = tmp_path / "figure.svg"
        emit_svg_figure(default_report, out)
        root = ET.parse(out).getroot()
        polylines = list(root.iter(f"{SVG_NS}polyline"))
        assert len(polylines) == 2
        by_id = {p.get("id"): p for p in polylines}
        assert by_id["numerical"].get("stroke-dasharray") is not None
        assert by_id["hpm"].get("stroke-dasharray") is None

    def test_legend_names_both_curves(self, tmp_path, default_report):
        out = tmp_path / "figure.svg"
        emit_svg_figure(default_report, out)
        labels = [t.text for t in ET.parse(out).getroot().iter(f"{SVG_NS}text")]
        assert "numerical" in labels
        assert "HPM" in labels

    def test_point_count_matches_rows(self, tmp_path, default_report):
        out = tmp_path / "figure.svg"
        emit_svg_figure(default_report, out)
        root = ET.parse(out).getroot()
        for polyline in root.iter(f"{SVG_NS}polyline"):
            assert len(polyline.get("points").split()) == len(default_report.rows)

    def test_curves_fit_in_window_on_short_grid(self, tmp_path, inside_report):
        out = tmp_path / "short.svg"
        emit_svg_figure(inside_report, out)
        root = ET.parse(out).getroot()
        for polyline in root.iter(f"{SVG_NS}polyline"):
            ys = [float(pt.split(",")[1]) for pt in polyline.get("points").split()]
            assert min(ys) >= 0.0 and max(ys) <= 440.0

    def test_self_contained(self, tmp_path, default_report):
        out = tmp_path / "figure.svg"
        emit_svg_figure(default_report, out)
        text = out.read_text()
        assert "http://www.w3.org/2000/svg" in text
        assert "href" not in text  # no external references

    @pytest.mark.parametrize("n_rows", [0, 1])
    def test_rejects_fewer_than_two_rows(self, tmp_path, default_report, n_rows):
        # one row used to divide by the zero x span
        short = dataclasses.replace(default_report, rows=default_report.rows[:n_rows])
        out = tmp_path / "x.svg"
        with pytest.raises(ValueError, match="fewer than two grid points"):
            emit_svg_figure(short, out)
        assert not out.exists()

    def test_rejects_bad_window(self, tmp_path, default_report):
        with pytest.raises(ValueError):
            emit_svg_figure(default_report, tmp_path / "x.svg", y_window=(1.0, -1.0))

    @pytest.mark.parametrize(
        "window", [(0.0, math.inf), (math.nan, 1.0), (-1e308, 1e308)]
    )
    def test_rejects_nonfinite_window(self, tmp_path, default_report, window):
        with pytest.raises(ValueError, match="finite"):
            emit_svg_figure(default_report, tmp_path / "x.svg", y_window=window)

    @pytest.mark.parametrize(
        "stop, step, window",
        [(12.0, 0.05, (0.0, 2000.0)), (12.0, 0.05, (-1e300, 1e300)),
         (20000.0, 100.0, (-0.2, 1.4)), (1e12, 1e10, (-1e8, 1e8))],
    )
    def test_tick_count_is_bounded(self, tmp_path, series_order3, default_shot,
                                   stop, step, window):
        report = compare(series_order3, default_shot, Grid(stop=stop, step=step))
        out = tmp_path / "ticks.svg"
        emit_svg_figure(report, out, y_window=window)
        ticks = [
            line for line in ET.parse(out).getroot().iter(f"{SVG_NS}line")
            if line.get("stroke") == "#444"
        ]
        x_ticks = [t for t in ticks if t.get("x1") == t.get("x2")]
        y_ticks = [t for t in ticks if t.get("y1") == t.get("y2")]
        assert len(x_ticks) + len(y_ticks) == len(ticks)
        assert 2 <= len(x_ticks) <= 16 and 2 <= len(y_ticks) <= 16

    def test_window_from_zero_labels_its_bottom_tick_0_0(self, tmp_path, default_report):
        # ceil(0 / 0.2 - 1e-9) is -0.0 in numpy's spelling, which printed "-0.0"
        out = tmp_path / "zero.svg"
        emit_svg_figure(default_report, out, y_window=(0.0, 1.0))
        labels = [text.text for text in ET.parse(out).getroot().iter(f"{SVG_NS}text")
                  if text.get("text-anchor") == "end"]
        assert labels == ["0.0", "0.2", "0.4", "0.6", "0.8", "1.0"]


def test_benchmark_tracer_still_sees_shooting_and_report(tmp_path, series_order3, tracer_module):
    """bench/tracer.py wraps solve_shooting, integrate_blasius, compare and
    emit_csv by name, so calls must go through the module globals to be traced."""
    tracer = tracer_module.Tracer()
    with tracer.installed():
        shot = shooting.solve_shooting(IntegratorSettings(eta_max=2.0, step=0.01))
        report = report_module.compare(series_order3, shot)
        report_module.emit_csv(report, tmp_path / "profiles.csv")
    names = ("shooting.solve_calls", "shooting.integrate_calls", "report.compare_calls",
             "report.emit_csv_calls", "shooting.iterations")
    metrics = tracer.metrics()
    assert {name: metrics.get(name) for name in names} == dict(zip(names, (1, 1, 1, 1, 2)))


def test_benchmark_tracer_sees_each_cli_call_once(tmp_path):
    """The tracer wraps these functions both on their home modules and on
    flatplate.cli; the CLI must reach each through one of them only, so a
    call makes one span.  Run as bench/launcher.py runs a command: in a fresh
    interpreter, with the tracer installed after ``import flatplate.cli``."""
    root = Path(__file__).resolve().parents[1]
    script = (
        f"import json, sys\nsys.path.insert(0, {str(root / 'bench')!r})\n"
        "from tracer import Tracer\nimport flatplate.cli\ntracer = Tracer()\n"
        "with tracer.installed():\n"
        "    assert flatplate.cli.main(['compare', '--csv', 'compare.csv']) == 0\n"
        "    assert flatplate.cli.main(['series', '--format', 'json', '--out', 'series.json']) == 0\n"
        "print(json.dumps(tracer.metrics()))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])
    names = ("shooting.solve_calls", "report.compare_calls", "report.emit_csv_calls",
             "hpm.document_calls", "hpm.build_series_calls")
    assert {name: metrics.get(name) for name in names} == dict(zip(names, (1, 1, 1, 1, 2)))
