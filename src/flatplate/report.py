"""Comparison of the truncated-domain series against the shooting solution.

Builds gridded f' profiles from both methods, measures where they agree
(inside the fitting interval [0, L]) and how hard the polynomial tail
diverges beyond it, and emits the CSV / SVG artifacts.  The headline number
pair is the wall curvature f''(0): the series value is twice the eta^2
coefficient of the partial sum (kept exact as a Fraction), the numerical
value comes from shooting.  The report's ``rows`` is one table, which the
CSV writes as it is: eta, f' of both methods and, ``with_theta``, theta.

The grid, the interpolation of the trajectory on it, the series
evaluation and the figure's pixel maps each have a numpy kernel and a
bit-equal stdlib kernel; each reads ``_format.loaded_numpy``, so the default
``compare`` and ``figure`` runs never load numpy.  Only a grid longer than
_PURE_MAX_POINTS (``Grid.points``) imports it here; ``with_theta`` loads it
through ``theta_profile``, which imports it itself and runs before the grid
is made, so every column of that report is an array.  The probe lookup, one
scalar, and the y ticks, at most _MAX_TICKS values, are one stdlib
computation on both paths.
"""

from __future__ import annotations

import bisect
import math
from array import array
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np

from . import _format
from ._format import CHUNK_ROWS, round_half_up
from ._record import _Record
from .hpm import HpmSeries
from .shooting import MAX_STEPS, ShootingResult, theta_profile

# Quoted 7-digit wall-slope value the numerical result is checked against in
# summaries; the matching quoted series value 0.349 is reproduced by rounding.
REFERENCE_WALL_SLOPE = 0.3320574


class Grid(_Record):
    """Uniform eta grid; stop must be an integer number of steps from start.

    At least two and at most MAX_STEPS points, which ``compare`` evaluates
    as one array.
    """

    __slots__ = ("start", "stop", "step")

    def __init__(self, start: float = 0.0, stop: float = 12.0, step: float = 0.05):
        for name, value in (("start", start), ("stop", stop), ("step", step)):
            if not math.isfinite(value):
                raise ValueError(f"grid {name} must be finite, got {value!r}")
        if not start < stop:
            raise ValueError(f"grid must satisfy start < stop, got {start}..{stop}")
        if not step > 0:
            raise ValueError(f"grid step must be > 0, got {step}")
        span = (stop - start) / step
        if not span < MAX_STEPS - 0.5:  # points() makes round(span) + 1 points
            # exact below 2**53, so a count one past the budget reads as such
            points = f"{round(span) + 1}" if span < 2**53 else f"{span:.3g}"
            raise ValueError(f"grid of {points} points exceeds the budget of {MAX_STEPS} points")
        if abs(span - round(span)) > 1.0e-6:
            raise ValueError(f"grid stop {stop} is not reachable from {start} in steps of {step}")
        if round(span) < 1:  # a span within the reachability tolerance of zero steps
            raise ValueError(f"grid {start}..{stop} is shorter than one step of {step}")
        super().__init__(start, stop, step)

    def points(self) -> np.ndarray | list[float]:
        """The grid: a float64 ndarray, or a list when the stdlib kernels run.
        A grid longer than _PURE_MAX_POINTS loads numpy for its kernels."""
        n = int(round((self.stop - self.start) / self.step))
        if n + 1 > _format._PURE_MAX_POINTS:
            import numpy  # noqa: F401
        np = _format.loaded_numpy()
        if np is None:
            return [self.start + self.step * i for i in range(n + 1)]
        return self.start + self.step * np.arange(n + 1)


class ComparisonReport(_Record):
    """The gridded profiles and the deviation metrics of ``compare``.

    ``rows`` is the table of the report, one row per grid point:
    (eta, f'_numerical, f'_hpm), followed by (theta_numerical, theta_hpm)
    when ``compare`` ran ``with_theta``.  It is an (n, 3) or (n, 5) float64
    ndarray when numpy ran ``compare``, and a list of float 3-tuples when
    the stdlib did (see ``_format.loaded_numpy``); theta needs numpy.
    """

    __slots__ = ("rows", "max_dev_inside", "dev_at_probe", "probe_eta", "s_numerical",
                 "s_hpm_exact", "domain_length", "extrapolated_from")

    def __init__(
        self,
        rows: np.ndarray | list[tuple[float, float, float]],
        max_dev_inside: float | None,  # max |delta f'| on [0, L]; None if no grid point is in it
        dev_at_probe: float | None,  # |delta f'| at probe_eta; None if probe outside grid
        probe_eta: float,
        s_numerical: float,
        s_hpm_exact: Fraction,
        domain_length: float,
        extrapolated_from: float | None,  # eta_max, when the grid runs past the trajectory
    ):
        super().__init__(rows, max_dev_inside, dev_at_probe, probe_eta, s_numerical,
                         s_hpm_exact, domain_length, extrapolated_from)


def compare(
    series: HpmSeries,
    shot: ShootingResult,
    grid: Grid = Grid(),
    probe_eta: float = 10.0,
    with_theta: bool = False,
) -> ComparisonReport:
    """Sample both f' profiles on the grid and compute the deviation metrics.

    The series profile is the float Horner evaluation of the partial-sum
    derivative; the numerical profile is linearly interpolated from the
    trajectory and extrapolated as the constant 1.0 beyond eta_max (the
    far-field value, which the trajectory has reached to ~1e-5 by default).
    The maximum deviation on [0, L] is taken over the grid points in [0, L],
    and is None when there are none.  The probe deviation is evaluated only
    when the probe lies inside the grid range; callers see None otherwise.
    """
    if not math.isfinite(probe_eta):
        raise ValueError(f"probe eta must be finite, got {probe_eta!r}")
    traj = shot.trajectory
    L = _float_of(series.config.L, "the domain length")
    if with_theta:
        epsilon = _float_of(series.config.epsilon, "epsilon")
        if epsilon == 0.0:  # HpmConfig holds the exact epsilon > 0
            raise ValueError("epsilon underflows to 0.0 as a float, and theta needs it positive")
        # theta_profile loads numpy, so every column below is an array
        profile = theta_profile(traj, epsilon)
    eta = grid.points()
    np = _format.loaded_numpy()
    f_sum = series.partial_sum("f")
    fprime_series = f_sum.derivative()
    if np is None:
        fprime_num = [_interp(x, traj.eta, traj.fp, 1.0) for x in eta]
        rows = list(zip(eta, fprime_num, fprime_series.eval_float(eta)))
        deviation = [abs(hpm - num) for x, num, hpm in rows if 0.0 <= x <= L + 1.0e-12]
        max_dev_inside = None
        if deviation:  # numpy's max is nan if one deviation is; the builtin may skip it
            max_dev_inside = math.nan if math.isnan(sum(deviation)) else max(deviation)
    else:
        fprime_num = np.interp(eta, traj.eta, traj.fp, right=1.0)
        fprime_hpm = fprime_series.eval_float(eta)
        columns = [eta, fprime_num, fprime_hpm]
        if with_theta:
            # theta(infinity) = 0, so extrapolate past the trajectory as 0
            columns.append(np.interp(eta, profile[:, 0], profile[:, 1], right=0.0))
            columns.append(series.partial_sum("theta").eval_float(eta))
        rows = np.column_stack(columns)
        inside = (eta >= 0.0) & (eta <= L + 1.0e-12)
        deviation = np.abs(fprime_hpm - fprime_num)
        max_dev_inside = float(np.max(deviation[inside])) if np.any(inside) else None

    if grid.start <= probe_eta <= grid.stop:
        num_at_probe = _interp(probe_eta, traj.eta, traj.fp, 1.0)
        dev_at_probe = abs(fprime_series.eval_float(probe_eta) - num_at_probe)
    else:
        dev_at_probe = None

    s_hpm_exact = 2 * f_sum.coefficient(2)
    eta_max = float(traj.eta[-1])  # integrate_blasius pins the last node to eta_max
    extrapolated_from = eta_max if grid.stop > eta_max else None
    return ComparisonReport(rows, max_dev_inside, dev_at_probe, probe_eta, shot.s_star,
                            s_hpm_exact, L, extrapolated_from)


def _float_of(value: Fraction, name: str) -> float:
    """float(value), or a ValueError that names ``name`` when it overflows."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} overflows as a float") from None


def _interp(x: float, xp: Sequence[float], fp: Sequence[float], right: float) -> float:
    """``np.interp(x, xp, fp, right=right)`` bit for bit, on increasing ``xp``."""
    if x != x:
        return x
    j = bisect.bisect_right(xp, x) - 1
    if j < 0:
        return fp[0]
    if j == len(xp) - 1:
        return fp[j] if x == xp[j] else right
    if x == xp[j]:
        return fp[j]
    slope = (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j])
    y = slope * (x - xp[j]) + fp[j]
    if y != y:  # numpy tries the other end, then a flat segment's value
        y = slope * (x - xp[j + 1]) + fp[j + 1]
        if y != y and fp[j] == fp[j + 1]:
            y = fp[j]
    return y


def _columns(rows) -> list:
    """The columns of report rows: float tuples of a list, views of an ndarray."""
    return [*zip(*rows)] if isinstance(rows, list) else [*rows.T]


def emit_csv(report: ComparisonReport, path, stamp_lines: Sequence[str] = ()) -> None:
    """Write the report table: eta,fprime_numerical,fprime_hpm (+ the two
    theta columns when present), in the CSV format of ``write_csv``."""
    columns = _columns(report.rows)
    names = ("eta", "fprime_numerical", "fprime_hpm", "theta_numerical", "theta_hpm")
    _format.write_csv(path, ",".join(names[:len(columns)]), columns, stamp_lines)


# -- SVG figure ----------------------------------------------------------------

_MARGIN_LEFT = 64.0
_MARGIN_RIGHT = 16.0
_MARGIN_TOP = 18.0
_MARGIN_BOTTOM = 46.0
_WIDTH = 640.0
_HEIGHT = 440.0
_MAX_TICKS = 16  # per axis, whatever the span of the grid or the y window
# Polyline y pixels are clamped to +-_Y_PX_LIMIT.  A narrow y window puts the
# divergent tail up to ~1e302 px away, and such coordinates print as 300-digit
# numbers.  The limit is above the default figure's largest coordinate (about
# 2.2e5 px), and inside the frame a segment with one end in it moves by at
# most plot height * plot width / limit, about 0.21 px.
_Y_PX_LIMIT = 1.0e6
# (polyline id, report column, legend label, stroke attributes), in drawing order
_CURVES = (
    ("numerical", 1, "numerical", 'stroke="#205080" stroke-width="1.8" stroke-dasharray="7 4"'),
    ("hpm", 2, "HPM", 'stroke="#b02020" stroke-width="1.8"'),
)


_TICK_STROKE = 'stroke="#444" stroke-width="1"'


def _line(x1: float, y1: float, x2: float, y2: float, stroke: str) -> str:
    return f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" {stroke}/>'


def _text(x: float, y: float, size: int, anchor: str | None, body: str) -> str:
    """A sans-serif label; ``anchor`` None leaves SVG's default, start."""
    anchor_attr = f' text-anchor="{anchor}"' if anchor else ""
    return (
        f'<text x="{x:.2f}" y="{y:.2f}" font-size="{size}" '
        f'font-family="sans-serif"{anchor_attr}>{body}</text>'
    )


def _tick_step(span: float, step: float) -> float:
    """``step``, or the smallest 1-2-5 step above it that leaves fewer than
    _MAX_TICKS intervals on ``span``."""
    if span / step < _MAX_TICKS:
        return step
    magnitude = 10.0 ** math.floor(math.log10(span / _MAX_TICKS))
    return next(m * magnitude for m in (1.0, 2.0, 5.0, 10.0) if span / (m * magnitude) < _MAX_TICKS)


def _y_ticks(y_lo: float, y_hi: float, step: float) -> list[float]:
    """The multiples of ``step`` in the window as numpy spelt them,
    ``np.arange(np.ceil(y_lo / step - 1e-9) * step, y_hi + 1e-9, step)``,
    but with a zero tick labelled 0.0, not -0.0: ``math.ceil`` returns an
    int, and an int zero times ``step`` is +0.0.  From the third tick on
    arange fills ``first + i * ((first + step) - first)``."""
    first, stop = math.ceil(y_lo / step - 1.0e-9) * step, y_hi + 1.0e-9
    count = max(math.ceil((stop - first) / step), 0)
    delta = (first + step) - first
    return [first, first + step, *(first + i * delta for i in range(2, count))][:count]


def check_y_window(y_window: tuple[float, float]) -> None:
    """Raise ValueError unless the figure window is finite with low < high."""
    y_lo, y_hi = y_window
    if not (y_lo < y_hi and math.isfinite(y_hi - y_lo)):
        raise ValueError(f"y window must be finite with low < high, got {y_window}")


def emit_svg_figure(
    report: ComparisonReport, path, y_window: tuple[float, float] = (-0.2, 1.4)
) -> None:
    """Self-contained SVG 1.1: numerical curve dashed, series curve solid.

    The y axis is clamped to ``y_window`` (clipped, not rescaled), so the
    polynomial tail visibly leaves the frame instead of flattening the part
    of the picture where the two curves agree.
    """
    if len(report.rows) < 2:
        raise ValueError(f"cannot plot fewer than two grid points, got {len(report.rows)}")
    check_y_window(y_window)
    y_lo, y_hi = y_window
    np = _format.loaded_numpy()
    columns = _columns(report.rows)
    eta = columns[0]
    x_lo, x_hi = float(eta[0]), float(eta[-1])
    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def x_px(x: float) -> float:
        return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def y_px(y: float) -> float:
        return _MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    # The x pixels are formatted once per figure, into one template per
    # CHUNK_ROWS points with a %.2f slot for each y: "64.00,%.2f 64.05,%.2f ...".
    # The kernels differ only in computing the pixels into an array('d') or an
    # ndarray, which hold no float object per point; both format one chunk at a time.
    starts = range(0, len(eta), CHUNK_ROWS)
    if np is None:
        xs = array("d", map(x_px, eta))
    else:
        xs = x_px(np.asarray(eta))
    templates = [" ".join(["%.2f,%%.2f"] * len(chunk)) % tuple(chunk)
                 for chunk in (xs[start:start + CHUNK_ROWS].tolist() for start in starts)]

    def polyline_points(values: Sequence[float]) -> str:
        if np is None:
            ys = array("d", (min(max(y_px(y), -_Y_PX_LIMIT), _Y_PX_LIMIT) for y in values))
        else:
            ys = np.clip(y_px(np.asarray(values)), -_Y_PX_LIMIT, _Y_PX_LIMIT)
        return " ".join(template % tuple(ys[start:start + CHUNK_ROWS].tolist())
                        for start, template in zip(starts, templates))

    x_tick_step = _tick_step(x_hi - x_lo, 1.0 if (x_hi - x_lo) <= 15.0 else 2.0)
    x_ticks = [x_lo + i * x_tick_step for i in range(int((x_hi - x_lo) / x_tick_step) + 1)]
    y_ticks = _y_ticks(y_lo, y_hi, _tick_step(y_hi - y_lo, 0.2))

    parts: list[str] = []
    parts.append('<?xml version="1.0" encoding="UTF-8"?>')
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH:.0f}" height="{_HEIGHT:.0f}" '
        f'viewBox="0 0 {_WIDTH:.0f} {_HEIGHT:.0f}">'
    )
    parts.append(f'<rect x="0" y="0" width="{_WIDTH:.0f}" height="{_HEIGHT:.0f}" fill="white"/>')
    plot_rect = f'x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{plot_w}" height="{plot_h}"'
    parts.append(f'<defs><clipPath id="plot-area"><rect {plot_rect}/></clipPath></defs>')
    # frame and ticks
    parts.append(f'<rect {plot_rect} fill="none" stroke="#888" stroke-width="1"/>')
    bottom = _MARGIN_TOP + plot_h
    for xt in x_ticks:
        px = x_px(xt)
        parts.append(_line(px, bottom, px, bottom + 5, _TICK_STROKE))
        parts.append(_text(px, bottom + 18, 12, "middle", f"{xt:g}"))
    for yt in y_ticks:
        py = y_px(yt)
        parts.append(_line(_MARGIN_LEFT - 5, py, _MARGIN_LEFT, py, _TICK_STROKE))
        parts.append(_text(_MARGIN_LEFT - 9, py + 4, 12, "end", f"{yt:.1f}"))
    parts.append(_text(_MARGIN_LEFT + plot_w / 2, _HEIGHT - 8, 14, "middle", "eta"))
    parts.append(
        f'<text x="16" y="{_MARGIN_TOP + plot_h / 2:.2f}" font-size="14" '
        f'font-family="sans-serif" text-anchor="middle" '
        f'transform="rotate(-90 16 {_MARGIN_TOP + plot_h / 2:.2f})">f&#8242;(eta)</text>'
    )
    # the two curves, clipped to the frame so the divergent tail exits the picture
    parts.append('<g clip-path="url(#plot-area)" fill="none">')
    for name, column, _, stroke in _CURVES:
        points = polyline_points(columns[column])
        parts.append(f'<polyline id="{name}" points="{points}" {stroke}/>')
    parts.append("</g>")
    # legend, one row per curve
    lx = _MARGIN_LEFT + 14.0
    for row, (_, _, label, stroke) in enumerate(_CURVES):
        ly = _MARGIN_TOP + 16.0 + 18 * row
        parts.append(_line(lx, ly, lx + 34, ly, stroke))
        parts.append(_text(lx + 40, ly + 4, 13, None, label))
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for part in parts:
            handle.write(part + "\n")


def summary_lines(report: ComparisonReport) -> list[str]:
    """Human-readable metric summary shared by the CLI subcommands."""
    first, last, points = report.rows[0][0], report.rows[-1][0], len(report.rows)
    L = report.domain_length
    if report.max_dev_inside is not None:
        max_dev = f"{report.max_dev_inside:.6f}"
    else:
        max_dev = f"not evaluated (no grid point in [0, {L:g}])"
    lines = [
        f"comparison over eta in [{first:g}, {last:g}] ({points} points)",
        f"  max |f'_hpm - f'_numerical| on [0, {L:g}] = {max_dev}",
    ]
    if report.dev_at_probe is not None:
        lines.append(
            f"  deviation at probe eta = {report.probe_eta:g}: {report.dev_at_probe:.6f}"
        )
    else:
        lines.append(
            f"  deviation at probe eta = {report.probe_eta:g}: not evaluated "
            f"(probe outside grid [{first:g}, {last:g}])"
        )
    s_hpm = float(report.s_hpm_exact)
    lines.append(
        f"  wall slope f''(0): numerical = {report.s_numerical:.7f} "
        f"(reference {REFERENCE_WALL_SLOPE}), "
        f"hpm = {s_hpm:.7f} -> {round_half_up(s_hpm, 3)} at 3 decimals "
        f"(exact {report.s_hpm_exact})"
    )
    lines.append(f"  |f''(0) gap| = {abs(s_hpm - report.s_numerical):.7f}")
    if report.extrapolated_from is not None:
        lines.append(
            f"  note: numerical f' extrapolated as 1.0 beyond eta_max = "
            f"{report.extrapolated_from:g}"
        )
    return lines
