"""Output checks for every timed benchmark operation.

Each check raises ``CheckFailed`` with a one-line reason; the harness runs
them after the timed window closes and counts a failure against the op.
The expected values are independent of the code under test: a digest of the
default ``series --format json`` bytes, the exact order-3 series wall slope,
the literature wall slope f''(0) (Boyd 1999, "The Blasius function in the
complex plane") and the per-order boundary identities of the series.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import xml.etree.ElementTree as ET
from fractions import Fraction

# sha256 of `flatplate series --format json` at default settings (order 3,
# L = 5, epsilon = 1); the byte contract of the series document.
SERIES_JSON_SHA256 = "698847c98d84a8b76fb65ad42e27e79fec89af6668bec8da8994edd194679093"
HPM_WALL_SLOPE = "1348969/3870720"  # exact order-3 series f''(0) at L = 5
LITERATURE_WALL_SLOPE = 0.332057336215196
WALL_SLOPE_TOL = 1.0e-6
DEFAULT_GRID_POINTS = 241  # eta in [0, 12], step 0.05
COMPARE_HEADER = "eta,fprime_numerical,fprime_hpm"

_NUMERICAL_SLOPE = re.compile(r"numerical = (-?[0-9.]+)")
_EXACT_SLOPE = re.compile(r"\(exact (-?[0-9]+/[0-9]+)\)")


class CheckFailed(Exception):
    """An operation's output is wrong."""


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


def check_exit(returncode: int, stderr: str) -> None:
    require(returncode == 0, f"exit code {returncode}: {stderr.strip()[-200:]}")


def check_series_bytes(data: bytes) -> None:
    digest = hashlib.sha256(data).hexdigest()
    require(digest == SERIES_JSON_SHA256, f"series JSON digest {digest[:12]} differs")


def check_summary(stdout: str) -> None:
    """Wall slopes printed by `compare` / `figure`: exact series value and
    numerical value within WALL_SLOPE_TOL of the literature value."""
    exact = _EXACT_SLOPE.search(stdout)
    require(exact is not None, "summary has no exact series wall slope")
    require(exact.group(1) == HPM_WALL_SLOPE, f"series wall slope {exact.group(1)}")
    numerical = _NUMERICAL_SLOPE.search(stdout)
    require(numerical is not None, "summary has no numerical wall slope")
    gap = abs(float(numerical.group(1)) - LITERATURE_WALL_SLOPE)
    require(gap <= WALL_SLOPE_TOL, f"numerical wall slope off the literature value by {gap:.3g}")


def check_csv(text: str, header: str, rows: int, columns: int) -> None:
    """Header line, exactly ``rows`` data rows of ``columns`` finite numbers."""
    lines = text.split("\n")
    require(lines[-1] == "", "CSV does not end in a newline")
    lines = lines[:-1]
    require(bool(lines) and lines[0] == header, f"CSV header is not {header!r}")
    require(len(lines) - 1 == rows, f"CSV has {len(lines) - 1} rows, expected {rows}")
    for line in (lines[1], lines[-1]):
        cells = line.split(",")
        require(len(cells) == columns, f"CSV row {line[:40]!r} has {len(cells)} cells")
        require(all(math.isfinite(float(c)) for c in cells), f"CSV row {line[:40]!r} not finite")


def check_svg(text: str, points: int) -> None:
    """The figure parses and has both curves with one vertex per grid point."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise CheckFailed(f"SVG does not parse: {exc}") from None
    curves = {el.get("id"): el.get("points", "") for el in root.iter() if el.tag.endswith("polyline")}
    for name in ("numerical", "hpm"):
        require(name in curves, f"SVG has no {name!r} polyline")
        count = len(curves[name].split())
        require(count == points, f"SVG {name!r} polyline has {count} points, expected {points}")


# -- series_ladder -------------------------------------------------------------


def check_series(series, text: str, fprime: list[float], points: int, from_document) -> None:
    """Per-order boundary identities hold exactly, the JSON round-trips to an
    equal series, and the f' partial sum evaluated to finite floats."""
    L = series.config.L
    for j, (f, theta) in enumerate(zip(series.f_corrections, series.theta_corrections)):
        delta = Fraction(1 if j == 0 else 0)
        fp = f.derivative()
        require(f.eval_exact(0) == 0, f"f_{j}(0) != 0")
        require(fp.eval_exact(0) == 0, f"f_{j}'(0) != 0")
        require(fp.eval_exact(L) == delta, f"f_{j}'(L) != {delta}")
        require(theta.eval_exact(0) == delta, f"theta_{j}(0) != {delta}")
        require(theta.eval_exact(L) == 0, f"theta_{j}(L) != 0")
    try:
        again = from_document(json.loads(text))
    except ValueError as exc:  # json.JSONDecodeError is a ValueError
        raise CheckFailed(f"series JSON does not load: {exc}") from None
    require(again == series, "series JSON does not round-trip to an equal series")
    require(len(fprime) == points, f"{len(fprime)} f' values, expected {points}")
    require(all(math.isfinite(v) for v in fprime), "f' partial sum is not finite on the grid")


# -- profile_export ------------------------------------------------------------


def check_trajectory(trajectory, shoot_tol: float) -> None:
    """Far-boundary condition recomputed from the stored trajectory."""
    residual = abs(float(trajectory.fp[-1]) - 1.0)
    require(residual <= shoot_tol, f"|f'(eta_max) - 1| = {residual:.3g} exceeds {shoot_tol:g}")


def check_theta(theta) -> None:
    require(float(theta[0, 1]) == 1.0, f"theta(0) = {float(theta[0, 1])!r}, expected 1")
