"""Exact truncated-domain series and shooting reference solutions for the
flat-plate boundary layer.

The similarity system

    f''' + (1/2) f f'' = 0,            f(0) = 0, f'(0) = 0, f'(inf) = 1
    eps theta'' + (1/2) f theta' = 0,  theta(0) = 1, theta(inf) = 0

is attacked from two sides: a perturbation-series engine that builds
per-order polynomial corrections in exact rational arithmetic with the far
boundary imposed at a finite length L, and a deterministic RK4 shooting
solver that imposes the far boundary at a large eta_max instead.  The
report layer quantifies where the two agree and how violently the
polynomial series departs outside its fitting interval.
"""

from .exact import RationalPolynomial, as_rational
from .hpm import (
    HpmConfig,
    HpmSeries,
    build_series,
    series_from_document,
    series_to_document,
)
from .report import ComparisonReport, Grid, compare, emit_csv, emit_svg_figure
from .shooting import (
    ConvergenceError,
    DivergenceError,
    IntegratorSettings,
    ShootingError,
    ShootingResult,
    Trajectory,
    integrate_blasius,
    solve_shooting,
    theta_profile,
    write_trajectory_csv,
)

__all__ = [
    "RationalPolynomial",
    "as_rational",
    "HpmConfig",
    "HpmSeries",
    "build_series",
    "series_to_document",
    "series_from_document",
    "IntegratorSettings",
    "Trajectory",
    "ShootingResult",
    "ShootingError",
    "DivergenceError",
    "ConvergenceError",
    "integrate_blasius",
    "solve_shooting",
    "theta_profile",
    "write_trajectory_csv",
    "Grid",
    "ComparisonReport",
    "compare",
    "emit_csv",
    "emit_svg_figure",
]

__version__ = "0.1.0"
