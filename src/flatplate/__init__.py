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

The public names below resolve on first use (PEP 562): ``import flatplate``
loads none of the submodules, and ``flatplate.solve_shooting`` or
``from flatplate import Grid`` loads only the module that defines the name
and what that module imports.
"""

from importlib import import_module

# Each public name and the submodule that defines it.  Nothing is imported
# until a name is first read, so ``import flatplate`` is cheap and a run that
# only builds series never loads the shooting or report layers.
_HOMES = {
    "RationalPolynomial": "exact",
    "as_rational": "exact",
    "HpmConfig": "hpm",
    "HpmSeries": "hpm",
    "build_series": "hpm",
    "series_to_document": "hpm",
    "series_from_document": "hpm",
    "IntegratorSettings": "shooting",
    "Trajectory": "shooting",
    "ShootingResult": "shooting",
    "ShootingError": "shooting",
    "DivergenceError": "shooting",
    "ConvergenceError": "shooting",
    "integrate_blasius": "shooting",
    "solve_shooting": "shooting",
    "theta_profile": "shooting",
    "write_trajectory_csv": "shooting",
    "Grid": "report",
    "ComparisonReport": "report",
    "compare": "report",
    "emit_csv": "report",
    "emit_svg_figure": "report",
}

__all__ = list(_HOMES)

__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name, or one of the four home submodules, loaded on first use.

    The value is looked up in its home module on every read, not cached here,
    so it is always that module's current attribute.
    """
    if name in _HOMES:
        return getattr(import_module(f".{_HOMES[name]}", __name__), name)
    if name in _HOMES.values():
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
