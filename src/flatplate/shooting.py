"""Reference numerical solution of the boundary-layer system.

The momentum equation f''' + (1/2) f f'' = 0 is integrated as a first-order
system with classical fixed-step RK4.  The unknown wall curvature
s = f''(0) comes from Toepfer's scaling: f(eta) = a F(a eta) solves the
equation for every a > 0, so one forward march of F with F''(0) = 1 finds
the a for which f'(eta_max) = 1, at any finite eta_max, and s = a^3.  RK4
commutes with that scaling, so a march at step h is f integrated at step
h/a rather than h; one integration at the caller's step and one Newton step,
whose slope the scaling also gives, move s onto the root of the caller's
discrete problem.  There is no root-finding loop over full integrations; a
last integration gives the trajectory and the far-boundary residual.
Everything is deterministic; there is no adaptive stepping and no library
solver, so convergence order and reproducibility are testable properties
rather than implementation accidents.

The temperature profile never needs a second shooting loop: the theta
equation is linear in theta, so theta' = theta'(0) exp(-(1/(2 eps)) int f)
and one trapezoid pass over the stored trajectory produces theta with
theta(0) = 1 and theta(eta_max) = 0 enforced by normalization.

eta_max is the honest stand-in for infinity here; its adequacy is measured
(s* moves by < 1e-7 between eta_max 10 and 15), not assumed.

The stored march is checked and kept with the stdlib alone, in
``array('d')`` columns, however long it is, so solving never loads numpy.
numpy reads those columns in place through the buffer protocol.
``theta_profile`` always uses numpy, since ``np.exp`` and ``math.exp``
differ in the last bit.
"""

from __future__ import annotations

import itertools
import math
import struct
from array import array
from collections import deque
from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:
    import numpy as np

from . import _format
from ._record import _Record

# integrate_blasius reports the first step where |f''| exceeds this times
# max(1, |s|); diverging probe slopes blow up through it quickly, while on a
# physical trajectory f'' only decreases from s.
DIVERGENCE_LIMIT = 1.0e6

# Upper bound on eta_max/step and on the points of a comparison grid.  A
# stored trajectory peaks at about 32 bytes per step, its columns, plus one
# chunk of states (tracemalloc: 613 KiB for 12 001 states, 32.2 MB for 10^6).
MAX_STEPS = 10**6

class ShootingError(Exception):
    """Base class for solver failures."""


class DivergenceError(ShootingError):
    """State overflow during integration; carries the eta where it happened."""

    def __init__(self, eta: float, s: float):
        super().__init__(f"integration diverged at eta = {eta:.6g} for initial slope s = {s:.6g}")
        self.eta = eta
        self.s = s


class ConvergenceError(ShootingError):
    """The scaled march failed, or the far-boundary residual exceeds the tolerance."""


class IntegratorSettings(_Record):
    __slots__ = ("eta_max", "step", "shoot_tol")

    def __init__(self, eta_max: float = 10.0, step: float = 1.0e-3, shoot_tol: float = 1.0e-8):
        for name, value in (("eta_max", eta_max), ("step", step), ("shoot_tol", shoot_tol)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not eta_max > 0:
            raise ValueError(f"eta_max must be > 0, got {eta_max}")
        if not 0 < step <= eta_max:
            raise ValueError(f"step must satisfy 0 < step <= eta_max, got {step}")
        if eta_max / step > MAX_STEPS:
            raise ValueError(
                # repr: the shortest digits that tell the ratio from the budget
                f"eta_max/step = {eta_max / step!r} exceeds the budget of "
                f"{MAX_STEPS} steps"
            )
        if not shoot_tol > 0:
            raise ValueError(f"shoot_tol must be > 0, got {shoot_tol}")
        super().__init__(eta_max, step, shoot_tol)


class Trajectory(_Record):
    """Samples (eta, f, f', f'') on the integration grid, eta increasing from 0.

    Each field is an ``array('d')``; ``np.asarray`` views it without a copy.
    """

    __slots__ = ("eta", "f", "fp", "fpp")

    def __init__(self, eta: array, f: array, fp: array, fpp: array):
        super().__init__(eta, f, fp, fpp)

    def __len__(self) -> int:
        return len(self.eta)


class ShootingResult(_Record):
    __slots__ = ("s_star", "trajectory", "residual", "iterations")

    # iterations: the RK4 passes the search for s* made, the march and one integration
    def __init__(self, s_star: float, trajectory: Trajectory, residual: float, iterations: int):
        super().__init__(s_star, trajectory, residual, iterations)


def _steps(settings: IntegratorSettings) -> tuple[int, Iterator[float]]:
    """The number of uniform steps over [0, eta_max], a final partial one allowed, and the steps."""
    n_full = int(math.floor(settings.eta_max / settings.step + 1.0e-9))
    remainder = settings.eta_max - n_full * settings.step
    steps = itertools.repeat(settings.step, n_full)
    if remainder > 1.0e-12 * settings.eta_max:
        return n_full + 1, itertools.chain(steps, (remainder,))
    return n_full, steps


def _march(s: float, steps):
    """Classical RK4 from (eta, f, f', f'') = (0, 0, 0, s): the state after each step."""
    eta, f, fp, fpp = 0.0, 0.0, 0.0, float(s)
    h = None
    for step in steps:
        if step != h:  # a uniform grid changes step at most once, at its partial step
            h, half, sixth = step, 0.5 * step, step / 6.0
        # the stage slopes of f and f' are the stage values of f' and f''
        k1 = -0.5 * f * fpp
        f2, fp2, fpp2 = f + half * fp, fp + half * fpp, fpp + half * k1
        k2 = -0.5 * f2 * fpp2
        f3, fp3, fpp3 = f + half * fp2, fp + half * fpp2, fpp + half * k2
        k3 = -0.5 * f3 * fpp3
        f4, fp4, fpp4 = f + h * fp3, fp + h * fpp3, fpp + h * k3
        k4 = -0.5 * f4 * fpp4
        f, fp, fpp = (
            f + sixth * (fp + 2.0 * fp2 + 2.0 * fp3 + fp4),
            fp + sixth * (fpp + 2.0 * fpp2 + 2.0 * fpp3 + fpp4),
            fpp + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4),
        )
        eta += h
        yield eta, f, fp, fpp


def integrate_blasius(s: float, settings: IntegratorSettings) -> Trajectory:
    """Integrate from (f, f', f'') = (0, 0, s) to eta_max, recording every step.

    Raises DivergenceError at the first step where |f''| passes
    DIVERGENCE_LIMIT * max(1, |s|) or the state stops being finite.
    """
    if not math.isfinite(s):
        raise ValueError(f"initial slope must be finite, got {s!r}")
    count, steps = _steps(settings)
    limit = DIVERGENCE_LIMIT * max(1.0, abs(s))
    columns = [array("d", [0.0]) * (count + 1) for _ in range(4)]
    columns[3][0] = s
    # checked and stored CHUNK_ROWS states at a time; struct packs a tuple of
    # floats into an array about twice as fast as array("d", values) makes one
    march = _march(s, steps)
    for start in range(1, count + 1, _format.CHUNK_ROWS):
        rows = list(itertools.islice(march, _format.CHUNK_ROWS))
        chunk = [*zip(*rows)]  # eta, f, f', f'' of these rows
        fpp = chunk[3]
        if not (math.isfinite(sum(map(sum, chunk))) and -limit <= min(fpp) and max(fpp) <= limit):
            # the first bad row; a sum of finite values can overflow, so there may be none
            for state in rows:
                if not (abs(state[3]) <= limit and all(map(math.isfinite, state))):
                    raise DivergenceError(state[0], s)
        for column, values in zip(columns, chunk):
            struct.pack_into(f"{len(values)}d", column, 8 * start, *values)
    # land the last node exactly on eta_max (it differs only by accumulated roundoff)
    columns[0][-1] = settings.eta_max
    return Trajectory(*columns)


def _scaled_root(settings: IntegratorSettings) -> float:
    """s* from one march of F with (F, F', F'')(0) = (0, 0, 1), storing nothing.

    f(eta) = a F(a eta) solves the momentum equation with f''(0) = a^3, so
    f'(eta_max) = 1 becomes (xi/eta_max)^2 F'(xi) = 1 at xi = a eta_max.  The
    march steps h = step max(1, 1/eta_max)^(1/3) in xi, f at step h/a: from
    eta_max = 1 up h is the caller's step, and below h/a is never coarser
    than it, since f'' falls from s, so s eta_max >= 1 and a >= eta_max^(-1/3).
    The left side grows without bound, so the march ends after about
    a eta_max / h steps, below 1.34 n on every domain swept (n the caller's
    step count) and never past 2n, or at the first step where F' is negative
    or not finite: there the step is too coarse for RK4 to stay stable.  The
    root inside the last step is bisected on the cubic Hermite interpolant of
    F' built from F' and F'' at its two ends.
    """
    eta_max, budget = settings.eta_max, 2 * _steps(settings)[0]
    h = settings.step * max(1.0, 1.0 / eta_max) ** (1.0 / 3.0)
    xi, Fp, Fpp = 0.0, 0.0, 1.0
    for xi1, _, Fp1, Fpp1 in _march(1.0, itertools.repeat(h, budget)):
        reach = xi1 / eta_max
        if not 0.0 <= reach * reach * Fp1 < 1.0:
            break
        xi, Fp, Fpp = xi1, Fp1, Fpp1
    else:
        raise ConvergenceError(
            f"the scaled march needs more than {budget} steps at "
            f"eta_max = {eta_max:g}, step = {settings.step:g}"
        )
    if not 0.0 <= Fp1 < math.inf:
        raise ConvergenceError(
            f"the scaled march went unstable (F' = {Fp1:.3g} at xi = {xi1:.6g}); "
            f"step = {settings.step:g} is too coarse"
        )

    def defect(x: float) -> float:
        t = (x - xi) / h
        fp = (
            (2.0 * t - 3.0) * t * t * (Fp - Fp1)
            + Fp
            + h * t * ((t - 1.0) ** 2 * Fpp + t * (t - 1.0) * Fpp1)
        )
        return (x / eta_max) ** 2 * fp - 1.0

    lo, hi = xi, xi + h
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if defect(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return (mid / eta_max) ** 3


def solve_shooting(settings: IntegratorSettings = IntegratorSettings()) -> ShootingResult:
    """Find s = f''(0) such that f'(eta_max) = 1.

    One scaled march (see ``_scaled_root``) gives s* up to the O(step^4)
    gap between its step and the caller's.  One integration at that s, with
    nothing stored, and one Newton step on g(s) = f'(eta_max; s) - 1 close
    the gap, with g'(s) = (2 f'(eta_max) + eta_max f''(eta_max)) / (3 s)
    from the scaling; one more integration gives the trajectory and the
    residual.  No initial guess is needed, so short domains such as
    eta_max = 0.5 are solved like long ones.
    """
    s_star = _scaled_root(settings)
    _, _, fp_end, fpp_end = deque(_march(s_star, _steps(settings)[1]), maxlen=1).pop()
    slope = (2.0 * fp_end + settings.eta_max * fpp_end) / (3.0 * s_star)
    if not (math.isfinite(fp_end) and slope > 0.0):
        raise ConvergenceError(
            f"g'(s) = {slope:.3g} at s = {s_star:.6g} is not positive; "
            f"step = {settings.step:g} is too coarse"
        )
    s_star -= (fp_end - 1.0) / slope
    trajectory = integrate_blasius(s_star, settings)
    residual = abs(float(trajectory.fp[-1]) - 1.0)
    if residual > settings.shoot_tol:
        raise ConvergenceError(
            f"far-boundary residual {residual:.3g} exceeds shoot_tol {settings.shoot_tol:.3g}"
        )
    return ShootingResult(s_star=s_star, trajectory=trajectory, residual=residual, iterations=2)


def theta_profile(trajectory: Trajectory, epsilon: float) -> np.ndarray:
    """Temperature profile by integrating-factor quadrature.

    Returns an (n, 2) array of (eta, theta) rows on the trajectory grid.
    theta(0) = 1 and theta(eta_max) = 0 hold by construction of the
    normalization; for epsilon -> infinity the profile tends to the straight
    line 1 - eta/eta_max.
    """
    import numpy as np

    if not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    eta, f = np.asarray(trajectory.eta), np.asarray(trajectory.f)
    d_eta = np.diff(eta)
    inner = np.concatenate([[0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * d_eta)])
    weight = np.exp(-inner / (2.0 * epsilon))
    outer = np.concatenate([[0.0], np.cumsum(0.5 * (weight[1:] + weight[:-1]) * d_eta)])
    theta = 1.0 - outer / outer[-1]
    return np.column_stack([eta, theta])


def write_trajectory_csv(trajectory: Trajectory, path, stamp_lines: Sequence[str] = ()) -> None:
    """CSV export: header eta,f,fp,fpp and one row per grid point (see ``write_csv``)."""
    columns = (trajectory.eta, trajectory.f, trajectory.fp, trajectory.fpp)
    _format.write_csv(path, "eta,f,fp,fpp", columns, stamp_lines)
