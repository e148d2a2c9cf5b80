#!/usr/bin/env python3
"""Find f''(0) by shooting and show that eta_max genuinely stands in for infinity.

Solves the momentum equation with the default settings, then repeats the
solve over a ladder of domain truncations and step sizes so the quoted
convergence claims are visible rather than asserted.  Finishes with the
temperature profile for a few epsilon values.
"""

from __future__ import annotations

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from flatplate import IntegratorSettings, solve_shooting, theta_profile, write_trajectory_csv


def main() -> int:
    result = solve_shooting(IntegratorSettings())
    print("default solve (eta_max = 10, step = 1e-3):")
    print(f"  s* = f''(0) = {result.s_star:.9f}")
    print(f"  residual |f'(eta_max) - 1| = {result.residual:.2e}")
    print(f"  search passes = {result.iterations}")

    print()
    print("sensitivity to the infinity stand-in (same step):")
    base = result.s_star
    for eta_max in (5.0, 8.0, 10.0, 15.0):
        s = solve_shooting(IntegratorSettings(eta_max=eta_max)).s_star
        print(f"  eta_max = {eta_max:>4}: s* = {s:.9f}   (s* - s*_10 = {s - base:+.2e})")

    print()
    print("sensitivity to the RK4 step (eta_max = 10):")
    for step in (4e-3, 2e-3, 1e-3, 5e-4):
        s = solve_shooting(IntegratorSettings(step=step)).s_star
        print(f"  step = {step:6.0e}: s* = {s:.12f}")

    print()
    print("temperature profiles from the converged trajectory:")
    for eps in (0.1, 1.0, 10.0):
        profile = theta_profile(result.trajectory, epsilon=eps)
        mid = profile[len(profile) // 2]
        print(f"  epsilon = {eps:>5}: theta(0) = {profile[0, 1]:.3f}, "
              f"theta({mid[0]:.0f}) = {mid[1]:.5f}, theta(10) = {profile[-1, 1]:.1e}")

    out_dir = Path(__file__).resolve().parent / "output"
    out_dir.mkdir(exist_ok=True)
    csv_path = out_dir / "trajectory.csv"
    write_trajectory_csv(result.trajectory, csv_path)
    print()
    print(f"converged trajectory written to {csv_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
