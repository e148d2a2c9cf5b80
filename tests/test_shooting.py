"""Numerical solver: validation, convergence, and profile shape.

The frozen value 0.9915420322 for f'(5) at the quoted slope comes from a
fine-step (1e-4) RK4 run performed as an independent oracle.  The scaled
search in solve_shooting is checked against a plain bisection over full
integrations and against the literature value of f''(0).
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from flatplate import shooting
from flatplate._format import CHUNK_ROWS
from flatplate.shooting import (
    ConvergenceError,
    DivergenceError,
    IntegratorSettings,
    integrate_blasius,
    solve_shooting,
    theta_profile,
    write_trajectory_csv,
)

QUOTED_SLOPE = 0.3320574
BOYD_SLOPE = 0.332057336215196  # Boyd 1999, "The Blasius function in the complex plane"


def bisect_far_boundary(settings, lo=0.1, hi=4.0):
    """Oracle: bisection on g(s) = f'(eta_max; s) - 1 over full integrations.

    s* grows as eta_max shrinks (about 2.01 at eta_max = 0.5), so hi is 4.
    """
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if integrate_blasius(mid, settings).fp[-1] < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


SWEEP_ETA_MAX = (1e-6, 1e-3, 0.1, 0.5, 0.99, 1.0, 1.5, 3.0, 10.0)
SWEEP_RATIOS = (3, 10, 1000)  # eta_max/step

# The fixed-step search: the scaled march at the caller's step on every
# domain, with a budget of MAX_STEPS (float.hex; None: it raised).  From
# eta_max = 1 up its s*:
FIXED_STEP_SEARCH = {
    (1.0, 3): "0x1.056b24459983dp+0",
    (1.0, 10): "0x1.056a8bedc40c2p+0",
    (1.0, 1000): "0x1.056a8a747e815p+0",
    (1.5, 3): "0x1.65ee8d91c32a8p-1",
    (1.5, 10): "0x1.65e50ed73d9f6p-1",
    (1.5, 1000): "0x1.65e4fcf99cab8p-1",
    (3.0, 3): "0x1.9f35a00550c1ap-2",
    (3.0, 10): "0x1.9e45244be2a60p-2",
    (3.0, 1000): "0x1.9e4247827ef95p-2",
    (10.0, 3): None,  # unstable at xi = 6.67
    (10.0, 10): None,  # unstable at xi = 7
    (10.0, 1000): "0x1.5406d6aed0c79p-2",
}
# below it the solved s* and its residual:
FIXED_STEP_SOLVE = {
    (1e-06, 3): ("0x1.e8480000000b4p+19", 1.1102230246251565e-16),
    (1e-06, 10): ("0x1.e8480000000b2p+19", 1.1102230246251565e-16),
    (1e-06, 1000): ("0x1.e84800000005fp+19", 4.218847493575595e-15),
    (0.001, 3): ("0x1.f40000aec33e4p+9", 0.0),
    (0.001, 10): ("0x1.f40000aec33e5p+9", 0.0),
    (0.001, 1000): ("0x1.f40000aec33eep+9", 1.3322676295501878e-15),
    (0.1, 3): ("0x1.401111c36e75cp+3", 0.0),
    (0.1, 10): ("0x1.401111be392a8p+3", 2.220446049250313e-16),
    (0.1, 1000): ("0x1.401111be2bff0p+3", 1.3322676295501878e-15),
    (0.5, 3): ("0x1.0156b1fc5328cp+1", 1.4692691507889322e-12),
    (0.5, 10): ("0x1.0156a7d8dde5ep+1", 4.440892098500626e-16),
    (0.5, 1000): ("0x1.0156a7bf52e21p+1", 8.881784197001252e-16),
    (0.99, 3): ("0x1.07f2d9a09f8a3p+0", 1.5052403767867872e-11),
    (0.99, 10): ("0x1.07f23df369b20p+0", 1.7763568394002505e-15),
    (0.99, 1000): ("0x1.07f23c6f0db38p+0", 1.3322676295501878e-15),
}


class TestSettings:
    def test_defaults(self):
        s = IntegratorSettings()
        assert s.eta_max == 10.0 and s.step == 1e-3
        assert s.shoot_tol == 1e-8
        assert [f.name for f in dataclasses.fields(s)] == ["eta_max", "step", "shoot_tol"]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eta_max": 0.0},
            {"step": 0.0},
            {"step": 20.0},
            {"shoot_tol": 0.0},
            {"shoot_tol": -1.0e-8},
            {"eta_max": math.inf},
            {"eta_max": math.nan},
            {"step": math.nan},
            {"shoot_tol": math.inf},
            {"step": math.inf},
            {"shoot_tol": math.nan},
            {"eta_max": 10.0, "step": 10.0 / (shooting.MAX_STEPS + 1)},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            IntegratorSettings(**kwargs)

    def test_step_budget_is_inclusive(self):
        IntegratorSettings(eta_max=1.0, step=1.0 / shooting.MAX_STEPS)


def reference_rk4_step(f, fp, fpp, h):
    """One classical RK4 step as the integrator used to spell it, constants inline."""
    k1_f, k1_fp, k1_fpp = fp, fpp, -0.5 * f * fpp
    f2, fp2, fpp2 = f + 0.5 * h * k1_f, fp + 0.5 * h * k1_fp, fpp + 0.5 * h * k1_fpp
    k2_f, k2_fp, k2_fpp = fp2, fpp2, -0.5 * f2 * fpp2
    f3, fp3, fpp3 = f + 0.5 * h * k2_f, fp + 0.5 * h * k2_fp, fpp + 0.5 * h * k2_fpp
    k3_f, k3_fp, k3_fpp = fp3, fpp3, -0.5 * f3 * fpp3
    f4, fp4, fpp4 = f + h * k3_f, fp + h * k3_fp, fpp + h * k3_fpp
    k4_f, k4_fp, k4_fpp = fp4, fpp4, -0.5 * f4 * fpp4
    return (
        f + h / 6.0 * (k1_f + 2.0 * k2_f + 2.0 * k3_f + k4_f),
        fp + h / 6.0 * (k1_fp + 2.0 * k2_fp + 2.0 * k3_fp + k4_fp),
        fpp + h / 6.0 * (k1_fpp + 2.0 * k2_fpp + 2.0 * k3_fpp + k4_fpp),
    )


def reference_step_march(s, steps):
    """A stand-in for ``shooting._march`` that takes each step with ``reference_rk4_step``."""
    eta, f, fp, fpp = 0.0, 0.0, 0.0, float(s)
    for h in steps:
        f, fp, fpp = reference_rk4_step(f, fp, fpp, h)
        eta += h
        yield eta, f, fp, fpp


def reference_march(s, settings):
    """The stored RK4 loop integrate_blasius used to run, one call per step.

    Kept here as an oracle: the integrator must reproduce its arrays bit for
    bit, divergence location included.
    """
    n_full = int(math.floor(settings.eta_max / settings.step + 1.0e-9))
    remainder = settings.eta_max - n_full * settings.step
    steps = [settings.step] * n_full
    if remainder > 1.0e-12 * settings.eta_max:
        steps.append(remainder)
    rows = [(0.0, 0.0, 0.0, float(s))]
    limit = shooting.DIVERGENCE_LIMIT * max(1.0, abs(s))  # f'' only decreases from s
    for eta, f, fp, fpp in reference_step_march(s, steps):
        if abs(fpp) > limit or not (
            math.isfinite(f) and math.isfinite(fp) and math.isfinite(fpp)
        ):
            raise DivergenceError(eta, s)
        rows.append((eta, f, fp, fpp))
    rows[-1] = (settings.eta_max, *rows[-1][1:])
    return [np.array(column) for column in zip(*rows)]


class TestIntegrator:
    @pytest.mark.parametrize(
        "s, eta_max, step",
        [
            (0.332, 10.0, 1e-3),
            (0.332, 2.5, 0.3),  # ends on a partial step of 0.1
            (0.332, 0.5, 0.01),
            (1.0, 7.0, 1e-3),  # F of the scaled march
            (2.0, 0.5, 0.01),
            (0.332, 1.05, 0.1),  # ends on a partial step of 0.05
            (-1.0, 10.0, 0.01),  # diverges
            (1.0e6, 1.0e-6, 1.0e-9),  # f'' above the bare limit all the way
            (-3.0e6, 1.0, 0.01),  # diverges past the scaled limit
            (-1.0, 10.0, 1e-3),  # diverges in the eighth chunk of CHUNK_ROWS states
            (-0.5, 40.0, 0.05),  # diverges near eta = 4.95, long before eta_max
        ],
    )
    def test_matches_reference_march(self, s, eta_max, step):
        settings = IntegratorSettings(eta_max=eta_max, step=step)
        try:
            expected = reference_march(s, settings)
        except DivergenceError as ref:
            with pytest.raises(DivergenceError) as err:
                integrate_blasius(s, settings)
            assert err.value.eta == ref.eta
            return
        traj = integrate_blasius(s, settings)
        for got, want in zip((traj.eta, traj.f, traj.fp, traj.fpp), expected):
            assert got.typecode == "d"
            assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "eta_max, step", [(10.0, 1e-3), (0.5, 0.01), (2.5, 0.3), (12.0, 1e-3)]
    )
    def test_every_march_consumer_matches_reference_step(self, monkeypatch, eta_max, step):
        # the scaled march, the Newton pass and the stored trajectory all run
        # shooting._march, so swapping in the reference step must change no bit
        settings = IntegratorSettings(eta_max=eta_max, step=step)
        result = solve_shooting(settings)
        monkeypatch.setattr(shooting, "_march", reference_step_march)
        expected = solve_shooting(settings)
        assert result.s_star == expected.s_star
        assert result.residual == expected.residual
        for name in ("eta", "f", "fp", "fpp"):
            assert np.array_equal(getattr(result.trajectory, name),
                                  getattr(expected.trajectory, name))

    @pytest.mark.parametrize("bad", [1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1])
    def test_first_bad_row_at_chunk_edges(self, monkeypatch, bad):
        # the march is checked CHUNK_ROWS states at a time; every row after
        # ``bad`` is bad too, so only the first one may be reported
        def march(s, steps):
            for row, h in enumerate(steps, start=1):
                yield row * h, 0.1, 0.2, (math.inf if row >= bad else 0.3)

        monkeypatch.setattr(shooting, "_march", march)
        with pytest.raises(DivergenceError) as err:
            integrate_blasius(0.3, IntegratorSettings(eta_max=3.0 * CHUNK_ROWS, step=1.0))
        assert err.value.eta == bad

    def test_initial_conditions_and_grid(self):
        traj = integrate_blasius(0.3, IntegratorSettings(eta_max=2.0, step=1e-2))
        assert traj.f[0] == 0.0 and traj.fp[0] == 0.0 and traj.fpp[0] == 0.3
        assert traj.eta[0] == 0.0 and traj.eta[-1] == 2.0
        assert np.all(np.diff(traj.eta) > 0)
        assert len(traj) == 201

    def test_final_partial_step(self):
        traj = integrate_blasius(0.3, IntegratorSettings(eta_max=1.05, step=0.1))
        assert traj.eta[-1] == pytest.approx(1.05)
        assert len(traj) == 12  # 10 full steps, one half step, plus the origin

    def test_quoted_slope_reaches_far_field(self):
        traj = integrate_blasius(QUOTED_SLOPE, IntegratorSettings(eta_max=10.0, step=1e-3))
        assert abs(traj.fp[-1] - 1.0) <= 1e-5

    def test_profile_flatness_at_five(self):
        # fine-step oracle value; the default step agrees to ~1e-9
        fine = integrate_blasius(QUOTED_SLOPE, IntegratorSettings(eta_max=5.0, step=1e-4))
        assert fine.fp[-1] == pytest.approx(0.9915420322, abs=1e-8)
        default = integrate_blasius(QUOTED_SLOPE, IntegratorSettings(eta_max=5.0, step=1e-3))
        assert default.fp[-1] == pytest.approx(fine.fp[-1], abs=1e-6)

    def test_divergence_raises_with_location(self):
        settings = IntegratorSettings(eta_max=10.0, step=1e-3)
        with pytest.raises(DivergenceError) as err:
            integrate_blasius(-1.0, settings)
        assert 0.0 < err.value.eta < 10.0
        assert err.value.s == -1.0
        # the first step past DIVERGENCE_LIMIT, bit for bit as the reference march finds it
        assert err.value.eta == 3.9179999999996795
        with pytest.raises(DivergenceError) as ref:
            reference_march(-1.0, settings)
        assert err.value.eta == ref.value.eta

    def test_rejects_nonfinite_slope(self):
        with pytest.raises(ValueError):
            integrate_blasius(math.nan, IntegratorSettings())

    def test_fourth_order_convergence(self):
        # coarse steps so truncation error dominates roundoff
        values = {
            h: integrate_blasius(0.33, IntegratorSettings(eta_max=8.0, step=h)).fp[-1]
            for h in (0.4, 0.2, 0.1, 0.05)
        }
        ratio1 = (values[0.4] - values[0.2]) / (values[0.2] - values[0.1])
        ratio2 = (values[0.2] - values[0.1]) / (values[0.1] - values[0.05])
        assert 10.0 < abs(ratio1) < 22.0
        assert 10.0 < abs(ratio2) < 22.0


class TestShooting:
    def test_default_solution(self, default_shot):
        assert default_shot.s_star == pytest.approx(QUOTED_SLOPE, abs=1e-6)
        assert default_shot.residual <= 1e-8
        assert default_shot.iterations == 2
        assert default_shot.trajectory.eta[-1] == 10.0

    @pytest.mark.parametrize(
        "eta_max, step",
        [(5.0, 1e-2), (2.0, 1e-2), (10.0, 0.05), (10.0, 0.1), (1.0, 1e-2), (0.5, 1e-2)],
    )
    def test_agrees_with_bisection_oracle(self, eta_max, step):
        # the march runs at a step the caller's grid does not use; at coarse
        # steps that gap alone would leave a residual above the default tol
        settings = IntegratorSettings(eta_max=eta_max, step=step)
        result = solve_shooting(settings)
        assert abs(result.s_star - bisect_far_boundary(settings)) <= 1e-10
        assert result.residual <= 1e-10

    def test_literature_value(self):
        result = solve_shooting(IntegratorSettings(eta_max=15.0, step=1e-3))
        assert abs(result.s_star - BOYD_SLOPE) <= 1e-12

    def test_boyd_value_to_1e13_at_a_coarser_step(self):
        # Boyd's 15 digits come from outside this code; the gap is 6.1e-15 on x86-64
        result = solve_shooting(IntegratorSettings(eta_max=15, step=0.0025))
        assert abs(result.s_star - BOYD_SLOPE) <= 1e-13

    def test_march_step_budget(self, monkeypatch):
        # a march whose F' never grows never reaches f'(eta_max) = 1, so the
        # search gives up after twice the caller's 100 steps
        states = []

        def flat_march(s, steps):
            for xi in itertools.accumulate(steps):
                states.append(xi)
                yield xi, 0.0, 0.0, 1.0

        monkeypatch.setattr(shooting, "_march", flat_march)
        with pytest.raises(ConvergenceError, match="needs more than 200 steps"):
            solve_shooting(IntegratorSettings(eta_max=1e-3, step=1e-5))
        assert len(states) == 200

    def test_overflowing_march_raises(self):
        with pytest.raises(ConvergenceError, match=r"went unstable \(F' = -inf .*too coarse"):
            solve_shooting(IntegratorSettings(eta_max=1e100, step=1e100))

    def test_unstable_march_stops_at_negative_slope(self):
        # at this step the march turns F' negative near xi = 45.5 and would
        # never reach the far condition, so it must stop there, not at its
        # budget of twice the caller's 1000 steps
        with pytest.raises(ConvergenceError, match="too coarse"):
            solve_shooting(IntegratorSettings(eta_max=100.0, step=0.1))

    @pytest.mark.parametrize("eta_max", SWEEP_ETA_MAX)
    @pytest.mark.parametrize("ratio", SWEEP_RATIOS)
    def test_search_sweep(self, monkeypatch, eta_max, ratio):
        # the search yields at most 2n states of the caller's n; from
        # eta_max = 1 up it is bit-equal to the fixed-step search, and below
        # it solves wherever that one did
        settings = IntegratorSettings(eta_max=eta_max, step=eta_max / ratio)
        n = shooting._steps(settings)[0]
        yielded = []
        march = shooting._march

        def counted(s, steps):
            yielded.append(0)
            for state in march(s, steps):
                yielded[-1] += 1
                yield state

        monkeypatch.setattr(shooting, "_march", counted)
        try:
            search = shooting._scaled_root(settings).hex()
        except ConvergenceError:
            search = None
        assert yielded == [yielded[0]] and yielded[0] <= 2 * n
        if eta_max >= 1.0:
            assert search == FIXED_STEP_SEARCH[eta_max, ratio]
            return
        result = solve_shooting(settings)
        assert result.residual <= settings.shoot_tol
        fixed, fixed_residual = FIXED_STEP_SOLVE[eta_max, ratio]
        fixed = float.fromhex(fixed)
        # at eta_max/step = 3 one Newton step leaves the fixed-step solve up
        # to 1.5e-11 off the far condition; there this root must lie closer
        assert (abs(result.s_star - fixed) <= 1e-12 * fixed
                or result.residual < fixed_residual)

    @pytest.mark.parametrize("step", [1.0, 2.0])
    def test_too_coarse_step_raises(self, step):
        # step 1 lands on a residual above tol, step 2 on a negative g'(s)
        with pytest.raises(ConvergenceError):
            solve_shooting(IntegratorSettings(step=step))

    def test_shooting_function_is_increasing(self):
        settings = IntegratorSettings()
        probes = [0.15, 0.25, 0.35, 0.55, 0.75, 0.95]
        values = [
            integrate_blasius(s, settings).fp[-1] - 1.0 for s in probes
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_converged_profile_shape(self, default_shot):
        traj = default_shot.trajectory
        assert np.all(np.asarray(traj.fpp) > 0)
        assert np.all(np.diff(traj.fp) > 0)
        interior = np.asarray(traj.fp)[1:-1]
        assert np.all(interior > 0) and np.all(interior < 1)


class TestThetaProfile:
    def test_endpoints_pinned(self, default_shot):
        profile = theta_profile(default_shot.trajectory, epsilon=1.0)
        assert profile[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert profile[-1, 1] == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("eps", [1.0, 2.0, 10.0])
    def test_strictly_decreasing_in_unit_band(self, default_shot, eps):
        theta = theta_profile(default_shot.trajectory, epsilon=eps)[:, 1]
        assert np.all(np.diff(theta) < 0)
        assert np.all(theta >= 0.0) and np.all(theta <= 1.0)

    def test_large_epsilon_limit_is_linear(self, default_shot):
        profile = theta_profile(default_shot.trajectory, epsilon=1e6)
        line = 1.0 - profile[:, 0] / 10.0
        assert np.max(np.abs(profile[:, 1] - line)) < 1e-3

    @pytest.mark.parametrize("eps", [0.01, 0.5])
    def test_small_epsilon_stays_bounded_and_monotone(self, default_shot, eps):
        # below eps ~ 1 the tail decrements drop under one ulp of 1.0, so
        # only non-strict monotonicity survives in float64
        theta = theta_profile(default_shot.trajectory, epsilon=eps)[:, 1]
        assert np.all(np.diff(theta) <= 0)
        assert np.all(theta >= 0.0) and np.all(theta <= 1.0)

    def test_rejects_nonpositive_epsilon(self, default_shot):
        with pytest.raises(ValueError):
            theta_profile(default_shot.trajectory, epsilon=0.0)


class TestTrajectoryCsv:
    def test_format(self, tmp_path):
        traj = integrate_blasius(0.33, IntegratorSettings(eta_max=1.0, step=0.25))
        out = tmp_path / "traj.csv"
        write_trajectory_csv(traj, out)
        raw = out.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "eta,f,fp,fpp"
        assert len(lines) == 1 + len(traj)
        first = lines[1].split(",")
        assert first[0] == "0.000000000"
        # every cell carries at least nine significant digits
        for cell in lines[2].split(","):
            digits = cell.replace("-", "").replace(".", "").lstrip("0")
            assert len(digits) >= 9

    def test_stamp_lines_are_comments(self, tmp_path):
        traj = integrate_blasius(0.33, IntegratorSettings(eta_max=1.0, step=0.5))
        out = tmp_path / "traj.csv"
        write_trajectory_csv(traj, out, stamp_lines=("key=value",))
        lines = out.read_text().splitlines()
        assert lines[0] == "# key=value"
        assert lines[1] == "eta,f,fp,fpp"

    def test_deterministic_bytes(self, tmp_path):
        traj = integrate_blasius(0.33, IntegratorSettings(eta_max=1.0, step=0.25))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trajectory_csv(traj, a)
        write_trajectory_csv(traj, b)
        assert a.read_bytes() == b.read_bytes()
