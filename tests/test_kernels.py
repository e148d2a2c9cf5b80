"""The stdlib kernels are bit-equal twins of the numpy kernels.

Every report array picks its kernel by ``flatplate._format.loaded_numpy``.
The ``stdlib`` fixture makes it pick the stdlib one although numpy is loaded
here; every twin test runs both and compares bits or bytes.  The stored
march has one kernel; ``TestIntegrator`` pins it against the numpy store it
replaced and pins its divergence scan.
"""

import dataclasses
import itertools
import math
import random
from array import array

import numpy as np
import pytest

from flatplate import _format, report, shooting
from flatplate._format import CHUNK_ROWS, _PURE_MAX_POINTS, write_csv
from flatplate.report import ComparisonReport, Grid, compare, emit_svg_figure
from flatplate.shooting import DivergenceError, IntegratorSettings, integrate_blasius

SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 0.1, -0.1, 0.09999999999999999,
           0.01, 0.001, 1e-5, 1e-9, 1e-10, -1e-3, 1.0, 10.0, 1e6, 5e-324, 1e300]


@pytest.fixture
def stdlib(monkeypatch):
    """Run the block under the stdlib kernels."""

    def use_stdlib(block):
        with monkeypatch.context() as patch:
            patch.setattr(_format, "loaded_numpy", lambda: None)
            return block()

    return use_stdlib


def bits(values) -> list[int]:
    """The float64 bit patterns, so -0.0, nan and inf compare exactly."""
    return np.asarray(list(values), dtype=np.float64).view(np.uint64).tolist()


def random_values(rng: random.Random, n: int) -> list[float]:
    """Mostly ordinary floats, with special and decade-boundary cells mixed in."""
    out = []
    for _ in range(n):
        pick = rng.random()
        if pick < 0.2:
            out.append(rng.choice(SPECIAL))
        elif pick < 0.3:  # a power of ten, or one ulp either side of it
            v = 10.0 ** rng.randrange(-12, 3)
            out.append(rng.choice([v, math.nextafter(v, 0.0), math.nextafter(v, 1.0)]))
        else:
            out.append(rng.uniform(-2.0, 2.0) * 10.0 ** rng.randrange(-6, 4))
    return out


class TestInterp:
    @pytest.mark.parametrize("seed", [*range(20), "flat"])
    def test_matches_np_interp(self, seed):
        if seed == "flat":  # both ends give nan on a flat segment of infs, so its value
            xp, fp, xs = [0.0, 1.0, 2.0], [0.0, math.inf, math.inf], [1.5]
        else:
            rng = random.Random(seed)
            xp = sorted({rng.uniform(-5.0, 5.0) for _ in range(rng.randrange(2, 60))})
            if len(xp) < 2:
                xp = [0.0, 1.0]
            fp = [rng.choice([math.nan, math.inf, -math.inf, 1e308, -1e308])
                  if rng.random() < 0.1 else rng.uniform(-2.0, 2.0) for _ in xp]
            xs = [rng.uniform(-6.0, 6.0) for _ in range(200)]
            xs += [*xp, xp[0], xp[-1], math.nan, -math.inf, math.inf, math.nextafter(xp[-1], 9.0)]
        want = np.interp(np.array(xs), np.array(xp), np.array(fp), right=1.0)
        got = [report._interp(x, array("d", xp), array("d", fp), 1.0) for x in xs]
        assert bits(got) == bits(want)

    def test_default_trajectory_and_grid(self, default_shot):
        traj = default_shot.trajectory
        xs = [*Grid().points(), *traj.eta, 10.0, 10.0 + 1e-9]
        want = np.interp(np.array(xs), traj.eta, traj.fp, right=1.0)
        assert bits(report._interp(x, traj.eta, traj.fp, 1.0) for x in xs) == bits(want)


class TestWriteCsv:
    @pytest.mark.parametrize(
        "rows", [1, 2, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1]
    )
    @pytest.mark.parametrize("width", [3, 4])
    def test_matches_numpy_writer(self, tmp_path, stdlib, rows, width):
        rng = random.Random(rows * 10 + width)
        columns = [random_values(rng, rows) for _ in range(width)]
        header = ",".join(f"c{k}" for k in range(width))
        write_csv(tmp_path / "numpy.csv", header, [np.array(c) for c in columns], ["stamp"])
        stdlib(lambda: write_csv(tmp_path / "stdlib.csv", header,
                                 [array("d", c) for c in columns], ["stamp"]))
        assert (tmp_path / "stdlib.csv").read_bytes() == (tmp_path / "numpy.csv").read_bytes()


def numpy_integrator(s: float, settings: IntegratorSettings) -> shooting.Trajectory:
    """The stored march as numpy once kept it: one np.fromiter over the
    states, a vectorised divergence scan and eta pinned to eta_max."""
    count, steps = shooting._steps(settings)
    stream = itertools.chain((0.0, 0.0, 0.0, float(s)),
                             itertools.chain.from_iterable(shooting._march(s, steps)))
    states = np.fromiter(stream, np.float64, count=4 * (count + 1)).reshape(-1, 4)
    marched = states[1:]
    limit = shooting.DIVERGENCE_LIMIT * max(1.0, abs(s))
    bad = (np.abs(marched[:, 3]) > limit) | ~np.isfinite(marched).all(axis=1)
    if bad.any():
        raise DivergenceError(float(marched[bad.argmax(), 0]), s)
    states[-1, 0] = settings.eta_max
    return shooting.Trajectory(*states.T.copy())


class TestIntegrator:
    @pytest.mark.parametrize(
        "s, eta_max, step",
        [(0.332, 10.0, 1e-3), (0.332, 2.5, 0.3), (2.0, 0.5, 0.01), (1.0e6, 1.0e-6, 1.0e-9),
         (-1.0, 10.0, 1e-3), (-1.0, 10.0, 0.01), (-3.0e6, 1.0, 0.01), (-0.5, 40.0, 0.05)],
    )
    def test_matches_numpy_integrator(self, stdlib, s, eta_max, step):
        # the chunked stdlib store against the vectorised numpy one it replaced
        settings = IntegratorSettings(eta_max=eta_max, step=step)
        try:
            want = numpy_integrator(s, settings)
        except DivergenceError as err:
            with pytest.raises(DivergenceError) as again:
                stdlib(lambda: integrate_blasius(s, settings))
            assert again.value.eta == err.eta
            return
        got = stdlib(lambda: integrate_blasius(s, settings))
        for name in ("eta", "f", "fp", "fpp"):
            assert isinstance(getattr(got, name), array)
            assert bits(getattr(got, name)) == bits(getattr(want, name))

    @pytest.mark.parametrize(
        "rows, state, bad",
        [({1}, (math.nan, 0.0, 0.0), 1), ({3, 4}, (0.0, math.inf, 0.0), 3),
         ({5}, (0.0, 0.0, -math.inf), 5), ({7}, (0.0, 0.0, 2.0e6), 7),
         ({7, 2}, (0.0, 0.0, -2.0e6), 2), ({9}, (0.0, 0.0, math.nan), 9),
         ({8, 9}, (1.0e308, 1.0e308, 0.0), None)],  # finite rows whose sum overflows
    )
    def test_first_divergent_row(self, monkeypatch, rows, state, bad):
        def march(s, steps):
            for row, h in enumerate(steps, start=1):
                yield (row * h, *state) if row in rows else (row * h, 0.1, 0.2, 0.3)

        monkeypatch.setattr(shooting, "_march", march)
        settings = IntegratorSettings(eta_max=1.0, step=0.1)
        if bad is None:
            traj = integrate_blasius(0.3, settings)
            expected = [(0.0, 0.0, 0.0, 0.3), *march(0.3, [0.1] * 10)]
            expected[-1] = (1.0, *expected[-1][1:])  # pinned to eta_max
            for got, want in zip((traj.eta, traj.f, traj.fp, traj.fpp), zip(*expected)):
                assert bits(got) == bits(want)
            return
        with pytest.raises(DivergenceError) as err:
            integrate_blasius(0.3, settings)
        assert err.value.eta == bad * 0.1


class TestCompare:
    @pytest.mark.parametrize(
        "start, stop, step",
        [(0.0, 12.0, 0.05), (-3.0, 5.0, 0.25), (0.0, 32.0, 0.5), (0.0, 12.0, 0.001),
         (2.0, 10.0, 1e-3), (-1e-3, 1e-3, 1e-4)],
    )
    def test_matches_numpy_compare(self, stdlib, series_order3, default_shot, start, stop, step):
        grid = Grid(start, stop, step)
        assert bits(stdlib(grid.points)) == bits(grid.points())
        want = compare(series_order3, default_shot, grid)
        got = stdlib(lambda: compare(series_order3, default_shot, grid))
        assert isinstance(got.rows, list)
        assert bits(v for row in got.rows for v in row) == bits(want.rows.ravel())
        for name in ("max_dev_inside", "dev_at_probe"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a is None and b is None) or bits([a]) == bits([b])

    def test_nan_deviation_propagates(self, stdlib, series_order3, default_shot):
        fp = array("d", default_shot.trajectory.fp)
        fp[100] = math.nan  # next to the grid point 0.1
        traj = dataclasses.replace(default_shot.trajectory, fp=fp)
        shot = dataclasses.replace(default_shot, trajectory=traj)
        want = compare(series_order3, shot)
        got = stdlib(lambda: compare(series_order3, shot))
        assert math.isnan(want.max_dev_inside) and math.isnan(got.max_dev_inside)


class TestSvg:
    @staticmethod
    def reports(rng: random.Random, n: int):
        eta = Grid(0.0, float(n - 1), 1.0).points()
        curves = [[rng.uniform(-0.5, 1.6) if rng.random() < 0.9 else rng.choice(SPECIAL)
                   for _ in range(n)] for _ in range(2)]
        rows = list(zip(eta.tolist(), *curves))
        common = dict(max_dev_inside=None, dev_at_probe=None, probe_eta=10.0,
                      s_numerical=0.33, s_hpm_exact=0, domain_length=5.0,
                      extrapolated_from=None)
        return ComparisonReport(rows=rows, **common), ComparisonReport(rows=np.array(rows),
                                                                       **common)

    @pytest.mark.parametrize("n", [2, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1,
                                   2 * CHUNK_ROWS + 1])
    @pytest.mark.parametrize("window", [(-0.2, 1.4), (0.0, 1e-3), (-1.0, 2.2), (0.9, 1.1)])
    def test_matches_numpy_figure(self, tmp_path, stdlib, n, window):
        # (0, 1e-3) puts most points on the +-1e6 px clamp
        listed, arrayed = self.reports(random.Random(n), n)
        emit_svg_figure(arrayed, tmp_path / "numpy.svg", y_window=window)
        stdlib(lambda: emit_svg_figure(listed, tmp_path / "stdlib.svg", y_window=window))
        assert (tmp_path / "stdlib.svg").read_bytes() == (tmp_path / "numpy.svg").read_bytes()

    def test_numpy_free_figure_past_the_stdlib_limit(self, tmp_path, fresh_python):
        # a list report longer than _PURE_MAX_POINTS, drawn in a process without
        # numpy: the figure does not load it, and writes the numpy kernel's bytes
        make_rows = (
            "import random\n"
            "rng = random.Random(20_001)\n"
            "rows = [(i / 1000, rng.uniform(-3.0, 4.0), rng.uniform(-3.0, 4.0))\n"
            "        for i in range(20_001)]\n"
        )
        proc = fresh_python("-c", make_rows + (
            "import sys\n"
            "from flatplate.report import ComparisonReport, emit_svg_figure\n"
            "emit_svg_figure(ComparisonReport(rows, None, None, 10.0, 0.33, 0, 5.0, None),\n"
            "                'stdlib.svg')\n"
            "assert 'numpy' not in sys.modules, 'numpy is loaded'\n"
        ))
        assert proc.returncode == 0, proc.stderr
        namespace = {}
        exec(make_rows, namespace)
        assert len(namespace["rows"]) > _PURE_MAX_POINTS
        arrayed = ComparisonReport(np.array(namespace["rows"]), None, None, 10.0, 0.33, 0, 5.0,
                                   None)
        emit_svg_figure(arrayed, tmp_path / "numpy.svg")
        assert (tmp_path / "stdlib.svg").read_bytes() == (tmp_path / "numpy.svg").read_bytes()

    @pytest.mark.parametrize("seed", range(5))
    def test_y_ticks_follow_np_arange(self, seed):
        rng = random.Random(seed)
        for _ in range(2000):
            step = rng.choice([0.2, 0.5, 1.0, 2.0, 5.0, 0.05, 2e-3, 20.0]) * 10.0 ** rng.randrange(
                -4, 4)
            y_lo = rng.choice([-0.1, -0.0, 0.0, rng.uniform(-50.0, 50.0)]) * step
            y_hi = y_lo + rng.uniform(0.01, 16.0) * step
            first = np.ceil(y_lo / step - 1.0e-9) * step
            want = np.arange(first, y_hi + 1.0e-9, step) + 0.0  # a zero tick is +0.0
            assert bits(report._y_ticks(y_lo, y_hi, step)) == bits(want)
