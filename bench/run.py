#!/usr/bin/env python3
"""flatplate benchmark: three closed-loop workloads, one client, one process.

    python3 bench/run.py --workload cli_paper|series_ladder|profile_export \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; flatplate is imported from its ``src``
directory, never from an installed copy.  ``--trace 0`` measures the
end-to-end metrics, in ruler-scaled seconds (see ``Ruler``); ``--trace 1``
replays the seed's first cycle of ops alternately with and without the layer
wrappers of ``tracer.py`` and reports the per-layer metrics and the tracing
overhead.  Every timed op's
output is checked (``checks.py``) after its timed window closes.  The last
line of standard output is the JSON result; a human-readable table and the
run record come before it.  Workloads, metrics and baselines are described
in ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import checks
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
LAUNCHER = Path(__file__).resolve().parent / "launcher.py"

SETUP_REPEATS = 7  # at least this many set-ups ...
SETUP_SECONDS = 3.0  # ... and at least this much wall time of them
RULER_STEPS = 3000
RULER_NOMINAL_S = 0.003  # about one ruler reading on a 2.0 GHz Xeon vCPU at its fast speed
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

PER_LAYER_UNITS = {
    "exact.mul_calls": "count",
    "exact.mul_s": "s",
    "exact.eval_float_calls": "count",
    "exact.eval_float_s": "s",
    "exact.self_s": "s",
    "hpm.build_series_s": "s",
    "hpm.recurrence_f_s": "s",
    "hpm.recurrence_theta_s": "s",
    "hpm.document_s": "s",
    "hpm.self_s": "s",
    "shooting.solve_s": "s",
    "shooting.solve_calls": "count",
    "shooting.iterations": "count",
    "shooting.search_s": "s",  # solve time minus its integrate_blasius child
    "shooting.integrate_s": "s",
    "shooting.integrate_calls": "count",
    "shooting.theta_profile_s": "s",
    "shooting.trajectory_csv_s": "s",
    "shooting.self_s": "s",
    "report.compare_s": "s",
    "report.emit_csv_s": "s",
    "report.emit_svg_s": "s",
    "report.points": "count",
    "report.self_s": "s",
    "cli.import_s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.startup_s": "s",
    "trace.ops": "count",
    "trace.op_s": "s",
    "trace.overhead_pct": "%",
}


def _child_env() -> dict[str, str]:
    """The caller's environment with the checkout's ``src`` first on PYTHONPATH.

    PYTHONDONTWRITEBYTECODE is passed through unchanged and recorded.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def fresh_import() -> None:
    """Start a fresh interpreter that imports flatplate.cli and exits."""
    subprocess.run([sys.executable, "-c", "import flatplate.cli"], env=_child_env(), check=True)


@contextlib.contextmanager
def _maybe_span(tracer: Tracer | None, name: str):
    if tracer is None:
        yield
    else:
        with tracer.span(name):
            yield


# -- workloads -----------------------------------------------------------------
#
# A workload yields its ops in cycles.  Every cycle holds the same multiset of
# op sizes in a seeded order, and runs measure whole cycles only, so medians
# and tails do not depend on which seed drew which sizes.


class CliPaper:
    """One `python -m flatplate` child per op: the three byte-contract
    commands at default settings, shuffled within each cycle."""

    in_process = False
    # command -> (arguments before the output path, output file name)
    COMMANDS = {
        "series": (["series", "--format", "json", "--out"], "series.json"),
        "compare": (["compare", "--csv"], "compare.csv"),
        "figure": (["figure", "--svg"], "figure.svg"),
    }

    def __init__(self, rng: random.Random, workdir: Path):
        self.rng = rng
        self.workdir = workdir
        self.env = _child_env()

    def setup_phases(self) -> list:
        return []

    def cycle(self, index: int) -> list[str]:
        return self.rng.sample(list(self.COMMANDS), len(self.COMMANDS))

    def run(self, command: str, tracer: Tracer | None):
        args, name = self.COMMANDS[command]
        out = self.workdir / name
        out.unlink(missing_ok=True)
        argv = [*args, str(out)]
        if tracer is None:
            cmd = [sys.executable, "-m", "flatplate", *argv]
        else:
            spans = self.workdir / "spans.json"
            spans.unlink(missing_ok=True)
            cmd = [sys.executable, str(LAUNCHER), str(spans), *argv]
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True)
        wall = time.perf_counter() - start
        if tracer is not None and proc.returncode == 0:
            obj = json.loads(spans.read_text(encoding="utf-8"))
            tracer.absorb(obj)
            main = sum(s["end"] - s["start"] for s in obj["spans"] if s["parent"] < 0)
            tracer.seconds["cli.startup_s"] += wall - main - obj["seconds"]["cli.import_s"]
        return proc, out

    def check(self, command: str, output) -> None:
        proc, out = output
        checks.check_exit(proc.returncode, proc.stderr)
        if command == "series":
            checks.check_series_bytes(out.read_bytes())
            return
        checks.check_summary(proc.stdout)
        text = out.read_text(encoding="utf-8")
        if command == "compare":
            checks.check_csv(text, checks.COMPARE_HEADER, checks.DEFAULT_GRID_POINTS, 3)
        else:
            checks.check_svg(text, checks.DEFAULT_GRID_POINTS)


class SeriesLadder:
    """In-process exact series at order 12-25: build, render the JSON
    document, evaluate the f' partial sum on the default grid."""

    in_process = True
    ORDERS = tuple(range(12, 26))
    LENGTHS = (Fraction(5), Fraction(10), Fraction(7, 2), Fraction(11, 2))
    EPSILONS = (Fraction(1), Fraction(1, 2), Fraction(7, 10))

    def __init__(self, rng: random.Random, workdir: Path):
        from flatplate import report

        self.rng = rng
        self.grid = report.Grid().points()
        # every order meets a different (L, eps) pair in each of the first 12
        # cycles, so exact repeats of a config stay rare
        self.pairs = [(L, e) for L in self.LENGTHS for e in self.EPSILONS]
        rng.shuffle(self.pairs)
        self.offset = {order: rng.randrange(len(self.pairs)) for order in self.ORDERS}

    def setup_phases(self) -> list:
        return [self.warm_up]

    def warm_up(self) -> None:
        """One checked op at the lowest order."""
        op = (self.ORDERS[0], Fraction(5), Fraction(1))
        self.check(op, self.run(op, None))

    def cycle(self, index: int):
        orders = self.rng.sample(self.ORDERS, len(self.ORDERS))
        return [(o, *self.pairs[(self.offset[o] + index) % len(self.pairs)]) for o in orders]

    def run(self, op, tracer: Tracer | None):
        from flatplate import hpm

        order, L, eps = op
        series = hpm.build_series(hpm.HpmConfig(order=order, L=L, epsilon=eps))
        with _maybe_span(tracer, "hpm.document"):
            text = json.dumps(hpm.series_to_document(series), indent=2)
        fprime = series.partial_sum("f").derivative()
        values = [fprime.eval_float(x) for x in self.grid]
        return series, text, values

    def check(self, op, output) -> None:
        from flatplate import hpm

        series, text, values = output
        checks.check_series(series, text, values, len(self.grid), hpm.series_from_document)


class ProfileExport:
    """In-process stored-trajectory export: one RK4 trajectory at a stored
    s*, its temperature profile and CSV, and the with-theta comparison on a
    fine grid written as CSV and SVG."""

    in_process = True
    ETA_MAX = (8.0, 10.0, 12.0)
    ORDERS = (3, 6, 9, 12)
    STEPS = (0.01, 0.005, 0.002, 0.001)
    GRID_STOP = 12.0

    def __init__(self, rng: random.Random, workdir: Path):
        self.rng = rng
        self.workdir = workdir
        # every (step, order) pair once per cycle, each with its own eta_max,
        # so every cycle is the same work in another order
        self.cells = [
            (self.ETA_MAX[(i + j) % len(self.ETA_MAX)], order, step)
            for i, step in enumerate(self.STEPS)
            for j, order in enumerate(self.ORDERS)
        ]

    def setup_phases(self) -> list:
        self.shots, self.series = {}, {}
        return [*(functools.partial(self.solve, e) for e in self.ETA_MAX), self.build_series]

    def solve(self, eta_max: float) -> None:
        from flatplate import shooting

        settings = shooting.IntegratorSettings(eta_max=eta_max)
        self.shots[eta_max] = shooting.solve_shooting(settings)

    def build_series(self) -> None:
        from flatplate import hpm

        self.series = {o: hpm.build_series(hpm.HpmConfig(order=o)) for o in self.ORDERS}

    def cycle(self, index: int):
        return self.rng.sample(self.cells, len(self.cells))

    def run(self, op, tracer: Tracer | None):
        from flatplate import report, shooting

        eta_max, order, step = op
        series = self.series[order]
        settings = shooting.IntegratorSettings(eta_max=eta_max)
        trajectory = shooting.integrate_blasius(self.shots[eta_max].s_star, settings)
        theta = shooting.theta_profile(trajectory, float(series.config.epsilon))
        paths = {k: self.workdir / f"profile.{k}" for k in ("trajectory.csv", "csv", "svg")}
        shooting.write_trajectory_csv(trajectory, paths["trajectory.csv"])
        shot = dataclasses.replace(self.shots[eta_max], trajectory=trajectory)
        grid = report.Grid(start=0.0, stop=self.GRID_STOP, step=step)
        result = report.compare(series, shot, grid, with_theta=True)
        report.emit_csv(result, paths["csv"])
        report.emit_svg_figure(result, paths["svg"])
        return settings, trajectory, theta, result, paths

    def check(self, op, output) -> None:
        settings, trajectory, theta, result, paths = output
        checks.check_trajectory(trajectory, settings.shoot_tol)
        checks.check_theta(theta)
        checks.check_csv(paths["trajectory.csv"].read_text(encoding="utf-8"),
                         "eta,f,fp,fpp", len(trajectory), 4)
        points = round(self.GRID_STOP / op[2]) + 1
        checks.require(len(result.rows) == points, f"{len(result.rows)} report points")
        checks.check_csv(paths["csv"].read_text(encoding="utf-8"),
                         checks.COMPARE_HEADER + ",theta_numerical,theta_hpm", points, 5)
        checks.check_svg(paths["svg"].read_text(encoding="utf-8"), points)


WORKLOADS = {"cli_paper": CliPaper, "series_ladder": SeriesLadder, "profile_export": ProfileExport}


# -- harness -------------------------------------------------------------------


def set_up(workload) -> None:
    for phase in workload.setup_phases():
        phase()


def ruler_work() -> int:
    """Fixed interpreter work that does not touch flatplate: big-integer
    arithmetic, float formatting and dict inserts, the kinds of work the
    workloads do."""
    x, seen = 1, {}
    for i in range(RULER_STEPS):
        x = (x * 1103515245 + 12345) % (1 << 521)
        seen[f"{(x % 100000) / 7.0:.9g}"] = i
    return len(seen)


class Ruler:
    """Scales each timing by the CPU speed measured next to it.

    On the 2-vCPU Xeon host this was built on, a CPU's speed varies by up to
    2x from one moment to the next, and whose average drifts over minutes, so a plain
    median of op times moved by up to 38% between two sets of runs of the
    same code.  The ruler times ``ruler_work`` just before and just after
    each timed piece of work.  The piece's scaled time is its time
    multiplied by RULER_NOMINAL_S over the mean of its two adjacent
    readings: its length in ruler readings, expressed in the seconds it
    would take where a reading takes RULER_NOMINAL_S.
    """

    def __init__(self):
        self.readings: list[float] = []

    def read(self) -> float:
        start = time.perf_counter()
        ruler_work()
        elapsed = time.perf_counter() - start
        self.readings.append(elapsed)
        return elapsed

    def __call__(self, work) -> tuple[object, float, float]:
        """Run ``work()`` between two readings: (its result, seconds, scaled
        seconds)."""
        before = self.read()
        result, elapsed, _ = plain_clock(work)
        adjacent = (before + self.read()) / 2
        return result, elapsed, elapsed * RULER_NOMINAL_S / adjacent


def plain_clock(work) -> tuple[object, float, float]:
    """Run ``work()``: (its result, seconds, the same seconds unscaled)."""
    start = time.perf_counter()
    result = work()
    elapsed = time.perf_counter() - start
    return result, elapsed, elapsed


def timed_setup(workload, ruler: Ruler) -> list[float]:
    """Run the set-up phases, a fresh import of flatplate.cli first, in turn
    at least SETUP_REPEATS times and for at least SETUP_SECONDS; return each
    set-up's scaled seconds."""
    phases = [fresh_import, *workload.setup_phases()]
    samples: list[float] = []
    begin = time.perf_counter()
    while len(samples) < SETUP_REPEATS or time.perf_counter() - begin < SETUP_SECONDS:
        samples.append(sum(ruler(phase)[2] for phase in phases))
    return samples


def checked(workload, op, output, failures: list[str]) -> bool:
    """Run the op's output check; record and return False on failure."""
    try:
        workload.check(op, output)
        return True
    except Exception as exc:  # a check that crashes is a failed check too
        failures.append(f"{op!r}: {type(exc).__name__}: {exc}")
        return False


def timed_op(workload, op, tracer: Tracer | None, failures: list[str],
             clock=plain_clock) -> tuple[float, float, bool]:
    """Run one op under ``clock``, traced when ``tracer`` is given, then check
    its output outside the timed window and outside the wrappers:
    (seconds, scaled seconds, passed)."""

    def attempt():
        try:
            return workload.run(op, tracer), None
        except Exception as exc:
            return None, exc

    wrappers = tracer.installed() if tracer and workload.in_process else contextlib.nullcontext()
    with wrappers:
        (output, error), elapsed, scaled = clock(attempt)
    if error is not None:
        failures.append(f"{op!r}: {type(error).__name__}: {error}")
        return elapsed, scaled, False
    return elapsed, scaled, checked(workload, op, output, failures)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with TAIL_BEYOND samples above it: (value,
    percentile, samples beyond).  Runs of fewer than 4 * TAIL_BEYOND samples
    keep a quarter of them beyond, so the tail never falls below p75."""
    ordered = sorted(samples)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n // 4)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def peak_rss_mib(workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(workload, seconds: float, record: dict) -> tuple[dict, int, int]:
    """Untraced run: the repeated set-up, then whole cycles for about
    ``seconds`` of wall time.  Every timing is ruler-scaled."""
    ruler = Ruler()
    setup_samples = timed_setup(workload, ruler)
    failures: list[str] = []
    raw: list[float] = []
    samples: list[float] = []
    ok = 0
    cycles = 0
    begin = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for op in workload.cycle(cycles):
            elapsed, scaled, good = timed_op(workload, op, None, failures, ruler)
            raw.append(elapsed)
            samples.append(scaled)
            ok += good
        cycles += 1
        now = time.perf_counter()
        if now - begin + (now - cycle_start) > seconds:
            break
    tail_value, tail_pct, tail_beyond = tail(samples)
    metrics = {
        "ops_per_s": len(samples) / sum(samples),
        "op_p50_s": statistics.median(samples),
        "op_tail_s": tail_value,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mib": peak_rss_mib(workload),
    }
    record.update(
        cycles=cycles,
        wall_s=time.perf_counter() - begin,
        ruler_readings=len(ruler.readings),
        ruler_quantiles_s={str(q): sorted(ruler.readings)[len(ruler.readings) * q // 100]
                           for q in (0, 1, 2, 5, 10, 25, 50)},
        setup_samples_s=setup_samples,
        op_samples_s=[round(x, 6) for x in samples],
        unscaled={"ops_per_s": len(raw) / sum(raw), "op_p50_s": statistics.median(raw)},
        percentiles={
            "op_p50_s": {"percentile": 50, "samples": len(samples)},
            "op_tail_s": {"percentile": tail_pct, "samples": len(samples),
                          "beyond": tail_beyond},
            "setup_s": {"percentile": 50, "samples": len(setup_samples)},
        },
        error_rate=(len(samples) - ok) / len(samples),
        failures=failures[:20],
    )
    return metrics, len(samples), len(samples) - ok


def measure_traced(workload, seconds: float, record: dict) -> tuple[dict, int, int]:
    """Traced run: the seed's first cycle, op by op, untraced and traced in
    alternating order, repeated in rounds for about ``seconds``.  Layer
    times are medians over rounds; counts come from the first round and must
    repeat in every round."""
    set_up(workload)
    ops = workload.cycle(0)
    failures: list[str] = []
    attempted = ok = 0
    rounds: list[dict] = []
    overheads: list[float] = []
    first_counts = None
    begin = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        tracer = Tracer()
        plain = traced = 0.0
        for i, op in enumerate(ops):
            tracer.op = i
            modes = (False, True) if (i + len(rounds)) % 2 == 0 else (True, False)
            for with_trace in modes:
                elapsed, _, good = timed_op(workload, op, tracer if with_trace else None, failures)
                attempted += 1
                ok += good
                if with_trace:
                    traced += elapsed
                else:
                    plain += elapsed
        values = tracer.metrics()
        values["shooting.search_s"] = values.get("shooting.solve.self_s", 0.0)
        values["trace.op_s"] = traced
        counts = dict(tracer.counts)
        if first_counts is None:
            first_counts = counts
            spans = tracer.to_obj()
        elif counts != first_counts:
            failures.append(f"round {len(rounds)}: counts differ from round 0")
            attempted += 1
        rounds.append(values)
        overheads.append(100.0 * (traced / plain - 1.0))
        now = time.perf_counter()
        if now - begin + (now - round_start) > seconds:
            break
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        if unit == "count":
            metrics[name] = first_counts.get(name, 0)
        elif unit == "s":
            metrics[name] = statistics.median(r.get(name, 0.0) for r in rounds)
    metrics["trace.ops"] = len(ops)
    metrics["trace.overhead_pct"] = statistics.median(overheads)
    record.update(
        rounds=len(rounds),
        wall_s=time.perf_counter() - begin,
        overhead_pct_per_round=overheads,
        percentiles={"per_layer": {"percentile": 50, "samples": len(rounds)}},
        error_rate=(attempted - ok) / attempted,
        failures=failures[:20],
    )
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{record['workload']}-seed{record['seed']}.json"
    spans_file.write_text(json.dumps(spans), encoding="utf-8")
    record["spans_file"] = str(spans_file.relative_to(ROOT))
    return metrics, attempted, attempted - ok


def _git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "flatplate" / "__init__.py").is_file():
        print(f"error: no flatplate sources under {SRC}", file=sys.stderr)
        return 2
    # one CPU for this process and its children: unpinned, the scheduler
    # moves ops between CPUs whose speeds differ on a shared host
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    sys.path.insert(0, str(SRC))
    import flatplate
    import numpy

    if Path(flatplate.__file__).resolve().parent != SRC / "flatplate":
        print(f"error: imported flatplate from {flatplate.__file__}, not {SRC}", file=sys.stderr)
        return 2

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "loadavg_before": os.getloadavg(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }
    rng = random.Random(f"{args.workload}:{args.seed}")
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](rng, workdir)
        if args.trace:
            metrics, attempted, failed = measure_traced(workload, args.seconds, record)
            units = PER_LAYER_UNITS
        else:
            metrics, attempted, failed = measure(workload, args.seconds, record)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["loadavg_after"] = os.getloadavg()

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} ops, {failed} failed, error_rate {record['error_rate']:.4g}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    print("record " + json.dumps(record))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
