"""What each run loads: only the modules its subcommand runs.

Small arrays go through the stdlib kernels in a process that has not
imported numpy, so the default runs of every subcommand never load it.
``import flatplate`` loads no submodule, and ``series`` and ``--help`` load
neither the shooting nor the report layer.  No default run loads
``dataclasses`` or ``inspect``: the records load them only for a caller of
the dataclasses API.  These tests compare module sets only, never timings.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flatplate
from flatplate._format import _PURE_MAX_POINTS

SRC = Path(__file__).resolve().parents[1] / "src"

MAIN = "from flatplate.cli import main\nif main({argv!r}):\n    sys.exit('exit code not 0')"

# Modules that no default run has a use for.
NEVER_LOADS = {"dataclasses", "inspect"}
# Modules a run that only builds series has no use for.
SERIES_NEVER_LOADS = {*NEVER_LOADS, "flatplate.report", "flatplate.shooting"}


def modules_loaded_by(tmp_path, statement: str) -> set[str]:
    """The modules that ``statement``, run in a fresh interpreter, newly loads.

    Modules loaded before it, such as whatever ``site`` loads on a given
    host, do not count.
    """
    source = (
        f"import sys\nbefore = set(sys.modules)\n{statement}\n"
        "print(*sorted(set(sys.modules) - before))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", source], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


SERIES_RUNS = {
    "import-flatplate": "import flatplate",
    "import-cli": "import flatplate.cli",
    **{f"series-{fmt}": MAIN.format(argv=["series", "--format", fmt, "--out", f"series.{fmt}"])
       for fmt in ("json", "csv", "pretty")},
    "series-stdout": MAIN.format(argv=["series"]),
    "help": MAIN.format(argv=["--help"]),
}

ARRAY_RUNS = {
    "compare-csv": MAIN.format(argv=["compare", "--csv", "compare.csv"]),
    "figure-svg": MAIN.format(argv=["figure", "--svg", "figure.svg"]),
    "shoot": MAIN.format(argv=["shoot"]),
    "shoot-trajectory": MAIN.format(argv=["shoot", "--trajectory-out", "trajectory.csv"]),
    # 20 001 rows, past _PURE_MAX_POINTS: the CSV writer still takes the stdlib
    "shoot-trajectory-20001-rows": MAIN.format(
        argv=["shoot", "--eta-max", "20", "--trajectory-out", "trajectory.csv"]),
    "solve-20001-states": (
        "from flatplate import IntegratorSettings, solve_shooting\n"
        "traj = solve_shooting(IntegratorSettings(eta_max=20)).trajectory\n"
        f"assert len(traj) == 20_001 > {_PURE_MAX_POINTS}"),
}


@pytest.mark.parametrize("statement", [*SERIES_RUNS.values(), *ARRAY_RUNS.values()],
                         ids=[*SERIES_RUNS, *ARRAY_RUNS])
def test_runs_without_arrays_never_load_numpy(tmp_path, statement):
    # "without arrays": without numpy arrays; compare, figure and shoot make
    # theirs with the stdlib kernels
    assert "numpy" not in modules_loaded_by(tmp_path, statement)


@pytest.mark.parametrize("statement", SERIES_RUNS.values(), ids=SERIES_RUNS)
def test_series_runs_load_neither_shooting_nor_report(tmp_path, statement):
    assert not modules_loaded_by(tmp_path, statement) & SERIES_NEVER_LOADS


DEFAULT_ARRAY_RUNS = ("compare-csv", "figure-svg", "shoot", "shoot-trajectory")


@pytest.mark.parametrize("run", DEFAULT_ARRAY_RUNS)
def test_default_array_runs_load_neither_dataclasses_nor_inspect(tmp_path, run):
    assert not modules_loaded_by(tmp_path, ARRAY_RUNS[run]) & NEVER_LOADS


def test_dataclasses_replace_after_a_cold_solve(tmp_path):
    # the profile_export benchmark replaces the trajectory of a solved result
    statement = (
        "from flatplate import IntegratorSettings, integrate_blasius, solve_shooting\n"
        "shot = solve_shooting()\n"
        "assert 'dataclasses' not in sys.modules\n"
        "import dataclasses\n"
        "trajectory = integrate_blasius(shot.s_star, IntegratorSettings(eta_max=2))\n"
        "again = dataclasses.replace(shot, trajectory=trajectory)\n"
        "assert type(again) is type(shot) and again.trajectory is trajectory\n"
        "assert again.s_star == shot.s_star and len(again.trajectory) == 2001"
    )
    assert "dataclasses" in modules_loaded_by(tmp_path, statement)


def test_import_flatplate_loads_no_submodule(tmp_path):
    assert {m for m in modules_loaded_by(tmp_path, "import flatplate")
            if m.startswith("flatplate.")} == set()


def test_compare_loads_shooting_and_report(tmp_path):
    # the control for the series runs: the same check sees the layers load
    loaded = modules_loaded_by(tmp_path, ARRAY_RUNS["compare-csv"])
    assert {"flatplate.report", "flatplate.shooting"} <= loaded


def test_compare_with_theta_loads_numpy(tmp_path):
    # the control: theta_profile always runs on numpy
    assert "numpy" in modules_loaded_by(tmp_path, MAIN.format(argv=["compare", "--with-theta"]))


def test_grid_past_the_stdlib_limit_loads_numpy(tmp_path):
    points = _PURE_MAX_POINTS + 1  # the grid 0, 1, ..., points
    assert "numpy" in modules_loaded_by(
        tmp_path, MAIN.format(argv=["compare", "--grid", f"0:{points}:1"]))


def test_cli_still_reads_the_traced_functions_of_the_deferred_layers(tmp_path):
    # bench/tracer.py reads and wraps these on flatplate.cli
    statement = (
        "import flatplate.cli as cli\n"
        "from flatplate import report, shooting\n"
        "for home, names in [(shooting, 'solve_shooting write_trajectory_csv'),\n"
        "                    (report, 'compare emit_csv emit_svg_figure')]:\n"
        "    assert all(getattr(cli, name) is getattr(home, name) for name in names.split())\n"
        "assert not hasattr(cli, 'theta_profile')"
    )
    loaded = modules_loaded_by(tmp_path, statement)
    assert {"flatplate.report", "flatplate.shooting"} <= loaded


class TestLazyPackage:
    @pytest.mark.parametrize("name", flatplate.__all__)
    def test_public_name_is_its_home_modules_object(self, name):
        home = importlib.import_module(f"flatplate.{flatplate._HOMES[name]}")
        assert getattr(flatplate, name) is getattr(home, name)
        assert getattr(home, name).__module__ == home.__name__  # defined there

    def test_from_import_of_every_public_name(self):
        namespace = {}
        exec(f"from flatplate import {', '.join(flatplate.__all__)}", namespace)
        assert all(namespace[name] is getattr(flatplate, name) for name in flatplate.__all__)

    def test_dir_lists_every_public_name(self):
        assert set(flatplate.__all__) <= set(dir(flatplate))
        assert "__version__" in dir(flatplate)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'solve'"):
            flatplate.solve  # noqa: B018

    def test_from_import_of_a_submodule(self):
        from flatplate import report

        assert report is sys.modules["flatplate.report"]
        assert flatplate.report is report
