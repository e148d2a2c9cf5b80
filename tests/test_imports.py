"""Which runs load numpy: those that need it for an array.

Small arrays go through the stdlib kernels in a process that has not
imported numpy, so the default runs of every subcommand never load it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from flatplate._format import _PURE_MAX_POINTS

SRC = Path(__file__).resolve().parents[1] / "src"

MAIN = "from flatplate.cli import main\nif main({argv!r}):\n    sys.exit('exit code not 0')"


def numpy_loaded_by(tmp_path, statement: str) -> bool:
    """Whether ``statement``, run in a fresh interpreter, imports numpy.

    Modules loaded before it, such as whatever ``site`` loads on a given
    host, do not count.
    """
    source = (
        f"import sys\nbefore = set(sys.modules)\n{statement}\n"
        "print('numpy' in set(sys.modules) - before)"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", source], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


@pytest.mark.parametrize(
    "statement",
    [
        "import flatplate",
        "import flatplate.cli",
        *(MAIN.format(argv=["series", "--format", fmt, "--out", f"series.{fmt}"])
          for fmt in ("json", "csv", "pretty")),
        MAIN.format(argv=["series"]),
        MAIN.format(argv=["--help"]),
        MAIN.format(argv=["compare", "--csv", "compare.csv"]),
        MAIN.format(argv=["figure", "--svg", "figure.svg"]),
        MAIN.format(argv=["shoot"]),
        MAIN.format(argv=["shoot", "--trajectory-out", "trajectory.csv"]),
        "from flatplate import IntegratorSettings, solve_shooting\n"
        "traj = solve_shooting(IntegratorSettings(eta_max=20)).trajectory\n"
        f"assert len(traj) == 20_001 > {_PURE_MAX_POINTS}",
    ],
    ids=["import-flatplate", "import-cli", "series-json", "series-csv", "series-pretty",
         "series-stdout", "help", "compare-csv", "figure-svg", "shoot", "shoot-trajectory",
         "solve-20001-states"],
)
def test_runs_without_arrays_never_load_numpy(tmp_path, statement):
    # "without arrays": without numpy arrays; compare, figure and shoot make
    # theirs with the stdlib kernels
    assert not numpy_loaded_by(tmp_path, statement)


def test_compare_with_theta_loads_numpy(tmp_path):
    # the control: theta_profile always runs on numpy
    assert numpy_loaded_by(tmp_path, MAIN.format(argv=["compare", "--with-theta"]))


def test_grid_past_the_stdlib_limit_loads_numpy(tmp_path):
    points = _PURE_MAX_POINTS + 1  # the grid 0, 1, ..., points
    assert numpy_loaded_by(tmp_path, MAIN.format(argv=["compare", "--grid", f"0:{points}:1"]))
