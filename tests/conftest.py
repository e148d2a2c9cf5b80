import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from flatplate import HpmConfig, IntegratorSettings, build_series, solve_shooting  # noqa: E402


@pytest.fixture(scope="session")
def series_order3():
    return build_series(HpmConfig(order=3))


@pytest.fixture(scope="session")
def series_order6():
    return build_series(HpmConfig(order=6))


@pytest.fixture(scope="session")
def default_shot():
    """Shooting solution at the default settings (eta_max=10, step=1e-3)."""
    return solve_shooting(IntegratorSettings())


@pytest.fixture
def fresh_python(tmp_path):
    """Run ``python *args`` in a fresh interpreter that finds flatplate, in tmp_path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_SRC), env.get("PYTHONPATH")]))

    def run(*args):
        return subprocess.run([sys.executable, *args], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)

    return run


@pytest.fixture
def fresh_cli(fresh_python):
    """Run ``python -m flatplate *argv`` in a fresh interpreter, in tmp_path.

    That interpreter has not imported numpy, so the report arrays go through
    the stdlib kernels unless a grid passes _PURE_MAX_POINTS points (see
    ``flatplate._format.loaded_numpy``).
    """
    return lambda *argv: fresh_python("-m", "flatplate", *argv)
