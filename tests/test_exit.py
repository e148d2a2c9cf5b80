"""How a command-line run ends.

``python -m flatplate`` and the console script run ``cli.entry``, which
freezes the heap after ``main`` returns, so the interpreter's exit skips
collecting the run's cyclic garbage.  These tests check, each in a fresh
interpreter, what that exit keeps: atexit handlers, a profiler's report,
the exit codes and their one-line messages, and a collector left alone for
in-process callers of ``main``.  They also check the invariant the freeze
relies on: every file a run writes is closed before ``main`` returns.
"""

import gc
import warnings

import pytest

from flatplate.cli import main


def test_atexit_handlers_run_after_the_freeze(fresh_python):
    script = (
        "import atexit, gc, sys\n"
        "atexit.register(lambda: print('frozen at exit:', gc.get_freeze_count() > 0))\n"
        "sys.argv = ['flatplate', 'series', '--order', '0']\n"
        "from flatplate.cli import entry\n"
        "entry()\n"
    )
    proc = fresh_python("-c", script)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("order = 0, L = 5, epsilon = 1\n")
    assert proc.stdout.endswith("frozen at exit: True\n")


@pytest.mark.parametrize("argv", [["series"], ["compare", "--csv", "compare.csv"]],
                         ids=["series", "compare"])
def test_main_in_process_leaves_the_collector_alone(fresh_python, argv):
    script = (
        "import gc\n"
        "from flatplate.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print('freeze count:', gc.get_freeze_count())\n"
    )
    proc = fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("freeze count: 0\n")


def test_a_profiled_run_prints_its_output_and_the_profile(fresh_python):
    proc = fresh_python("-m", "cProfile", "-m", "flatplate", "series", "--order", "0")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("order = 0, L = 5, epsilon = 1\n")
    assert "function calls" in proc.stdout and "ncalls" in proc.stdout


@pytest.mark.parametrize("argv, code, start", [
    (["series", "--domain-length", "0"], 2, "error: domain length must satisfy L > 0"),
    (["shoot", "--eta-max", "3", "--tol", "1e-300"], 3,
     "shooting failed: far-boundary residual"),
    (["series", "--out", "missing-dir/series.txt"], 4, "i/o failure (missing-dir/series.txt)"),
], ids=["argument", "solver", "io"])
def test_exit_codes_keep_their_one_line(fresh_cli, argv, code, start):
    proc = fresh_cli(*argv)
    assert (proc.returncode, proc.stdout) == (code, "")
    assert proc.stderr.startswith(start) and proc.stderr.count("\n") == 1, proc.stderr


WRITING_RUNS = {
    "series-json": ["series", "--format", "json", "--out", "{tmp}/series.json"],
    "shoot-trajectory": ["shoot", "--trajectory-out", "{tmp}/trajectory.csv"],
    "compare-csv-svg": ["compare", "--csv", "{tmp}/compare.csv", "--svg", "{tmp}/compare.svg"],
    "compare-with-theta": ["compare", "--with-theta", "--csv", "{tmp}/theta.csv"],
}


@pytest.mark.parametrize("argv", WRITING_RUNS.values(), ids=WRITING_RUNS)
def test_every_written_file_is_closed_when_main_returns(tmp_path, capsys, argv):
    """An unclosed file would be closed, and flushed, by a finalizer; with the
    heap frozen at exit, a finalizer of an object in a cycle never runs."""
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert main(argv) == 0
        gc.collect()
    capsys.readouterr()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


# every default run, plus the with-theta runs: numpy's kernels and theta's
# exp run only there, so a warning they raise shows only there
DEFAULT_RUNS = {
    "series-json": ["series", "--format", "json", "--out", "series.json"],
    "compare-csv": ["compare", "--csv", "compare.csv"],
    "figure-svg": ["figure", "--svg", "figure.svg"],
    "shoot-trajectory": ["shoot", "--trajectory-out", "trajectory.csv"],
    "series": ["series"],
    "shoot": ["shoot"],
    "compare-with-theta": ["compare", "--with-theta", "--csv", "theta.csv"],
    "compare-with-theta-fine-grid": ["compare", "--order", "12", "--with-theta", "--eta-max", "12",
                                     "--grid", "0:12:0.001", "--csv", "theta.csv"],
}


@pytest.mark.parametrize("argv", DEFAULT_RUNS.values(), ids=DEFAULT_RUNS)
def test_default_runs_raise_no_warning_in_development_mode(fresh_python, argv):
    proc = fresh_python("-X", "dev", "-W", "error", "-m", "flatplate", *argv)
    assert (proc.returncode, proc.stderr) == (0, "")

