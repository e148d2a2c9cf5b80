"""Byte contract: the default data outputs, and 12 001-point exports, hash
to frozen values.

Any change to the solver, the series engine or the writers that alters a
single byte of these files fails here.  If a change is meant to alter
them, the new hashes belong in the same change with the reason.

Each output is made twice: in this process, where numpy is loaded and its
kernels run, and in a fresh interpreter, which has not imported numpy, so
the stdlib kernels run unless a grid passes ``_PURE_MAX_POINTS`` points
(see ``flatplate._format.loaded_numpy``).
"""

import hashlib

import pytest

from flatplate.cli import main

CONTRACT = {
    ("series", "--format", "json", "--out"):
        "698847c98d84a8b76fb65ad42e27e79fec89af6668bec8da8994edd194679093",
    ("compare", "--csv"):
        "75f18da28ede61e5156415d6b53d861a2e2125ab5ed1cdca69823ab6e23f8593",
    ("figure", "--svg"):
        "488ee8ec0c5c36821f27c250282fddd6dd894e519d4043146a2336fdb639d661",
    ("shoot", "--trajectory-out"):
        "4066646df22365dc941f94fee58eee8c5e7b60c42e32d63bfac47893433b3ab2",
}


@pytest.mark.parametrize("argv", list(CONTRACT), ids=lambda argv: argv[0])
def test_default_output_bytes(capsys, tmp_path, argv):
    target = tmp_path / "out"
    assert main([*argv, str(target)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(target.read_bytes()).hexdigest() == CONTRACT[argv]


# 12 001-row outputs, so every writer runs over many chunks
FINE_GRID_CONTRACT = {
    ("compare", "--order", "12", "--with-theta", "--eta-max", "12", "--grid", "0:12:0.001",
     "--csv"): "442bc929e7519f89f0341650194acc73c7fa1ad2ee4b0f1f9ccb728d5d90fa0b",
    ("figure", "--order", "12", "--grid", "0:12:0.001", "--svg"):
        "15e6ee25885b068bcbeb04ac14493b0397c04cadf38eccdc1d35f24b80e6ebf8",
    ("shoot", "--eta-max", "12", "--trajectory-out"):
        "19758462a5211e28a914f64d4b10e5311aee3b0a744df637c94ec2caea43ce0e",
}


@pytest.mark.parametrize("argv", list(FINE_GRID_CONTRACT), ids=lambda argv: argv[0])
def test_fine_grid_output_bytes(capsys, tmp_path, argv):
    target = tmp_path / "out"
    assert main([*argv, str(target)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(target.read_bytes()).hexdigest() == FINE_GRID_CONTRACT[argv]


@pytest.mark.parametrize(
    "argv, digest",
    [*CONTRACT.items(), *FINE_GRID_CONTRACT.items()],
    ids=[*(f"default-{argv[0]}" for argv in CONTRACT),
         *(f"fine-{argv[0]}" for argv in FINE_GRID_CONTRACT)],
)
def test_output_bytes_in_a_fresh_interpreter(fresh_cli, tmp_path, argv, digest):
    proc = fresh_cli(*argv, "out")
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256((tmp_path / "out").read_bytes()).hexdigest() == digest


# 20 001 states, past _PURE_MAX_POINTS: in a fresh interpreter the march is
# stored and written without numpy, which only a grid loads for size
LONG_TRAJECTORY = ("shoot", "--eta-max", "20", "--trajectory-out")
LONG_TRAJECTORY_DIGEST = "af95176300f28a64249f0152d2ea7e51c0a67a8afa2308760a3848de8c9e1fff"


def test_long_trajectory_bytes_in_a_fresh_interpreter(fresh_cli, tmp_path):
    proc = fresh_cli(*LONG_TRAJECTORY, "out")
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256((tmp_path / "out").read_bytes()).hexdigest() == LONG_TRAJECTORY_DIGEST


# An order-25 document on L = 11/2, eps = 7/10: every term has a long numerator
# and denominator, where the default document has an integer L and small ones
SERIES_ORDER_25 = ("series", "--order", "25", "--domain-length", "11/2", "--epsilon", "7/10",
                   "--format", "json", "--out")
SERIES_ORDER_25_DIGEST = "b0e96ab4b119c6dcdfb342b419a4adc122c92c563ec85ad52d1a33f411c8c9f6"


def test_order_25_series_bytes(capsys, tmp_path):
    target = tmp_path / "out"
    assert main([*SERIES_ORDER_25, str(target)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(target.read_bytes()).hexdigest() == SERIES_ORDER_25_DIGEST


def test_order_25_series_bytes_in_a_fresh_interpreter(fresh_cli, tmp_path):
    proc = fresh_cli(*SERIES_ORDER_25, "out")
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256((tmp_path / "out").read_bytes()).hexdigest() == SERIES_ORDER_25_DIGEST
