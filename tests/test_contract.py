"""Byte contract: the default data outputs, and 12 001-point exports, hash
to frozen values.

Any change to the solver, the series engine or the writers that alters a
single byte of these files fails here.  If a change is meant to alter
them, the new hashes belong in the same change with the reason.
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
