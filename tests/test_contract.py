"""Byte contract: the default data outputs hash to frozen values.

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
