"""The shared CSV writer against ``sig9``, a per-cell definition of its format kept here."""

import math

import numpy as np
import pytest

from flatplate._format import CHUNK_ROWS, write_csv

# zeros, non-finite values, subnormals, and both sides of the 0.1 and 1e-3
# boundaries where sig9 widens the decimals
SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300, -1e-310, 0.1,
           0.09999999999999999, 1e-3, 9.999999999999999e-4, 1e300]


def sig9(value: float) -> str:
    """Fixed-point decimal with at least 9 significant digits.

    Uses 9 decimals for |v| >= 0.1 (and for exact zero), and widens the
    fractional part for smaller magnitudes so leading zeros never eat into
    the significant-digit budget.
    """
    v = float(value)
    if v == 0.0 or not math.isfinite(v):
        return f"{v:.9f}"
    decimals = max(9, 9 - (math.floor(math.log10(abs(v))) + 1))
    return f"{v:.{decimals}f}"


def reference_csv(header, columns, stamp_lines=()) -> bytes:
    """One ``sig9`` call per cell, one line per row."""
    lines = [f"# {line}" for line in stamp_lines] + [header]
    rows = zip(*(column.tolist() for column in columns))
    lines += [",".join(sig9(value) for value in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def log_uniform_block(rows: int, seed: int) -> list[np.ndarray]:
    """Five columns of signed magnitudes spread evenly over 1e-15 .. 1e15."""
    rng = np.random.default_rng(seed)
    values = rng.choice([-1.0, 1.0], (rows, 5)) * 10.0 ** rng.uniform(-15, 15, (rows, 5))
    return list(values.T)


def test_special_values(tmp_path):
    values = np.array(SPECIAL)
    columns = [values, -values, values[::-1]]
    out = tmp_path / "special.csv"
    write_csv(out, "a,b,c", columns)
    assert out.read_bytes() == reference_csv("a,b,c", columns)


@pytest.mark.parametrize("stamp_lines", [(), ("run=demo", "seed=7")], ids=["plain", "stamped"])
@pytest.mark.parametrize(
    "rows",
    # 127-129 lie inside one chunk; the rest sit on the chunk boundaries
    [0, 1, 127, 128, 129, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1],
)
def test_log_uniform_block(tmp_path, rows, stamp_lines):
    columns = log_uniform_block(rows, seed=rows)
    out = tmp_path / "block.csv"
    write_csv(out, "a,b,c,d,e", columns, stamp_lines)
    assert out.read_bytes() == reference_csv("a,b,c,d,e", columns, stamp_lines)
