"""The CSV format shared by the profile and trajectory writers."""

from __future__ import annotations

import math
from typing import Iterable, Sequence


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


def write_csv(
    path, header: str, rows: Iterable[Sequence[float]], stamp_lines: Sequence[str] = ()
) -> None:
    """Write '# ' stamp comments, the header, then one sig9 row per line, LF endings.

    ``stamp_lines`` are empty by default, so identical data serializes
    byte-identically.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for line in stamp_lines:
            handle.write(f"# {line}\n")
        handle.write(header + "\n")
        for row in rows:
            handle.write(",".join([sig9(value) for value in row]) + "\n")
