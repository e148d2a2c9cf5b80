"""The CSV format shared by the profile and trajectory writers."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np

# Rows formatted by one ``%`` operation.  Bounds the cell objects and text
# alive at once, whatever the length of the columns.
CHUNK_ROWS = 128


def write_csv(
    path, header: str, columns: Sequence[np.ndarray], stamp_lines: Sequence[str] = ()
) -> None:
    """Write '# ' stamp comments, the header, then one row per index of the
    equal-length float ``columns``, each cell a fixed-point decimal with at
    least 9 significant digits, LF endings.

    ``stamp_lines`` are empty by default, so identical data serializes
    byte-identically.  Rows are stacked and formatted CHUNK_ROWS at a time.
    A cell gets 9 decimals unless 0 < |v| < 0.1, where it gets
    8 - floor(log10 |v|), taken with ``math.log10``: ``np.log10`` rounds
    some values differently.
    """
    import numpy as np

    row_format = ",".join(["%.*f"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for line in stamp_lines:
            handle.write(f"# {line}\n")
        handle.write(header + "\n")
        for start in range(0, len(columns[0]), CHUNK_ROWS):
            block = np.column_stack([c[start : start + CHUNK_ROWS] for c in columns]).ravel()
            magnitude = np.abs(block)
            small = (magnitude > 0.0) & (magnitude < 0.1)  # false for nan
            decimals = np.full(block.size, 9)
            decimals[small] = [8 - math.floor(math.log10(v)) for v in magnitude[small].tolist()]
            args = [0] * (2 * block.size)
            args[0::2] = decimals.tolist()
            args[1::2] = block.tolist()
            handle.write(row_format * (block.size // len(columns)) % tuple(args))
