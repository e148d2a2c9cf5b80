"""The CSV format shared by the profile and trajectory writers."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np

# Rows formatted by one ``%`` operation, by ``write_csv`` and by the SVG
# polylines.  Bounds the cell objects and text alive at once, whatever the
# length of the columns: a 5-column chunk peaks at about 0.3 MiB of Python
# objects at 512 rows (0.1 MiB at 128, 0.6 MiB at 1024).  512 rows made the
# 12 001-point export about 5% faster than 128; 1024 was no faster than 512.
CHUNK_ROWS = 512


def write_csv(
    path, header: str, columns: Sequence[np.ndarray], stamp_lines: Sequence[str] = ()
) -> None:
    """Write '# ' stamp comments, the header, then one row per index of the
    equal-length float ``columns``, each cell a fixed-point decimal with at
    least 9 significant digits, LF endings.

    ``stamp_lines`` are empty by default, so identical data serializes
    byte-identically.  Rows are stacked and formatted CHUNK_ROWS at a time,
    from one list of interleaved (decimals, value) arguments to ``%.*f``.
    A cell gets 9 decimals unless 0 < |v| < 0.1, where it gets
    8 - floor(log10 |v|); only those small cells are visited one by one,
    with ``math.log10``: ``np.log10`` rounds some values differently.
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
            small = np.flatnonzero((magnitude > 0.0) & (magnitude < 0.1))  # false for nan
            args = [9] * (2 * block.size)  # (decimals, value) per cell
            args[1::2] = block.tolist()
            for i, v in zip((2 * small).tolist(), magnitude[small].tolist()):
                args[i] = 8 - math.floor(math.log10(v))
            handle.write(row_format * (block.size // len(columns)) % tuple(args))
