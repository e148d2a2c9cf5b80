"""The number formats shared by the CLI, the profile and trajectory writers
and the summaries, and the one switch between numpy and the stdlib for a
report array.

The grid, its interpolation, the CSV writer and the figure's pixel maps each
have two bit-equal kernels, numpy and stdlib.  Every kernel reads one switch,
``loaded_numpy``: the numpy kernel runs once the process has imported numpy,
the stdlib kernel otherwise, so the default ``compare``, ``figure`` and
``shoot`` runs never load it.  The report layer imports numpy in one place
only, ``Grid.points`` for a grid longer than _PURE_MAX_POINTS;
``compare(with_theta=True)`` loads it through ``theta_profile``, which
imports it itself and runs before the grid is made.  No writer loads it.

``decimal`` loads with the first rounded summary value (``round_half_up``),
so ``shoot`` and ``--help`` never load it.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np

# Rows formatted by one ``%`` operation, by ``write_csv`` and by the SVG
# polylines.  Bounds the cell objects and text alive at once, whatever the
# length of the columns: a 5-column chunk peaks at about 0.3 MiB of Python
# objects at 512 rows (0.1 MiB at 128, 0.6 MiB at 1024).  512 rows made the
# 12 001-point export about 5% faster than 128; 1024 was no faster than 512.
CHUNK_ROWS = 512

# Longest grid, in points, that ``Grid.points`` makes without numpy in a
# process that has not imported it; a longer grid imports numpy, so every
# kernel after it runs on numpy.  A cold `compare --csv --svg` child with
# grid and trajectory of this size costs about as much on the stdlib kernels
# as on numpy, its import included: alternating runs put that crossover between 16 000 and
# 20 000 points.  The CSV writer has no crossover, so it does not use this
# limit: a cold `shoot --trajectory-out` took 0.21 s on the stdlib against
# 0.38 s with numpy at 20 001 rows, and 1.97 s against 2.06 s at 250 001.
_PURE_MAX_POINTS = 18_000


def round_half_up(value: float, decimals: int) -> str:
    """Decimal string of ``value`` rounded half-up to ``decimals`` places."""
    from decimal import ROUND_HALF_UP, Context, Decimal

    quantum = Decimal(1).scaleb(-decimals)
    # a finite float has at most 309 integer digits; the default precision of 28
    # makes quantize fail from 1e25 up
    context = Context(prec=309 + decimals)
    return str(
        Decimal(repr(float(value))).quantize(quantum, rounding=ROUND_HALF_UP, context=context)
    )


def loaded_numpy():
    """The numpy module if this process has imported it, else None: the
    switch between the numpy and the stdlib kernel of every report array."""
    return sys.modules.get("numpy")


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
    8 - floor(log10 |v|), with ``math.log10``: ``np.log10`` rounds some
    values differently.  The numpy kernel visits only those small cells one
    by one; the stdlib kernel visits every cell.  The numpy kernel runs only
    once the process has imported numpy: loading it for the CSV alone costs
    more than it saves.
    """
    np = loaded_numpy()
    row_format = ",".join(["%.*f"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for line in stamp_lines:
            handle.write(f"# {line}\n")
        handle.write(header + "\n")
        for start in range(0, len(columns[0]), CHUNK_ROWS):
            if np is None:
                rows = zip(*(c[start : start + CHUNK_ROWS] for c in columns))
                values = [v for row in rows for v in row]
                args = [9] * (2 * len(values))  # (decimals, value) per cell
                args[1::2] = values
                for i, v in enumerate(values):
                    if 0.0 < abs(v) < 0.1:
                        args[2 * i] = 8 - math.floor(math.log10(abs(v)))
            else:
                block = np.column_stack([c[start : start + CHUNK_ROWS] for c in columns]).ravel()
                magnitude = np.abs(block)
                small = np.flatnonzero((magnitude > 0.0) & (magnitude < 0.1))  # false for nan
                args = [9] * (2 * block.size)  # (decimals, value) per cell
                args[1::2] = block.tolist()
                for i, v in zip((2 * small).tolist(), magnitude[small].tolist()):
                    args[i] = 8 - math.floor(math.log10(v))
            handle.write(row_format * (len(args) // (2 * len(columns))) % tuple(args))
