"""The CSV format shared by the profile and trajectory writers, and the one
rule that picks numpy or the stdlib for a report array.

The grid, its interpolation, the CSV writer and the figure's pixel maps each
have two bit-equal kernels, numpy and stdlib; ``numpy_for`` picks one.  A
process that has not imported numpy runs the stdlib kernels, so the default
``compare``, ``figure`` and ``shoot`` runs never load it.  Once numpy is
imported (by the caller, by ``theta_profile``, or by an array longer than
_PURE_MAX_POINTS) the numpy kernels run.
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

# Longest array, in rows, that the stdlib kernels take in a process without
# numpy.  A cold `compare --csv --svg` child with grid and trajectory of
# this size costs about as much on the stdlib kernels as on numpy, its
# import included: alternating runs put that crossover between 16 000 and
# 20 000 points.  The CSV writer alone has none up to 250 001 rows, where a
# cold `shoot --trajectory-out` still ran 0.09 s faster on the stdlib.
_PURE_MAX_POINTS = 18_000


def numpy_for(rows: int):
    """The numpy module to make or read an array of ``rows`` rows, or None
    when the stdlib kernels run: numpy runs once it is imported, or when
    ``rows`` passes _PURE_MAX_POINTS."""
    if rows > _PURE_MAX_POINTS or "numpy" in sys.modules:
        import numpy

        return numpy
    return None


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
    by one; the stdlib kernel, for columns of up to _PURE_MAX_POINTS rows,
    visits every cell.
    """
    np = numpy_for(len(columns[0]))
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
