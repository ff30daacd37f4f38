"""The one CSV writer behind the library's text artifacts.

Rows are formatted a block at a time: the block's columns are stacked, flattened
to one list of Python numbers, and formatted by a single ``%`` against the row
template repeated once per row.  ``"%.17g" % v`` is the same conversion as
``f"{v:.17g}"`` for a float, and ``"%d"`` of an integral float prints the
integer, so the text matches a row-by-row f-string dump byte for byte.  A block
bounds the memory one write takes, whatever the number of rows.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_BLOCK_ROWS = 4096


def write_csv(target, header: Sequence[str], formats: Sequence[str], columns: Sequence) -> None:
    """Write ``header`` then one row per index of the equal-length ``columns``.

    ``target`` is a path, opened and closed here, or an open text stream.
    ``formats`` holds one ``%`` conversion per column, such as ``"%.17g"``, or
    ``"%d"`` for a column of integers or booleans (stacked as exact floats).
    A column is an array, or a ``range`` for a row index, which is then
    never held whole either.
    """
    row = ",".join(formats) + "\n"
    n = len(columns[0])
    own = isinstance(target, (str, bytes))
    fh = open(target, "w", encoding="utf-8") if own else target
    try:
        fh.write(",".join(header) + "\n")
        for start in range(0, n, _BLOCK_ROWS):
            block = np.column_stack([c[start:start + _BLOCK_ROWS] for c in columns])
            fh.write(row * len(block) % tuple(block.ravel().tolist()))
    finally:
        if own:
            fh.close()
