"""Watching the Gram kernel's walk from outside.

walk(rows, free, width, moves, tallies, acc) looks the block's tally up in
tallies once for a pivot subset's first generator and once after every
move, with rows already updated and the block entries at 0.
RecordingTallies stands in for that mapping and keeps each lookup, with a
copy of the rows it was made for. block_tally(hull, state) looks the key
of every fill of the block up in hull; RecordingHull stands in for hull
and keeps those keys. packed_key packs a Gram matrix the way the key is
documented to, so a test can compare the walked key with the key of a
freshly computed Gram.
"""

from typing import Callable


def packed_key(gram: list[list[int]], bits: int) -> int:
    """The upper triangle of gram as one int: entry (i, j) with i <= j at
    bit (j(j+1)/2 + i) * bits."""
    k = len(gram)
    return sum(
        gram[i][j] << bits * (j * (j + 1) // 2 + i) for j in range(k) for i in range(j + 1)
    )


class RecordingTallies:
    """A tallies mapping that tallies one state at l = 0 and records
    ((key, description), copy of rows) at each lookup; set rows to the
    buffer the walk changes."""

    def __init__(self, rows: list[list[int]] | None = None):
        self.rows = rows
        self.seen: list[tuple[tuple[int, tuple[int, ...]], list[list[int]]]] = []

    def __getitem__(self, state: tuple[int, tuple[int, ...]]) -> tuple[tuple[int, int], ...]:
        self.seen.append((state, [row[:] for row in self.rows]))
        return ((0, 1),)


class RecordingHull:
    """A hull mapping that maps a key to dims(key), 0 by default, and
    records each key it is asked for."""

    def __init__(self, dims: Callable[[int], int] = lambda key: 0):
        self.dims = dims
        self.seen: list[int] = []

    def __getitem__(self, key: int) -> int:
        self.seen.append(key)
        return self.dims(key)
