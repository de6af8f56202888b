"""Watching the Gram kernel's walk from outside.

walk(rows, free, moves, hull, acc) looks the Gram key up in hull once for
a pivot subset's first generator and once after every move, with rows
already updated. RecordingHull stands in for the hull mapping and keeps
each key with a copy of the rows it was looked up for; packed_key packs a
Gram matrix the way the key is documented to, so a test can compare the
walked key with the key of a freshly computed Gram.
"""


def packed_key(gram: list[list[int]], bits: int) -> int:
    """The upper triangle of gram as one int: entry (i, j) with i <= j at
    bit (j(j+1)/2 + i) * bits."""
    k = len(gram)
    return sum(
        gram[i][j] << bits * (j * (j + 1) // 2 + i) for j in range(k) for i in range(j + 1)
    )


class RecordingHull:
    """A hull mapping that maps every key to 0 and records (key, copy of
    rows) at each lookup; set rows to the buffer the walk changes."""

    def __init__(self, rows: list[list[int]] | None = None):
        self.rows = rows
        self.seen: list[tuple[int, list[list[int]]]] = []

    def __getitem__(self, key: int) -> int:
        self.seen.append((key, [row[:] for row in self.rows]))
        return 0
