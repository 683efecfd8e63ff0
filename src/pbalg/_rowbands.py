"""Row-band kernels for carriers and blocks of more than ``core._SMALL_MAX``
elements: the row tests of validation and the block check, and the numpy
half of ``core.block_tables``, the table writer.

Each test kernel decides in numpy which rows of a table may hold a bad
cell, and its caller walks only those rows cell by cell, so reports and
errors are the walk's own.  A band is a run of consecutive rows of at most
``_BAND_CELLS`` cells: it is copied into arrays, tested and dropped before
the next one, so no kernel holds a second copy of a whole table; the
writer scatters a block's cells a band of its rows at a time.  The
callers import this module, and with it numpy, only on their large paths.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import UNDEF, PartialBooleanAlgebra
from .errors import AmalgamError

# cells per band: 64 rows of a 1024-element carrier, 256 KB as int32
_BAND_CELLS = 1 << 16


def _bands(count: int, width: int) -> Iterator[tuple[int, int]]:
    """Consecutive row ranges of ``count`` rows, each at most
    ``_BAND_CELLS`` cells of ``width`` columns (and at least one row)."""
    step = max(1, _BAND_CELLS // max(width, 1))
    return ((r, min(r + step, count)) for r in range(0, count, step))


def _bit_rows(rows: Sequence[int], shift: int, width: int) -> np.ndarray:
    """Bits ``shift`` .. ``shift + width - 1`` of each row bitmask, as a
    boolean array with one row per bitmask."""
    nbytes = (width + 7) // 8
    keep = (1 << width) - 1
    buf = b"".join((r >> shift & keep).to_bytes(nbytes, "little") for r in rows)
    bits = np.unpackbits(np.frombuffer(buf, np.uint8).reshape(len(rows), nbytes),
                         axis=1, bitorder="little")
    return bits[:, :width].astype(bool)


def pair_rows(A: PartialBooleanAlgebra) -> Iterator[int]:
    """Ascending rows a of A for validate's pair walk: every row with a pair
    (a, b), b >= a, on which comm is asymmetric, a table is defined off comm
    or undefined on it, or a table differs from its transpose.  A band tests
    its rows from its own first row on, so a few clean rows may be named
    too; the walk reports nothing on those."""
    n = A.n
    for r0, r1 in _bands(n, n):
        w = n - r0
        comm = _bit_rows(A.comm[r0:r1], r0, w)
        bad = (comm != _bit_rows(A.comm[r0:], r0, r1 - r0).T).any(1)
        for table in (A.meet, A.join):
            rows = np.array([row[r0:] for row in table[r0:r1]], np.int32)
            cols = np.array([row[r0:r1] for row in table[r0:]], np.int32).T
            bad |= ((rows != UNDEF) != comm).any(1) | (rows != cols).any(1)
        yield from (np.flatnonzero(bad) + r0).tolist()


def transport_rows(A: PartialBooleanAlgebra, elems: Sequence[int],
                   below: Sequence[int]) -> Iterator[int]:
    """The positions p in the block ``elems``, ascending, whose meet or join
    row over the block is not the atom intersection or union; ``below[p]``
    is the atom set of ``elems[p]``.  Cells off the block, UNDEF included,
    look up -1, which no atom set equals."""
    lut = np.full(A.n + 1, -1, np.int64)
    own = np.array(below, np.int64)
    lut[np.array(elems, np.intp)] = own
    gather = itemgetter(*elems)
    for r0, r1 in _bands(len(elems), len(elems)):
        meet, join = (lut[np.array([gather(table[a]) for a in elems[r0:r1]], np.intp)]
                      for table in (A.meet, A.join))
        ma = own[r0:r1, None]
        bad = ((meet != ma & own) | (join != ma | own)).any(1)
        yield from (np.flatnonzero(bad) + r0).tolist()


def _scatter(table: np.ndarray, cells, values: np.ndarray) -> bool:
    """Write ``values`` to ``table[cells]``; return whether a write
    conflicts with a cell's earlier value or with another write to the
    same cell."""
    old = table[cells]
    table[cells] = values
    return bool((((old != UNDEF) & (old != values))
                 | (table[cells] != values)).any())


def scatter_tables(n: int, blocks: Iterable[Sequence[int]]
                   ) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...],
                              tuple[tuple[int, ...], ...]]:
    """neg, meet and join of ``core.block_tables``, scattered from each
    block in turn: row ``local[a]`` gets ``local[a & b]`` and ``local[a | b]``
    at ``local[b]``.  A cell written twice with different values raises
    AmalgamError, naming negation, else meet if the conflicting band's meet
    writes conflict, else join.  Each cell of the returned rows is one
    shared int object per element."""
    neg = np.full(n, UNDEF, np.int32)
    meet = np.full((n, n), UNDEF, np.int32)
    join = np.full((n, n), UNDEF, np.int32)
    for local in blocks:
        local = np.array(local)
        masks = np.arange(len(local))
        if _scatter(neg, local, local[masks[-1] ^ masks]):
            raise AmalgamError("negation ill-defined on the carrier")
        # a band of the block's rows at a time, both tables: the index and
        # value arrays stay within the band bound
        for r0, r1 in _bands(len(local), len(local)):
            cells = np.ix_(local[r0:r1], local)
            rows = masks[r0:r1, None]
            for name, table, values in (("meet", meet, local[rows & masks]),
                                        ("join", join, local[rows | masks])):
                if _scatter(table, cells, values):
                    raise AmalgamError(f"{name} ill-defined on the carrier")
    objs = np.array([*range(n), UNDEF], object)

    def rows(table: np.ndarray) -> tuple[tuple[int, ...], ...]:
        return tuple(itertools.chain.from_iterable(
            map(tuple, objs[table[r0:r1]]) for r0, r1 in _bands(n, n)))

    return tuple(objs[neg]), rows(meet), rows(join)
