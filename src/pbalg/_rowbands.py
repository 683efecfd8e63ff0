"""The tables of carriers of more than ``core._SMALL_MAX`` elements, and the
numpy kernels that read them: the row tests of validation, the block check
and the morphism check, the atom scan of the block decoder, the isomorphism
signatures and closure, and the numpy half of ``core.block_tables``, the
table writer.

A large carrier's ``meet`` and ``join`` are each one ``Rows``: a read-only
n×n int32 array, UNDEF as -1, read as a sequence of rows.  Row a is a tuple
of shared ints, built the first time it is read and then kept, so a carrier
whose rows nothing walks holds its arrays alone.  ``comm`` stays a tuple of
row bitmasks; a kernel unpacks the rows it reads into booleans.  Each test
kernel decides in numpy which rows may hold a bad cell, and its caller
walks only those rows cell by cell, so reports and errors are the walk's
own.  A band is a run of consecutive rows of at most ``_BAND_CELLS`` cells:
the kernels slice their bands from the arrays and drop each band's
temporaries before the next one, and the writer scatters a block's cells a
band of its rows at a time.  The callers import this module, and with it
numpy, only on their large paths.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .core import UNDEF, PartialBooleanAlgebra, PbaMorphism, _columns
from .errors import AmalgamError

# cells per band: 64 rows of a 1024-element carrier, 256 KB as int32
_BAND_CELLS = 1 << 16


def _bands(count: int, width: int) -> Iterator[tuple[int, int]]:
    """Consecutive row ranges of ``count`` rows, each at most
    ``_BAND_CELLS`` cells of ``width`` columns (and at least one row)."""
    step = max(1, _BAND_CELLS // max(width, 1))
    return ((r, min(r + step, count)) for r in range(0, count, step))


class Rows:
    """A carrier's meet or join table above ``core._SMALL_MAX`` elements:
    the read-only int32 array ``array`` (UNDEF as -1), read as a sequence
    of rows.  Row a is a tuple whose cells are the int objects of
    ``ints``, one per element and the last for UNDEF (a carrier's two
    tables share them), built the first time it is read and then kept.
    ``==`` and ``hash`` read the array."""

    __slots__ = ("array", "ints", "_rows", "_hash")

    def __init__(self, array: np.ndarray, ints: np.ndarray):
        array.flags.writeable = False
        self.array = array
        self.ints = ints
        self._rows: list[tuple[int, ...] | None] = [None] * len(array)
        self._hash: int | None = None

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, a: int) -> tuple[int, ...]:
        row = self._rows[a]
        if row is None:
            row = self._rows[a] = tuple(self.ints[self.array[a]].tolist())
        return row

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return map(self.__getitem__, range(len(self._rows)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Rows):
            return NotImplemented
        return self.array is other.array or bool(np.array_equal(self.array, other.array))

    def __hash__(self) -> int:
        if self._hash is None:
            # the array's bytes, chained a band at a time so that no copy
            # of the whole table is made
            a = self.array
            h = hash(a.shape)
            for r0, r1 in _bands(*a.shape):
                h = hash((h, a[r0:r1].tobytes()))
            self._hash = h
        return self._hash

    def in_range(self, n: int) -> bool:
        """Whether the table is n×n with every cell UNDEF or an element."""
        a = self.array
        return a.shape == (n, n) and a.min() >= UNDEF and a.max() < n


def shared_ints(n: int) -> np.ndarray:
    """One int object per element 0..n-1 and last UNDEF, as an object
    array: indexing it with a table's cells, UNDEF included, gives each
    cell the one int of its value."""
    return np.array([*range(n), UNDEF], object)


def as_rows(n: int, meet, join) -> tuple[Rows, Rows]:
    """meet and join as ``Rows``: a ``Rows`` is kept, and tuple or list rows,
    already checked to be n rows of n cells in range, are converted once.
    The two tables share one ``shared_ints``."""
    kept = [t for t in (meet, join) if isinstance(t, Rows)]
    ints = kept[0].ints if kept else shared_ints(n)
    return tuple(t if isinstance(t, Rows) else Rows(np.array(t, np.int32), ints)
                 for t in (meet, join))


def _table_array(table) -> np.ndarray:
    """A table as an int32 array: a ``Rows``'s own, else converted (the
    small codomain of a morphism out of a large carrier)."""
    return table.array if isinstance(table, Rows) else np.array(table, np.int32)


def _unpack(masks: Sequence[int], n: int) -> np.ndarray:
    """Row bitmasks over n elements as a len(masks)×n boolean array."""
    nbytes = (n + 7) // 8
    buf = b"".join(m.to_bytes(nbytes, "little") for m in masks)
    bits = np.frombuffer(buf, np.uint8).reshape(len(masks), nbytes)
    return np.unpackbits(bits, axis=1, count=n, bitorder="little").view(bool)


def pair_rows(A: PartialBooleanAlgebra) -> Iterator[int]:
    """Ascending rows a of A for validate's pair walk: every row with a pair
    (a, b), b >= a, on which comm is asymmetric, a table is defined off comm
    or undefined on it, or a table differs from its transpose.  A band tests
    its rows from its own first row on, so a few clean rows may be named
    too; the walk reports nothing on those."""
    n = A.n
    comm = _unpack(A.comm, n)
    meet, join = A.meet.array, A.join.array
    for r0, r1 in _bands(n, n):
        row_comm = comm[r0:r1, r0:]
        bad = (row_comm != comm[r0:, r0:r1].T).any(1)
        for table in (meet, join):
            rows = table[r0:r1, r0:]
            bad |= ((rows != UNDEF) != row_comm).any(1) | (rows != table[r0:, r0:r1].T).any(1)
        yield from (np.flatnonzero(bad) + r0).tolist()


def block_atoms(A: PartialBooleanAlgebra, elems: Sequence[int]) -> list[int]:
    """The x of ``elems`` (ascending) with no other b of ``elems`` such that
    ``meet[x][b] == b``: the atoms ``core._decode_block`` finds among a
    block's nonzero elements, without reading a row of ``A.meet``."""
    meet = A.meet.array
    index = np.array(elems, np.intp)
    atoms = []
    for r0, r1 in _bands(len(index), len(index)):
        rows = index[r0:r1, None]
        below = (meet[rows, index] == index) & (rows != index)
        atoms += index[r0:r1][~below.any(1)].tolist()
    return atoms


def transport_rows(A: PartialBooleanAlgebra, elems: Sequence[int],
                   below: Sequence[int]) -> Iterator[int]:
    """The positions p in the block ``elems``, ascending, whose meet or join
    row over the block is not the atom intersection or union; ``below[p]``
    is the atom set of ``elems[p]``.  Cells off the block, UNDEF included,
    look up -1, which no atom set equals."""
    meet, join = A.meet.array, A.join.array
    lut = np.full(A.n + 1, -1, np.int64)
    own = np.array(below, np.int64)
    index = np.array(elems, np.intp)
    lut[index] = own
    for r0, r1 in _bands(len(elems), len(elems)):
        cells = np.ix_(index[r0:r1], index)
        ma = own[r0:r1, None]
        bad = ((lut[meet[cells]] != ma & own) | (lut[join[cells]] != ma | own)).any(1)
        yield from (np.flatnonzero(bad) + r0).tolist()


def morphism_rows(f: PbaMorphism) -> Iterator[int]:
    """Ascending rows a of f's domain A with a pair (a, b), b > a,
    commeasurable in A, at which f does not preserve comm, meet or join:
    the cells ``check_morphism`` compares, with UNDEF read as -1 at both
    ends as the walk reads it, so exactly the rows on which it finds a
    violation."""
    A, B = f.dom, f.cod
    meet_a, join_a = A.meet.array, A.join.array
    meet_b, join_b = _table_array(B.meet), _table_array(B.join)
    m = np.array(f.map, np.int32)  # images and indices: int32 halves the gathers
    n = A.n
    for r0, r1 in _bands(n, n):
        cells = np.ix_(m[r0:r1], m[r0:])
        above = np.arange(r0, n) > np.arange(r0, r1)[:, None]
        comm_b = _unpack([B.comm[v] for v in f.map[r0:r1]], B.n)[:, m[r0:]]
        bad = (~comm_b | (m[meet_a[r0:r1, r0:]] != meet_b[cells])
               | (m[join_a[r0:r1, r0:]] != join_b[cells]))
        bad &= above & _unpack(A.comm[r0:r1], n)[:, r0:]
        yield from (np.flatnonzero(bad.any(1)) + r0).tolist()


def signatures(A: PartialBooleanAlgebra) -> list[tuple]:
    """``core._signature`` of every element of A: its comm degree is its
    row's bit count, and the commeasurable elements below it are the b
    with ``meet[a][b] == b`` on its comm row."""
    n = A.n
    meet = A.meet.array
    diagonal = np.arange(n, dtype=np.int32)
    down = np.concatenate([((meet[r0:r1] == diagonal) & _unpack(A.comm[r0:r1], n)).sum(1)
                           for r0, r1 in _bands(n, n)])
    return [(a == A.zero, a == A.one, a == neg, row.bit_count(), below)
            for a, neg, row, below in zip(range(n), A.neg, A.comm, down.tolist())]


def wave_closure(A: PartialBooleanAlgebra, B: PartialBooleanAlgebra
                 ) -> Callable[[list[int], list[int], int], list[tuple[int, int]]]:
    """``find_isomorphism``'s closure for carriers of more than
    ``core._SMALL_MAX`` elements, read off the arrays a propagation wave at
    a time.  ``closure(wave, f, done)`` returns the pairs ``(m, y)`` that
    force ``f[m] == y``: the negations of the wave, and the meet and join
    of each pair p < q with ``A.comm[p]`` bit q whose later element is in
    the wave, onto the meet and join of ``(f[p], f[q])`` in B.  These are
    the per-element closure's pairs: a pair inside the wave is read from
    its higher element, with the wave's lower elements counted as done.  A
    pair whose meet or join already maps there is left out, one holding
    UNDEF is kept (a contradiction to the search), and repeats are
    dropped."""
    n = A.n
    meet_a, join_a = A.meet.array.ravel(), A.join.array.ravel()
    meet_b, join_b = B.meet.array.ravel(), B.join.array.ravel()
    # the partners of a in check_morphism's pair order: x < a through
    # comm[x] bit a (column a), x > a through comm[a] bit x
    cols = _columns(A.comm)
    near = [(c & ((1 << a) - 1)) | (r >> (a + 1) << (a + 1))
            for a, (r, c) in enumerate(zip(A.comm, cols))]
    del cols

    def closure(wave: list[int], f: list[int], done: int) -> list[tuple[int, int]]:
        fa = np.array(f, np.intp)
        order = sorted(wave)
        partners = []
        for a in order:
            partners.append(near[a] & done)
            done |= 1 << a
        rows = np.array(order, np.intp)
        forced = [(A.neg[a], B.neg[f[a]]) for a in order]
        # an eighth of a band of pairs at a time: each pair holds several
        # int64 index temporaries
        for r0, r1 in _bands(len(order), n << 3):
            flat = np.flatnonzero(_unpack(partners[r0:r1], n))
            a, x = rows[r0:r1][flat // n], flat % n
            p, q = np.minimum(a, x), np.maximum(a, x)
            del flat, a, x
            cells, images = p * n + q, fa[p] * n + fa[q]
            del p, q
            for table_a, table_b in ((meet_a, meet_b), (join_a, join_b)):
                m, y = table_a[cells], table_b[images]
                new = (m | y) < 0
                new |= fa[m] != y
                forced += zip(m[new].tolist(), y[new].tolist())
        return list(dict.fromkeys(forced))

    return closure


def _scatter(table: np.ndarray, cells, values: np.ndarray) -> bool:
    """Write ``values`` to ``table[cells]``; return whether a write
    conflicts with a cell's earlier value or with another write to the
    same cell."""
    old = table[cells]
    table[cells] = values
    return bool((((old != UNDEF) & (old != values))
                 | (table[cells] != values)).any())


def scatter_tables(n: int, blocks: Iterable[Sequence[int]]
                   ) -> tuple[tuple[int, ...], Rows, Rows]:
    """neg, meet and join of ``core.block_tables``, scattered from each
    block in turn: row ``local[a]`` gets ``local[a & b]`` and ``local[a | b]``
    at ``local[b]``.  A cell written twice with different values raises
    AmalgamError, naming negation, else meet if the conflicting band's meet
    writes conflict, else join.  The scattered arrays become the carrier's
    ``Rows``, and neg's cells are their shared ints."""
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
    ints = shared_ints(n)
    return tuple(ints[neg].tolist()), Rows(meet, ints), Rows(join, ints)
