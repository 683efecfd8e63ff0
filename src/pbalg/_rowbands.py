"""Row-band kernels for carriers and blocks of more than ``core._SMALL_MAX``
elements: the row tests of validation, the block check and the morphism
check, the isomorphism signatures, and the numpy half of
``core.block_tables``, the table writer.

A large carrier keeps one numpy copy of its tables, ``arrays(A)``: comm as
booleans and meet and join as int32, the writer's own arrays for a carrier
built from blocks, else converted from the tuples once.  Each test kernel
decides in numpy which rows may hold a bad cell, and its caller walks only
those rows cell by cell, so reports and errors are the walk's own.  A band
is a run of consecutive rows of at most ``_BAND_CELLS`` cells: the kernels
slice their bands from the kept arrays and drop each band's temporaries
before the next one, and the writer scatters a block's cells a band of its
rows at a time.  The callers import this module, and with it numpy, only on
their large paths.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import _ARRAYS, UNDEF, PartialBooleanAlgebra, PbaMorphism
from .errors import AmalgamError

# cells per band: 64 rows of a 1024-element carrier, 256 KB as int32
_BAND_CELLS = 1 << 16


def _bands(count: int, width: int) -> Iterator[tuple[int, int]]:
    """Consecutive row ranges of ``count`` rows, each at most
    ``_BAND_CELLS`` cells of ``width`` columns (and at least one row)."""
    step = max(1, _BAND_CELLS // max(width, 1))
    return ((r, min(r + step, count)) for r in range(0, count, step))


def arrays(A: PartialBooleanAlgebra) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A's comm as an n×n boolean array and its meet and join as n×n int32
    arrays (UNDEF as -1): the arrays A's writer kept, else converted from
    A's tables once and kept on A, in ``A.__dict__`` under
    ``core._ARRAYS``.  They are no dataclass field, so equality, hashing
    and ``dataclasses.replace`` ignore them, and a replaced carrier
    converts its own tables."""
    kept = A.__dict__.get(_ARRAYS)
    if kept is None:
        n = A.n
        nbytes = (n + 7) // 8
        buf = b"".join(row.to_bytes(nbytes, "little") for row in A.comm)
        comm = np.unpackbits(np.frombuffer(buf, np.uint8).reshape(n, nbytes),
                             axis=1, count=n, bitorder="little").astype(bool)
        meet, join = np.empty((2, n, n), np.int32)
        for out, table in ((meet, A.meet), (join, A.join)):
            for a, row in enumerate(table):
                out[a] = np.fromiter(row, np.int32, n)
        kept = A.__dict__[_ARRAYS] = comm, meet, join
    return kept


def pair_rows(A: PartialBooleanAlgebra) -> Iterator[int]:
    """Ascending rows a of A for validate's pair walk: every row with a pair
    (a, b), b >= a, on which comm is asymmetric, a table is defined off comm
    or undefined on it, or a table differs from its transpose.  A band tests
    its rows from its own first row on, so a few clean rows may be named
    too; the walk reports nothing on those."""
    n = A.n
    comm, meet, join = arrays(A)
    for r0, r1 in _bands(n, n):
        row_comm = comm[r0:r1, r0:]
        bad = (row_comm != comm[r0:, r0:r1].T).any(1)
        for table in (meet, join):
            rows = table[r0:r1, r0:]
            bad |= ((rows != UNDEF) != row_comm).any(1) | (rows != table[r0:, r0:r1].T).any(1)
        yield from (np.flatnonzero(bad) + r0).tolist()


def transport_rows(A: PartialBooleanAlgebra, elems: Sequence[int],
                   below: Sequence[int]) -> Iterator[int]:
    """The positions p in the block ``elems``, ascending, whose meet or join
    row over the block is not the atom intersection or union; ``below[p]``
    is the atom set of ``elems[p]``.  Cells off the block, UNDEF included,
    look up -1, which no atom set equals."""
    _, meet, join = arrays(A)
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
    comm_a, meet_a, join_a = arrays(A)
    comm_b, meet_b, join_b = arrays(B)
    m = np.array(f.map, np.intp)
    n = A.n
    for r0, r1 in _bands(n, n):
        cells = np.ix_(m[r0:r1], m[r0:])
        above = np.arange(r0, n) > np.arange(r0, r1)[:, None]
        bad = (~comm_b[cells] | (m[meet_a[r0:r1, r0:]] != meet_b[cells])
               | (m[join_a[r0:r1, r0:]] != join_b[cells]))
        yield from (np.flatnonzero((bad & above & comm_a[r0:r1, r0:]).any(1)) + r0).tolist()


def signatures(A: PartialBooleanAlgebra) -> list[tuple]:
    """``core._signature`` of every element of A: its comm degree is its
    row's count of comm cells, and the commeasurable elements below it
    are the b with ``meet[a][b] == b`` on its comm row."""
    n = A.n
    comm, meet, _ = arrays(A)
    diagonal = np.arange(n, dtype=np.int32)
    down = np.concatenate([((meet[r0:r1] == diagonal) & comm[r0:r1]).sum(1)
                           for r0, r1 in _bands(n, n)])
    return [(a == A.zero, a == A.one, a == neg, degree, below)
            for a, neg, degree, below in zip(range(n), A.neg, comm.sum(1).tolist(),
                                             down.tolist())]


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
                              tuple[tuple[int, ...], ...],
                              tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """neg, meet and join of ``core.block_tables``, scattered from each
    block in turn: row ``local[a]`` gets ``local[a & b]`` and ``local[a | b]``
    at ``local[b]``, and the carrier's ``arrays``: the blocks cover it, so
    comm is where the tables are defined.  A cell written twice with
    different values raises AmalgamError, naming negation, else meet if the
    conflicting band's meet writes conflict, else join.  Each cell of the
    returned rows is one shared int object per element."""
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

    return tuple(objs[neg]), rows(meet), rows(join), (meet != UNDEF, meet, join)
